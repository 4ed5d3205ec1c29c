module em/bench

go 1.23

require em v0.0.0

replace em => ../
