// Package uses imports a sibling package, which the loader resolves
// through export data.
package uses

import "example.com/m/good"

// X calls into good.
var X = good.Upper("x")
