// Package bad does not type-check.
package bad

// X is declared with the wrong type.
var X int = "not an int"
