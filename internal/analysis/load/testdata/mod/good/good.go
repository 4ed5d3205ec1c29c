// Package good type-checks on its own.
package good

import "strings"

// Upper returns s in upper case.
func Upper(s string) string { return strings.ToUpper(s) }
