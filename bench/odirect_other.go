//go:build !linux

package main

import (
	"errors"
	"os"
)

// openDirect: the file backend only asks for O_DIRECT on Linux.
func openDirect(string) (*os.File, error) { return nil, errors.New("no O_DIRECT here") }
