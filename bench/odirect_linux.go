package main

import (
	"os"
	"syscall"
)

// openDirect creates path the way the file backend first tries to.
func openDirect(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC|syscall.O_DIRECT, 0o666)
}
