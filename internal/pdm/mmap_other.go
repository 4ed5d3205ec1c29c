//go:build !unix || openbsd

package pdm

import (
	"errors"
	"os"
)

// mapFile reports that mapping is unavailable here, so every buffered disk
// reads with ReadAt.
func mapFile(*os.File, int64) ([]byte, error) { return nil, errors.ErrUnsupported }

// unmapFile is never called without a mapping.
func unmapFile([]byte) error { return nil }
