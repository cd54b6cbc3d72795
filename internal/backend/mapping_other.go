//go:build !unix

package backend

import (
	"errors"
	"os"
)

// Resident workers share their state through mmap(2); elsewhere Start
// fails and one-shot Run is all there is.
var errNoMapping = errors.New("resident workers need a unix host")

func newMapping(int) (*os.File, error) { return nil, errNoMapping }

func mapShared(*os.File, int) ([]byte, error) { return nil, errNoMapping }

func unmap([]byte) error { return nil }
