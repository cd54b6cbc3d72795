// Package proctest counts what tests leave running in their process:
// child processes and open descriptors. It reads Linux's /proc; where
// there is none, the counts are unavailable and Main checks nothing.
// Only test files import this package.
package proctest

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Children returns the pids of this process's children, exited but
// unreaped ones included.
func Children() ([]int, error) {
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		return nil, err
	}
	if len(stats) == 0 {
		return nil, fmt.Errorf("proctest: no /proc")
	}
	self := os.Getpid()
	var kids []int
	for _, path := range stats {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // the process is gone
		}
		// pid (comm) state ppid ...; comm may hold spaces and parentheses.
		s := string(b)
		fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(fields) < 2 {
			continue
		}
		if ppid, _ := strconv.Atoi(fields[1]); ppid == self {
			pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(path)))
			kids = append(kids, pid)
		}
	}
	return kids, nil
}

// OpenFDs returns the number of this process's open descriptors.
func OpenFDs() (int, error) {
	fds, err := os.ReadDir("/proc/self/fd")
	return len(fds), err
}

// Main runs the tests and fails them if a child process outlives them:
//
//	func TestMain(m *testing.M) { os.Exit(proctest.Main(m)) }
func Main(m *testing.M) int {
	code := m.Run()
	if kids, err := Children(); err == nil && len(kids) > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: child processes %v outlive the tests\n", kids)
		if code == 0 {
			code = 1
		}
	}
	return code
}
