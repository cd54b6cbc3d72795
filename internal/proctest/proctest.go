// Package proctest counts what tests leave running in their process:
// child processes and open descriptors. It reads Linux's /proc; where
// there is none, the counts are unavailable and Main checks nothing.
// It also re-executes a test binary as a helper process (Helper), for a
// test of what happens when a process dies. Only test files import this
// package.
package proctest

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
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
		fields := statFields(path) // empty when the process is gone
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

// statFields returns the fields of a /proc/<pid>/stat file after the
// command name — state, ppid, ... — or none if it cannot be read.
func statFields(path string) []string {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	// pid (comm) state ppid ...; comm may hold spaces and parentheses.
	s := string(b)
	return strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
}

// Running reports whether process pid exists and has not exited: an
// exited process nobody has reaped yet is not running.
func Running(pid int) bool {
	fields := statFields(fmt.Sprintf("/proc/%d/stat", pid))
	return len(fields) > 0 && fields[0] != "Z" && fields[0] != "X"
}

// CPUTicks returns the CPU time process pid has used, user and system,
// in clock ticks.
func CPUTicks(pid int) (int, error) {
	fields := statFields(fmt.Sprintf("/proc/%d/stat", pid))
	// utime and stime are fields 14 and 15 of the line; fields[0] is 3.
	if len(fields) < 13 {
		return 0, fmt.Errorf("proctest: no CPU times for process %d", pid)
	}
	utime, err := strconv.Atoi(fields[11])
	if err != nil {
		return 0, err
	}
	stime, err := strconv.Atoi(fields[12])
	return utime + stime, err
}

// helperArg marks a helper process: the first argument after the test
// binary's flags.
const helperArg = "proctest-helper"

// Helper returns a command that re-executes the test binary as a helper
// process that runs only the test named test, given args: in it
// InHelper returns them, and the test plays the helper's part instead of
// its own.
func Helper(test string, args ...string) *exec.Cmd {
	return exec.Command(os.Args[0], append([]string{"-test.run=^" + test + "$", "-test.count=1", "--", helperArg}, args...)...)
}

// InHelper reports whether this process is a helper process (Helper),
// and with which arguments.
func InHelper() (args []string, ok bool) {
	if a := flag.Args(); len(a) > 0 && a[0] == helperArg {
		return a[1:], true
	}
	return nil, false
}

// OpenFDs returns the number of this process's open descriptors.
func OpenFDs() (int, error) {
	fds, err := os.ReadDir("/proc/self/fd")
	return len(fds), err
}

// Mappings returns the number of this process's memory mappings of a
// resident worker's state: the lines of /proc/self/maps naming
// zpl-state, the name backend gives the file it maps.
func Mappings() (int, error) {
	b, err := os.ReadFile("/proc/self/maps")
	return strings.Count(string(b), "zpl-state"), err
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
