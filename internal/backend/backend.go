// Package backend executes compiled programs natively: it takes the
// Go source the gogen emitter produces, builds it with the host
// toolchain into a content-addressed artifact store, and runs the
// binary — the production execution path the bytecode VM exists to
// cross-validate. A binary runs once per process (Artifact.Run: zplrun,
// zpld), or stays resident and runs on command over state it shares
// with this process (Artifact.Start, Worker: the lazy runtime).
//
// The store is keyed by the SHA-256 of the generated source plus the
// toolchain version, so identical emissions (the same program at the
// same plan, or the same request repeated) are build cache hits: the
// binary on disk is reused without invoking the toolchain at all.
// Builds are deduplicated in-process (internal/flight: concurrent
// requests for one key share a single toolchain invocation) and
// written atomically (temp-file + rename), so several processes may
// share one store directory.
//
// Failure classification mirrors the repo's exit-code discipline:
//
//   - a toolchain failure building emitted code is a *compile* error
//     and surfaces as *BuildError with the full diagnostics (zplrun
//     exit 3, zpld HTTP 422) — generated code failing to build is a
//     code-generator bug, not a runtime fault;
//   - a fault inside the running binary (the gogen trap scaffold
//     exits with gogen.ExitTrap) is a *runtime* error and surfaces as
//     *RunError (zplrun exit 1, zpld HTTP 500);
//   - a deadline expiry while building or running is reported as the
//     context's error (errors.Is-testable for DeadlineExceeded).
package backend

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/absint"
	"repro/internal/flight"
	"repro/internal/gogen"
	"repro/internal/lir"
	"repro/internal/store"
)

// toolchain caches the PATH probe for the go tool.
var toolchain struct {
	once sync.Once
	path string
	err  error
}

// Toolchain returns the host go tool's path, probing PATH once.
// ok is false when no toolchain is installed; callers degrade
// gracefully (tests skip, the service answers 400, make targets
// print a notice) instead of failing deep inside a build.
func Toolchain() (path string, ok bool) {
	toolchain.once.Do(func() {
		toolchain.path, toolchain.err = exec.LookPath("go")
	})
	return toolchain.path, toolchain.err == nil
}

// Available reports whether the native backend can run on this host.
func Available() bool {
	_, ok := Toolchain()
	return ok
}

// DirEnv overrides the default artifact-store location.
const DirEnv = "ZPL_ARTIFACT_DIR"

// DefaultDir picks the artifact-store directory: $ZPL_ARTIFACT_DIR,
// else the user cache directory, else the system temp directory. The
// store is a pure cache — deleting it costs rebuilds, never
// correctness.
func DefaultDir() string {
	if d := os.Getenv(DirEnv); d != "" {
		return d
	}
	if d, err := os.UserCacheDir(); err == nil {
		return filepath.Join(d, "zpl-native")
	}
	return filepath.Join(os.TempDir(), "zpl-native")
}

// BuildError is a toolchain failure compiling emitted Go: a compile
// error in the repo's classification, carrying the full diagnostics
// so the code-generator bug is debuggable from the report alone.
type BuildError struct {
	Diagnostics string // toolchain stderr
	Err         error  // the underlying exec error
}

func (e *BuildError) Error() string {
	d := strings.TrimSpace(e.Diagnostics)
	if d == "" {
		return fmt.Sprintf("go build of emitted code failed: %v", e.Err)
	}
	return fmt.Sprintf("go build of emitted code failed: %v\n%s", e.Err, d)
}

func (e *BuildError) Unwrap() error { return e.Err }

// RunError is a failure inside the generated binary: a runtime error
// in the repo's classification.
type RunError struct {
	// Trap is true when the binary's recover scaffold caught a fault
	// (it exited with gogen.ExitTrap); false for any other abnormal
	// exit.
	Trap     bool
	ExitCode int
	Stderr   string
}

func (e *RunError) Error() string {
	d := strings.TrimSpace(e.Stderr)
	kind := "abnormal exit"
	if e.Trap {
		kind = "runtime trap"
	}
	if d == "" {
		return fmt.Sprintf("native binary %s (exit %d)", kind, e.ExitCode)
	}
	return fmt.Sprintf("native binary %s (exit %d): %s", kind, e.ExitCode, d)
}

// Stats counts a store's build outcomes.
type Stats struct {
	Hits     int64 // binary already in the store
	Misses   int64 // toolchain invoked
	Failures int64 // toolchain invocations that failed
	Dedups   int64 // joined another caller's in-flight build
}

// Store is a content-addressed native-artifact cache rooted at one
// directory. All methods are safe for concurrent use; multiple
// processes may share a directory.
type Store struct {
	dir    string
	builds flight.Group[string, *Artifact]

	hits, misses, failures, dedups atomic.Int64
}

// Open creates (if needed) and opens an artifact store. An empty dir
// selects DefaultDir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		dir = DefaultDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("backend: artifact store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the build counters.
func (s *Store) Stats() Stats {
	return Stats{Hits: s.hits.Load(), Misses: s.misses.Load(), Failures: s.failures.Load(), Dedups: s.dedups.Load()}
}

// Artifact is one built native program.
type Artifact struct {
	Key   string        // content address: hex SHA-256 of (toolchain, source)
	Dir   string        // the artifact's directory in the store
	Src   string        // path of the emitted Go source
	Bin   string        // path of the built binary
	Hit   bool          // served from the store without invoking the toolchain
	Build time.Duration // toolchain wall clock (0 on a hit)
}

// KeyOf computes the store address of a generated source: the
// toolchain version is folded in so a Go upgrade rebuilds rather than
// reusing binaries from another compiler.
func KeyOf(goSrc string) string {
	h := sha256.New()
	io.WriteString(h, runtime.Version())
	h.Write([]byte{0})
	io.WriteString(h, goSrc)
	return hex.EncodeToString(h.Sum(nil))
}

// Build ensures a binary for goSrc exists in the store and returns
// its artifact. A present binary is a hit; otherwise the source is
// written and built, deduplicating concurrent builds of the same key.
func (s *Store) Build(ctx context.Context, goSrc string) (*Artifact, error) {
	tool, ok := Toolchain()
	if !ok {
		return nil, fmt.Errorf("backend: no go toolchain on PATH")
	}
	key := KeyOf(goSrc)
	dir := filepath.Join(s.dir, key)
	art := &Artifact{
		Key: key,
		Dir: dir,
		Src: filepath.Join(dir, "main.go"),
		Bin: filepath.Join(dir, "prog"),
	}

	// Fast path: the binary is already on disk.
	if fi, err := os.Stat(art.Bin); err == nil && fi.Mode().IsRegular() {
		s.hits.Add(1)
		art.Hit = true
		return art, nil
	}

	// Deduplicate concurrent builds of the same key.
	built, joined, err := s.builds.Do(ctx, key, func() (*Artifact, error) {
		s.misses.Add(1)
		a, err := s.build(ctx, tool, art, goSrc)
		if err != nil {
			s.failures.Add(1)
		}
		return a, err
	})
	if joined {
		s.dedups.Add(1)
	}
	return built, err
}

// build invokes the toolchain; the binary lands under its final name
// only via rename, so a concurrent or crashed build never exposes a
// partial file. Each call builds in a directory of its own: builds of
// one key by two Stores on one directory (in this process or another)
// never write the same temporary path.
func (s *Store) build(ctx context.Context, tool string, art *Artifact, goSrc string) (*Artifact, error) {
	if err := os.MkdirAll(art.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("backend: %w", err)
	}
	if err := store.AtomicWrite(art.Src, []byte(goSrc)); err != nil {
		return nil, fmt.Errorf("backend: %w", err)
	}
	tmpDir, err := os.MkdirTemp(art.Dir, "prog.tmp*")
	if err != nil {
		return nil, fmt.Errorf("backend: %w", err)
	}
	defer os.RemoveAll(tmpDir)
	tmp := filepath.Join(tmpDir, "prog")
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, tool, "build", "-o", tmp, "main.go")
	// The artifact directory is outside any module on purpose: emitted
	// programs are stdlib-only and build in file mode.
	cmd.Dir = art.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, &BuildError{Diagnostics: stderr.String(), Err: err}
	}
	if err := os.Rename(tmp, art.Bin); err != nil {
		return nil, fmt.Errorf("backend: %w", err)
	}
	art.Build = time.Since(t0)
	return art, nil
}

// BuildProgram emits p as Go (fully bounds-checked) and builds it,
// returning the artifact and the emitted source. An emission failure
// (unsupported construct) is returned as a plain error — a compile
// error without toolchain diagnostics; build failures are *BuildError.
func (s *Store) BuildProgram(ctx context.Context, p *lir.Program) (*Artifact, string, error) {
	return s.BuildProgramBounds(ctx, p, nil)
}

// BuildProgramBounds is BuildProgram with the bounds prover's verdicts
// applied: ProvenSafe accesses compile unchecked (gogen.EmitBounds),
// and because the prover's fingerprint is stamped into the emitted
// source, artifacts built under different verdicts occupy different
// store keys — a proven and an unproven build of the same program
// never alias.
func (s *Store) BuildProgramBounds(ctx context.Context, p *lir.Program, bounds *absint.Result) (*Artifact, string, error) {
	goSrc, err := gogen.EmitBounds(p, bounds)
	if err != nil {
		return nil, "", err
	}
	art, err := s.Build(ctx, goSrc)
	return art, goSrc, err
}

// RunStats reports one native execution.
type RunStats struct {
	// Wall is the whole-process wall clock, startup included.
	Wall time.Duration
	// Compute is the binary's self-reported in-program wall clock
	// (gogen's TimeEnv hook); 0 when the binary predates the hook.
	Compute time.Duration
}

// Run executes the artifact's binary, streaming its stdout to out
// (which receives exactly the bytes the VM would produce). The
// binary always runs with the self-timing hook enabled; the timing
// line is consumed from stderr, never mixed into out.
func (a *Artifact) Run(ctx context.Context, out io.Writer) (*RunStats, error) {
	cmd := exec.CommandContext(ctx, a.Bin)
	cmd.Env = append(os.Environ(), gogen.TimeEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stdout = out
	cmd.Stderr = &stderr
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	compute, rest := parseElapsed(stderr.String())
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, exitError(a.Bin, err, rest)
	}
	return &RunStats{Wall: wall, Compute: compute}, nil
}

// exitError classifies the failure err of the binary bin, whose stderr
// (timing line removed) was stderr: an exit the scaffold chose or a
// signal is a *RunError, anything else the exec error itself.
func exitError(bin string, err error, stderr string) error {
	var xerr *exec.ExitError
	if errors.As(err, &xerr) {
		code := xerr.ExitCode()
		return &RunError{Trap: code == gogen.ExitTrap, ExitCode: code, Stderr: stderr}
	}
	return fmt.Errorf("backend: exec %s: %w", bin, err)
}

// parseElapsed extracts the self-timing line from the binary's stderr,
// returning the measured duration and the remaining diagnostic text.
func parseElapsed(stderr string) (time.Duration, string) {
	var rest []string
	var d time.Duration
	for _, line := range strings.Split(stderr, "\n") {
		if ns, ok := strings.CutPrefix(line, gogen.ElapsedPrefix); ok {
			if v, err := strconv.ParseInt(strings.TrimSpace(ns), 10, 64); err == nil {
				d = time.Duration(v)
				continue
			}
		}
		rest = append(rest, line)
	}
	return d, strings.TrimRight(strings.Join(rest, "\n"), "\n")
}

// SeedFault injects a deterministic miscompile into emitted Go source
// (the first additive operator inside za_main becomes a subtraction),
// for -checkfault-style self-tests proving the differential harness
// catches a code-generator bug. ok is false when the program offers
// no fault site.
func SeedFault(goSrc string) (mutated string, ok bool) {
	at := strings.Index(goSrc, "func za_main(")
	if at < 0 {
		return goSrc, false
	}
	site := strings.Index(goSrc[at:], " + ")
	if site < 0 {
		return goSrc, false
	}
	site += at
	return goSrc[:site] + " - " + goSrc[site+3:], true
}
