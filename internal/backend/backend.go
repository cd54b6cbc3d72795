// Package backend executes compiled programs natively: it takes the
// Go source the gogen emitter produces, builds it with the host
// toolchain's compile and link into a content-addressed artifact
// store, and runs the binary — the production execution path the
// bytecode VM exists to cross-validate. A binary runs once per process
// (Artifact.Run: zplrun, zpld), or stays resident and runs on command
// over state it shares with this process (Artifact.Start, Worker: the
// lazy runtime).
//
// The store is keyed by the SHA-256 of the generated source plus the
// version of the go tool on PATH, so identical emissions (the same
// program at the same plan, or the same request repeated) are build
// cache hits: the binary on disk is reused without compiling or
// linking anything. Builds are deduplicated in-process
// (internal/flight: concurrent requests for one key share a single
// build) and written atomically (temp-file + rename), so several
// processes may share one store directory.
//
// Failure classification mirrors the repo's exit-code discipline:
//
//   - a toolchain failure building emitted code is a *compile* error
//     and surfaces as *BuildError naming the failing step, with the
//     full diagnostics (zplrun exit 3, zpld HTTP 422) — generated code
//     failing to build is a code-generator bug, not a runtime fault;
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

// goTool is what the go tool on PATH tells a build, asked once per
// process: the release that builds (the artifact key's toolchain), the
// directory of its compile and link, and, from the first store miss
// on, the importcfg that names the export data of every package
// gogen.Imports lists. The importcfg is kept as text, never as a path:
// a file would live in one store's directory and go with it.
var goTool struct {
	mu      sync.Mutex
	version string // GOVERSION
	toolDir string // GOTOOLDIR

	cfgMu     sync.Mutex // held while listing: a hit never waits for it
	importcfg string
}

// release returns the go tool's GOVERSION and GOTOOLDIR, asking it once.
// The go commands run in dir, a store's directory, outside any module
// the caller's working directory may be in.
func release(ctx context.Context, tool, dir string) (version, toolDir string, err error) {
	goTool.mu.Lock()
	defer goTool.mu.Unlock()
	if goTool.version == "" {
		out, err := run(ctx, dir, nil, "go env", tool, "env", "GOVERSION", "GOTOOLDIR")
		if err != nil {
			return "", "", err
		}
		version, toolDir, _ := strings.Cut(strings.TrimSpace(out), "\n")
		if lang(version) == "" || toolDir == "" {
			return "", "", fmt.Errorf("backend: go env GOVERSION GOTOOLDIR printed %q", out)
		}
		goTool.version, goTool.toolDir = version, toolDir
	}
	return goTool.version, goTool.toolDir, nil
}

// importcfg returns the importcfg, listing it on first use with the
// one go command that fills the build cache with gogen.Imports' export
// data (go build fills it the same way), the kernel package's included:
// the command runs in the kernel's module (kernelModule, in kernelDir),
// and builds the package there on a build cache miss. dir is the
// store's directory. stale is an importcfg a build found naming a file
// that is gone: if it is still the one kept, it is listed again.
func importcfg(ctx context.Context, tool, dir, stale string) (string, error) {
	goTool.cfgMu.Lock()
	defer goTool.cfgMu.Unlock()
	if goTool.importcfg == "" || goTool.importcfg == stale {
		mod, err := kernelModule(kernelDir(dir))
		if err != nil {
			return "", err
		}
		args := append([]string{"list", "-export", "-deps", "-f", "{{if .Export}}packagefile {{.ImportPath}}={{.Export}}{{end}}"}, gogen.Imports[:]...)
		out, err := run(ctx, mod, moduleEnv, "go list", tool, args...)
		if err != nil {
			return "", err
		}
		goTool.importcfg = out
	}
	return goTool.importcfg, nil
}

// gone reports whether the importcfg cfg names a package file that no
// longer exists: the build cache was trimmed or cleaned under it.
func gone(cfg string) bool {
	for _, line := range strings.Split(cfg, "\n") {
		if pkg, ok := strings.CutPrefix(line, "packagefile "); ok {
			_, file, _ := strings.Cut(pkg, "=")
			if _, err := os.Stat(file); err != nil {
				return true
			}
		}
	}
	return false
}

// moduleEnv makes a go command resolve packages in the module of its
// directory whatever the caller's environment says.
var moduleEnv = []string{"GOWORK=off", "GO111MODULE=on"}

// lang is the -lang a toolchain of the given GOVERSION compiles
// emitted code at: go1.24 for go1.24.0, go1.24rc1 or "devel
// go1.24-abcdef ..."; "" when the version names none.
func lang(version string) string {
	_, minor, _ := strings.Cut(version, "go1.")
	n := len(minor) - len(strings.TrimLeft(minor, "0123456789"))
	if n == 0 {
		return ""
	}
	return "go1." + minor[:n]
}

// run runs one toolchain step in dir, with env added to this process's
// environment, and returns its stdout. A failure
// is a *BuildError carrying everything the step printed (compile writes
// its diagnostics to stdout), or the context's error when the context
// ended: the child is killed and reaped before run returns.
func run(ctx context.Context, dir string, env []string, step, name string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir, cmd.Env = dir, append(os.Environ(), env...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return "", ctxErr
		}
		return "", &BuildError{Step: step, Diagnostics: stdout.String() + stderr.String(), Err: err}
	}
	return stdout.String(), nil
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

// BuildError is a toolchain failure building emitted Go: a compile
// error in the repo's classification, naming the step that failed and
// carrying the full diagnostics so the code-generator bug is debuggable
// from the report alone.
type BuildError struct {
	Step        string // compile, link, or the go command that probes the toolchain
	Diagnostics string // everything the step printed
	Err         error  // the underlying exec error
}

func (e *BuildError) Error() string {
	d := strings.TrimSpace(e.Diagnostics)
	if d == "" {
		return fmt.Sprintf("building emitted code: %s failed: %v", e.Step, e.Err)
	}
	return fmt.Sprintf("building emitted code: %s failed: %v\n%s", e.Step, e.Err, d)
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
	Build time.Duration // toolchain wall clock (0 on a hit; a process's first miss includes listing the importcfg)
}

// KeyOf computes the store address of a generated source built by the
// go tool of the given GOVERSION: the version is folded in so upgrading
// the toolchain on PATH rebuilds rather than reusing binaries from
// another compiler.
func KeyOf(goVersion, goSrc string) string {
	h := sha256.New()
	io.WriteString(h, goVersion)
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
	version, toolDir, err := release(ctx, tool, s.dir)
	if err != nil {
		return nil, err
	}
	key := KeyOf(version, goSrc)
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
		a, err := s.build(ctx, tool, toolDir, version, art, goSrc)
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

// build runs the two steps go build would: compile main.go, then link
// the binary without its symbol table and DWARF. The binary lands under
// its final name only via rename, so a concurrent or crashed build
// never exposes a partial file. Each call builds in a directory of its
// own: builds of one key by two Stores on one directory (in this
// process or another) never write the same temporary path.
func (s *Store) build(ctx context.Context, tool, toolDir, version string, art *Artifact, goSrc string) (*Artifact, error) {
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
	t0 := time.Now()
	cfg, err := importcfg(ctx, tool, s.dir, "")
	if err != nil {
		return nil, err
	}
	bin, err := compileLink(ctx, toolDir, version, art.Dir, tmpDir, cfg)
	if err != nil && ctx.Err() == nil && gone(cfg) {
		// The build cache lost a package file: list the importcfg
		// again and build once more.
		if cfg, err = importcfg(ctx, tool, s.dir, cfg); err == nil {
			bin, err = compileLink(ctx, toolDir, version, art.Dir, tmpDir, cfg)
		}
	}
	if err != nil {
		return nil, err
	}
	if err := os.Rename(bin, art.Bin); err != nil {
		return nil, fmt.Errorf("backend: %w", err)
	}
	art.Build = time.Since(t0)
	return art, nil
}

// compileLink builds dir/main.go with the toolchain of the given
// GOVERSION into a binary in tmp, against the importcfg cfg, and
// returns the binary's path. An emitted program imports the standard
// library and the kernel package, both in cfg, so main.go is the whole
// package; -trimpath makes every
// position "main.go:line:col", the diagnostics' and the binary's alike.
func compileLink(ctx context.Context, toolDir, version, dir, tmp, cfg string) (string, error) {
	cfgFile, obj, bin := filepath.Join(tmp, "importcfg"), filepath.Join(tmp, "main.a"), filepath.Join(tmp, "prog")
	if err := os.WriteFile(cfgFile, []byte(cfg), 0o644); err != nil {
		return "", fmt.Errorf("backend: %w", err)
	}
	for _, step := range [][]string{
		{"compile", "-o", obj, "-p", "main", "-lang=" + lang(version), "-complete", "-trimpath", dir + "=>", "-importcfg", cfgFile, "-pack", "main.go"},
		{"link", "-s", "-w", "-buildmode=exe", "-importcfg", cfgFile, "-o", bin, obj},
	} {
		if _, err := run(ctx, dir, nil, step[0], filepath.Join(toolDir, step[0]), step[1:]...); err != nil {
			return "", err
		}
	}
	return bin, nil
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
	// System is the kernel CPU time the process used: page faults,
	// mappings and writes. The kernel accounts it by sampling, so a run
	// shorter than a tick may report 0.
	System time.Duration
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
	return &RunStats{Wall: wall, Compute: compute, System: cmd.ProcessState.SystemTime()}, nil
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
// (the first additive operator inside za_main becomes a subtraction, or,
// when za_main has none because its nests run strips, the strips'
// addition kernel becomes subtraction's), for -checkfault-style
// self-tests proving the differential harness catches a code-generator
// bug. ok is false when the program offers no fault site.
func SeedFault(goSrc string) (mutated string, ok bool) {
	at := strings.Index(goSrc, "func za_main(")
	if at < 0 {
		return goSrc, false
	}
	if site := strings.Index(goSrc[at:], " + "); site >= 0 {
		site += at
		return goSrc[:site] + " - " + goSrc[site+3:], true
	}
	add := `&kernel.Lookup("+", 2).Packed`
	if strings.Contains(goSrc, add) {
		sub := `kernel.Lookup("-", 2).Packed`
		return strings.Replace(goSrc, add, "&kernel.Kernels{VV: "+sub+".VV, VU: "+sub+".VU, UV: "+sub+".UV, Fold: "+add[1:]+".Fold}", 1), true
	}
	return goSrc, false
}
