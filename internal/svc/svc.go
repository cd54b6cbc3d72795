// Package svc is the zpld compile-and-run service: a long-running HTTP
// front end over the compilation pipeline with a content-addressed
// compilation cache (internal/ccache), a bounded worker pool, request
// deadlines threaded through the driver and both interpreters, and
// built-in metrics.
//
// Endpoints:
//
//	POST /compile  compile a program, serve the artifact from cache
//	POST /run      compile (cached) and execute on the requested
//	               backend: the bytecode VM (default), the distributed
//	               interpreter (dist), or native code (backend "go":
//	               emitted Go built through the content-addressed
//	               artifact store and executed on the host CPU)
//	POST /tune     search for a better fusion/contraction plan (zpltune
//	               as a service; results cached by content address)
//	GET  /metrics  Prometheus text exposition of counters + histograms
//	GET  /healthz  liveness ("ok"; 503 while draining)
//
// A request that fails is answered with the status and kind of its
// failure class — 400 bad_request, 422 compile_error, 500
// runtime_error, 500 internal (a panic in the server, recovered), 504
// timeout, 499 canceled; internal/job holds that table next to the
// CLIs' exit codes, and the rules that make a request a 400. What is
// left is the server's own: 404 unknown endpoint, 405 wrong method, 413
// body over the limit, 429 queue full (back off and retry), 503
// draining.
package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/ccache"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/flight"
	"repro/internal/gogen"
	"repro/internal/job"
	"repro/internal/lint"
	"repro/internal/remark"
	"repro/internal/store"
)

// Config tunes the service; zero values take the documented defaults.
type Config struct {
	Workers        int           // concurrent compiles/runs; default GOMAXPROCS
	QueueDepth     int           // admitted-but-waiting requests; default 4×Workers
	MaxBodyBytes   int64         // request size limit; default 1 MiB
	CacheBytes     int64         // memory-tier budget (compilations and tuned plans); default 64 MiB
	DefaultTimeout time.Duration // per-request deadline when the client sends none; default 30s
	MaxTimeout     time.Duration // cap on client-supplied deadlines; default 5m
	MaxSteps       int64         // execution budget per run; 0 = the VM's default
	DrainTimeout   time.Duration // graceful-shutdown grace; default 10s
	Logs           io.Writer     // JSON-lines request log; nil disables
	ArtifactDir    string        // native-artifact store; "" = backend.DefaultDir

	// CacheDir enables the disk tier of the compilation cache: a
	// content-addressed directory of encoded artifacts that survives
	// restarts (internal/store). "" disables the tier.
	CacheDir string
	// Self and Peers enable the cluster (peer) tier: Peers is the
	// static member list (host:port each), Self this node's own entry
	// in it. With a member list, compilation keys are routed by
	// consistent hashing — each key has one owner node that compiles
	// it once for the whole cluster; artifacts travel by content hash
	// over /store/get and /store/put.
	Self  string
	Peers []string
	// PeerTimeout bounds one peer HTTP attempt; ClaimTTL bounds how
	// long a compile claim shields a key; PeerWait bounds blocking on
	// another node's in-flight compile; MaxPeerBytes caps one
	// transferred artifact. Zero values take internal/store defaults.
	PeerTimeout  time.Duration
	ClaimTTL     time.Duration
	PeerWait     time.Duration
	MaxPeerBytes int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
		// A small machine still faces wide client bursts; keep enough
		// waiting room that a default-config server absorbs a burst of
		// a few dozen before shedding load.
		if c.QueueDepth < 32 {
			c.QueueDepth = 32
		}
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// Request is the JSON body of /compile and /run.
type Request struct {
	// Exactly one of Source (ZA program text) and Bench (a built-in
	// benchmark name: ep, frac, sp, tomcatv, simple, fibro) selects
	// the program.
	Source string `json:"source,omitempty"`
	Bench  string `json:"bench,omitempty"`

	// Backend selects the execution engine: "vm" (default, the
	// bytecode interpreter) or "go" (native code: emitted Go built
	// through the artifact store and executed on the host CPU). A
	// /compile with backend "go" pre-builds the binary so the first
	// /run is a build hit.
	Backend string `json:"backend,omitempty"`

	Level     string           `json:"level,omitempty"`    // default "c2+f3"
	Configs   map[string]int64 `json:"configs,omitempty"`  // config-constant overrides
	Procs     int              `json:"procs,omitempty"`    // >1 inserts communication
	Strategy  string           `json:"strategy,omitempty"` // favor-fusion | favor-comm
	ScalarRep bool             `json:"scalarrep,omitempty"`
	Check     bool             `json:"check,omitempty"`

	// NoProve skips the bounds prover: every array access keeps its
	// runtime check and the response carries no bounds summary.
	NoProve bool `json:"noprove,omitempty"`

	EmitGo bool `json:"emit_go,omitempty"` // include generated Go in the response

	// Lint runs the source-level lint rules (zpllint's) and includes
	// the findings in the response; Remarks includes the optimizer's
	// structured fusion/contraction remarks.
	Lint    bool `json:"lint,omitempty"`
	Remarks bool `json:"remarks,omitempty"`

	// Run options (ignored by /compile). Dist runs the distributed
	// interpreter (requires procs > 1).
	Dist     bool  `json:"dist,omitempty"`
	MaxSteps int64 `json:"max_steps,omitempty"`

	// TimeoutMS overrides the server's default request deadline,
	// capped at Config.MaxTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// CompileResponse is the JSON reply of /compile (and embedded in
// RunResponse).
type CompileResponse struct {
	Key    string `json:"key"`    // content address (hex SHA-256)
	Cached bool   `json:"cached"` // served from the cache
	Dedup  bool   `json:"dedup"`  // joined an in-flight identical compile
	// Tier names the cache tier that served the artifact: "mem",
	// "disk" (rehydrated across a restart), "peer" (fetched from the
	// key's owner node), or "" for a fresh compile.
	Tier       string `json:"tier,omitempty"`
	Plan       string `json:"plan"` // fusion/contraction summary
	NestCount  int    `json:"nest_count"`
	Arrays     int    `json:"arrays"`
	Contracted int    `json:"contracted"`
	GoSource   string `json:"go_source,omitempty"`

	// Artifact is the native store's content address of the built
	// binary (backend "go" only).
	Artifact string `json:"artifact,omitempty"`

	// Lint carries the lint findings when the request set lint; Remarks
	// the optimization remarks when it set remarks.
	Lint    []lint.Finding  `json:"lint,omitempty"`
	Remarks []remark.Remark `json:"remarks,omitempty"`

	// Bounds summarizes the bounds prover
	// (absent when the request set noprove).
	Bounds *BoundsSummary `json:"bounds,omitempty"`

	// Races summarizes the happens-before race & deadlock analyzer
	// (distributed compilations only). A successful compilation always
	// has zero races and deadlocks — the analyzer is a compile gate —
	// so the census reports what was proven, not what slipped through.
	Races *RaceSummary `json:"races,omitempty"`
}

// BoundsSummary is the prover's verdict census for one compilation.
type BoundsSummary struct {
	Sites   int `json:"sites"`
	Proven  int `json:"proven"`
	Unknown int `json:"unknown,omitempty"`
	Unsafe  int `json:"unsafe,omitempty"`
}

// RaceSummary is the happens-before analyzer's verdict census for one
// distributed compilation.
type RaceSummary struct {
	Pairs     int `json:"pairs"`   // conflicting cross-processor access pairs
	Ordered   int `json:"ordered"` // proven happens-before ordered
	Race      int `json:"race,omitempty"`
	Unknown   int `json:"unknown,omitempty"`
	Deadlocks int `json:"deadlocks,omitempty"`
}

// RunResponse is the JSON reply of /run.
type RunResponse struct {
	CompileResponse
	Output      string  `json:"output"`
	Steps       int64   `json:"steps,omitempty"`        // interpreted runs; summed over processors when distributed
	MemoryBytes int64   `json:"memory_bytes,omitempty"` // array storage; halos included when distributed
	Procs       int     `json:"procs,omitempty"`        // distributed runs only
	RunMS       float64 `json:"run_ms"`

	// Native-backend runs only.
	Backend   string  `json:"backend,omitempty"`    // "go"
	BuildHit  bool    `json:"build_hit,omitempty"`  // binary served from the store
	BuildMS   float64 `json:"build_ms,omitempty"`   // artifact lookup/build time
	ComputeMS float64 `json:"compute_ms,omitempty"` // binary's self-timed za_main
}

// ErrorResponse is the JSON reply of every non-2xx outcome.
type ErrorResponse struct {
	Error string `json:"error"`
	// Kind classifies the failure: bad_request, too_large,
	// compile_error, runtime_error, internal, timeout, overloaded,
	// draining.
	Kind string `json:"kind"`
}

// Server is one service instance.
type Server struct {
	cfg      Config
	cache    *store.Tiered  // compilations and tuned plans (mem + disk + peers)
	node     *store.Node    // cluster membership; nil when unclustered
	disk     *store.Disk    // disk tier; nil when CacheDir is unset
	bstore   *backend.Store // native-artifact store; nil when no toolchain
	metrics  *Metrics
	sem      chan struct{} // worker-pool slots
	queue    chan struct{} // admission tickets (workers + waiting)
	draining atomic.Bool
	logMu    chan struct{} // serializes log lines (n=1 semaphore)
	warns    []string      // startup degradations (for logs and /cluster)

	// compileHook, set by tests only, runs first in the compile closure
	// (the leader of a flight): the seam for a compile that panics.
	compileHook func()
}

// New builds a server from cfg (zero value is fully usable).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		metrics: NewMetrics(),
		sem:     make(chan struct{}, cfg.Workers),
		queue:   make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		logMu:   make(chan struct{}, 1),
	}
	if backend.Available() {
		// A store that fails to open (read-only cache dir, say) leaves
		// the native backend unavailable rather than killing the whole
		// service; VM and dist runs are unaffected.
		if st, err := backend.Open(cfg.ArtifactDir); err == nil {
			s.bstore = st
		}
	}

	// Assemble the one tiered store, which holds compilations and tuned
	// plans alike (their keys differ by artifact kind). Every tier degrades
	// independently: a disk that fails to open or a missing member
	// list just drops that tier, never the service.
	if cfg.CacheDir != "" {
		d, err := store.OpenDisk(cfg.CacheDir)
		if err != nil {
			s.warns = append(s.warns, fmt.Sprintf("disk tier disabled: %v", err))
		} else {
			s.disk = d
		}
	}
	mem := ccache.New(cfg.CacheBytes)
	if len(cfg.Peers) > 0 {
		if cfg.Self == "" {
			s.warns = append(s.warns, "peer tier disabled: peers configured without self address")
		} else {
			s.node = store.NewNode(store.NodeConfig{
				Self:     cfg.Self,
				Peers:    cfg.Peers,
				Mem:      mem,
				Disk:     s.disk,
				Timeout:  cfg.PeerTimeout,
				ClaimTTL: cfg.ClaimTTL,
				WaitCap:  cfg.PeerWait,
				MaxBytes: cfg.MaxPeerBytes,
			})
		}
	}
	s.cache = store.NewTiered(mem, s.disk, s.node)
	return s
}

// NativeAvailable reports whether this server can serve backend "go"
// requests (toolchain present and the artifact store opened).
func (s *Server) NativeAvailable() bool { return s.bstore != nil }

// Clustered reports whether the peer tier is active.
func (s *Server) Clustered() bool { return s.node != nil }

// Warnings lists startup degradations (disabled tiers).
func (s *Server) Warnings() []string { return append([]string(nil), s.warns...) }

// Metrics exposes the registry (for embedding and tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// CacheStats exposes the store's counters, aggregated across tiers
// (Hits = any tier, Misses = compiles and searches run here).
func (s *Server) CacheStats() ccache.Stats { return s.cache.Stats() }

// SetDraining flips the drain flag: new work is refused with 503 while
// in-flight requests finish.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compile", func(w http.ResponseWriter, r *http.Request) { s.serve(w, r, false) })
	mux.HandleFunc("/run", func(w http.ResponseWriter, r *http.Request) { s.serve(w, r, true) })
	mux.HandleFunc("/tune", s.handleTune)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/cluster", s.handleCluster)
	if s.node != nil {
		mux.HandleFunc("/store/get", s.node.ServeGet)
		mux.HandleFunc("/store/put", s.node.ServePut)
	}
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	io.WriteString(w, s.metrics.Render(s.cache.Stats()))
	io.WriteString(w, RenderStoreMetrics(s.cache.TierStats(), s.node))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
	// One compact cluster line for passive probes; /cluster has the
	// full JSON picture.
	if s.node != nil {
		fmt.Fprintf(w, "cluster self=%s members=%d\n", s.node.Self(), len(s.node.Members()))
	}
	ts := s.cache.TierStats()
	fmt.Fprintf(w, "store mem=%d disk=%d\n", ts.Mem.Entries, ts.Disk.Entries)
}

// fail writes the error reply.
func (s *Server) fail(w http.ResponseWriter, status int, kind, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorResponse{Error: msg, Kind: kind})
}

// admit is the life every work request shares: refuse while draining,
// require POST, decode the JSON body into req (strictly, under the size
// cap), validate it with resolve — all before the request may occupy a
// queue ticket — then take the ticket, start the deadline (timeoutMS
// points into req, so it is read after decoding) and wait for a worker
// slot. work runs on that slot; it writes its own success reply and
// returns the cache outcome for the log, or an error that job.Classify
// turns into the status and kind of the failure reply. An expired or
// cancelled request context decides the class whatever work returned —
// unless work panicked: that is recovered here (net/http would drop the
// connection with nothing sent, and the deferred accounting below would
// record a 200), counted, answered as a 500 of kind internal like the
// requests that had joined its flight, and logged with its stack. The
// ticket and the slot are released by defer either way.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, endpoint string, req any, timeoutMS *int64,
	resolve func() error, work func(ctx context.Context) (outcome string, err error)) {
	t0 := time.Now()
	status, kind, outcome := http.StatusOK, "", ""
	var stack []byte
	defer func() {
		d := time.Since(t0)
		s.metrics.Request(endpoint, status, d)
		s.logRequest(r, endpoint, status, kind, outcome, stack, d)
	}()
	reject := func(st int, k, msg string) {
		status, kind = st, k
		s.fail(w, st, k, msg)
	}
	classed := func(err error) {
		var pe *flight.PanicError
		if errors.As(err, &pe) {
			stack = pe.Stack
		}
		c := job.Classify(err)
		reject(c.HTTPStatus(), c.Kind(), err.Error())
	}

	if s.draining.Load() {
		s.metrics.Drained()
		reject(http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	if r.Method != http.MethodPost {
		reject(http.StatusMethodNotAllowed, "bad_request", "POST a JSON request body")
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			reject(http.StatusRequestEntityTooLarge, "too_large", fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		reject(http.StatusBadRequest, "bad_request", "bad request JSON: "+err.Error())
		return
	}
	if err := resolve(); err != nil {
		classed(err)
		return
	}

	// Admission: a full queue means the pool plus the waiting room are
	// saturated — shed load instead of stacking goroutines.
	select {
	case s.queue <- struct{}{}:
	default:
		s.metrics.Rejected()
		reject(http.StatusTooManyRequests, "overloaded", fmt.Sprintf("queue full (%d waiting)", cap(s.queue)))
		return
	}
	defer func() { <-s.queue }()

	// Per-request deadline, threaded through compile and run.
	// The cap is compared in milliseconds, before any conversion: a
	// client's huge value as a Duration would overflow into a deadline
	// already past.
	timeout := s.cfg.DefaultTimeout
	if *timeoutMS > 0 {
		timeout = s.cfg.MaxTimeout
		if *timeoutMS < s.cfg.MaxTimeout.Milliseconds() {
			timeout = time.Duration(*timeoutMS) * time.Millisecond
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// A worker-pool slot; waiting counts against the deadline.
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		classed(fmt.Errorf("deadline expired while queued: %w", ctx.Err()))
		return
	}
	defer func() { <-s.sem }()
	s.metrics.IncInflight()
	defer s.metrics.DecInflight()

	var err error
	func() {
		defer func() {
			if v := recover(); v != nil {
				s.metrics.Panicked()
				err = flight.AsPanic(v)
			}
		}()
		outcome, err = work(ctx)
	}()
	if err != nil {
		if cerr := ctx.Err(); cerr != nil && !errors.Is(err, cerr) {
			err = fmt.Errorf("%w: %w", err, cerr)
		}
		classed(err)
	}
}

// serve handles /compile (run=false) and /run (run=true).
func (s *Server) serve(w http.ResponseWriter, r *http.Request, run bool) {
	endpoint := "/compile"
	if run {
		endpoint = "/run"
	}
	var req Request
	var src string
	var opt driver.Options
	s.admit(w, r, endpoint, &req, &req.TimeoutMS,
		func() (err error) {
			src, opt, err = s.resolve(&req, run)
			return err
		},
		func(ctx context.Context) (string, error) {
			return s.compileAndRun(ctx, w, &req, src, opt, run)
		})
}

// compileAndRun is the work of /compile and /run on an admitted request.
func (s *Server) compileAndRun(ctx context.Context, w http.ResponseWriter, req *Request,
	src string, opt driver.Options, run bool) (string, error) {
	akind := ccache.ArtifactIR
	if opt.Backend.Native() {
		akind = ccache.ArtifactNative
	}
	key := ccache.KeyOfKind(src, opt, akind)
	entry, res, err := s.cache.GetOrCompute(ctx, key, func() (*ccache.Entry, error) {
		if s.compileHook != nil {
			s.compileHook()
		}
		hooked := opt
		start, end := s.metrics.Phases.StartEnd()
		hooked.Hooks = driver.Hooks{PhaseStart: start, PhaseEnd: end}
		c, err := job.Compile(ctx, src, hooked)
		if err != nil {
			return nil, err
		}
		// The memory tier keeps what an entry rehydrated from the disk
		// or peer tier holds, plus the proofs: Plan and Meta are taken
		// from c here, and the plan, sema info, comm result and race
		// analysis would be heap every GC marks.
		remarks := c.Plan.Remarks()
		e := &ccache.Entry{Kind: akind, Source: src, Comp: &driver.Compilation{LIR: c.LIR, Bounds: c.Bounds},
			Plan: planSummary(c), Meta: metaOf(c, remarks)}
		// The generated Go rides in the artifact so emit_go requests
		// hit too; gogen cannot emit distributed programs.
		if opt.Comm == nil {
			start("gogen")
			goSrc, err := gogen.EmitBounds(c.LIR, c.Bounds)
			end("gogen")
			if err == nil {
				e.GoSrc = goSrc
			} else if opt.Backend.Native() {
				// On the VM path a failed emission only degrades
				// emit_go; on the native path there is nothing to run.
				return nil, &job.CompileError{Err: err}
			}
		}
		if opt.Backend.Native() {
			start("backend_build")
			art, berr := s.bstore.Build(ctx, e.GoSrc)
			end("backend_build")
			if berr != nil {
				// *backend.BuildError classifies as a compile error
				// (422) with the toolchain diagnostics in the body.
				s.metrics.BackendBuild("error")
				return nil, berr
			}
			if art.Hit {
				s.metrics.BackendBuild("hit")
			} else {
				s.metrics.BackendBuild("miss")
			}
			e.BinKey = art.Key
		}
		// Count each plan's decisions once, here, where the compile ran;
		// cache hits would multiply them by request rate.
		s.metrics.Remarks(remark.CountByKind(remarks))
		if c.Bounds != nil {
			s.metrics.Bounds(c.Bounds)
		}
		if c.Races != nil {
			s.metrics.Races(c.Races)
		}
		return e, nil
	})
	lookup := res.Outcome
	if err != nil {
		return "", err
	}

	cresp := CompileResponse{
		Key:      entry.Key.String(),
		Cached:   lookup == ccache.Hit,
		Dedup:    lookup == ccache.Dedup,
		Tier:     res.Tier,
		Plan:     entry.Plan,
		Artifact: entry.BinKey,
	}
	// The response metadata comes from the serializable Meta, never
	// from Comp.AIR/Comp.Plan: an entry rehydrated from the disk or
	// peer tier carries only the executable LIR plus Meta.
	if m := entry.Meta; m != nil {
		cresp.NestCount = m.NestCount
		cresp.Arrays = m.Arrays
		cresp.Contracted = m.Contracted
		if b := m.Bounds; b != nil {
			cresp.Bounds = &BoundsSummary{
				Sites: b.Sites, Proven: b.Proven,
				Unknown: b.Unknown, Unsafe: b.Unsafe,
			}
		}
		if rr := m.Races; rr != nil {
			cresp.Races = &RaceSummary{
				Pairs: rr.Pairs, Ordered: rr.Ordered,
				Race: rr.Race, Unknown: rr.Unknown, Deadlocks: rr.Deadlocks,
			}
		}
	}
	if req.EmitGo {
		cresp.GoSource = entry.GoSrc
	}
	if req.Remarks && entry.Meta != nil {
		if uerr := json.Unmarshal(entry.Meta.RemarksJSON, &cresp.Remarks); uerr != nil {
			cresp.Remarks = nil
		}
	}
	if req.Lint {
		name := "source"
		if req.Bench != "" {
			name = "bench:" + req.Bench
		}
		res, lerr := lint.Run(src, lint.Options{File: name, Level: opt.Level, Configs: req.Configs})
		if lerr != nil {
			// The main compile succeeded, so a sequential lint compile
			// cannot fail; surface the inconsistency rather than hide it.
			return "", &job.CompileError{Err: fmt.Errorf("lint: %w", lerr)}
		}
		cresp.Lint = res.Findings
		s.metrics.Lint(res.Findings)
	}

	w.Header().Set("Content-Type", "application/json")
	if !run {
		json.NewEncoder(w).Encode(cresp)
		return lookup.String(), nil
	}
	resp, err := s.execute(ctx, entry, req.spec().RunSpec())
	if err != nil {
		return lookup.String(), err
	}
	resp.CompileResponse = cresp
	json.NewEncoder(w).Encode(resp)
	return lookup.String(), nil
}

// execute runs a cached compilation as rs asks. A locally compiled
// entry carries its bounds proofs into the interpreters; one rehydrated
// from the disk or peer tier (proofs do not travel) stays checked. A
// native entry's binary is re-derived from the store by its cached Go
// source — normally an instant hit, and a rebuild if the store
// directory was wiped underneath a live entry.
func (s *Server) execute(ctx context.Context, entry *ccache.Entry, rs job.RunSpec) (*RunResponse, error) {
	if rs.MaxSteps <= 0 {
		rs.MaxSteps = s.cfg.MaxSteps
	}
	rs.GoSrc = entry.GoSrc
	var out bytes.Buffer
	res, err := job.Run(ctx, entry.Comp, rs, &out, s.bstore)
	if res.Art != nil {
		s.metrics.BackendRun(string(rs.Backend), err == nil)
	}
	if rs.Backend.Native() && res.Art == nil {
		return nil, err // the build failed: nothing ran
	}
	s.metrics.Phases.Observe("run", res.Wall)
	if err != nil {
		return nil, err
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	resp := &RunResponse{Output: out.String(), Steps: res.Steps, MemoryBytes: res.MemoryBytes, RunMS: ms(res.Wall)}
	if rs.Dist {
		resp.Procs = rs.Procs
	}
	if res.Art != nil {
		resp.Backend = string(rs.Backend)
		resp.BuildHit, resp.BuildMS, resp.ComputeMS = res.Art.Hit, ms(res.BuildWall), ms(res.Compute)
	}
	return resp, nil
}

// spec is the request as the one resolver and the one executor see it.
func (req *Request) spec() *job.Spec {
	spec := &job.Spec{Source: req.Source, Bench: req.Bench, Level: req.Level, Backend: req.Backend,
		Configs: req.Configs, Procs: req.Procs, Strategy: req.Strategy, ScalarRep: req.ScalarRep,
		Check: req.Check, NoProve: req.NoProve, Dist: req.Dist, MaxSteps: req.MaxSteps}
	if req.EmitGo {
		spec.Sequential = "emit_go"
	}
	return spec
}

// resolve validates the request through the one resolver and adds the
// two rules only a server has: dist needs an endpoint that runs, and
// the native backend needs this server's artifact store.
func (s *Server) resolve(req *Request, run bool) (string, driver.Options, error) {
	src, opt, err := req.spec().Resolve()
	switch {
	case err != nil:
	case req.Dist && !run:
		err = job.Usagef("{dist} applies to /run only")
	case opt.Backend.Native() && s.bstore == nil:
		err = job.Usagef("native backend unavailable: the artifact store did not open")
	}
	return src.Text, opt, err
}

// metaOf derives the serializable response metadata from a fresh
// compilation and its rendered remarks — the projection that travels
// with the entry through the disk and peer tiers, where the deep IR
// structures do not.
func metaOf(c *driver.Compilation, remarks []remark.Remark) *ccache.Meta {
	counts := core.CountStaticArrays(c.AIR, c.Plan)
	m := &ccache.Meta{
		NestCount:  c.LIR.CountNests(),
		Arrays:     counts.Before(),
		Contracted: counts.ContractedCompiler + counts.ContractedUser,
	}
	if b := c.Bounds; b != nil {
		m.Bounds = &ccache.BoundsMeta{
			Sites: len(b.Sites), Proven: b.NumProven,
			Unknown: b.NumUnknown, Unsafe: b.NumUnsafe,
		}
	}
	if rr := c.Races; rr != nil {
		m.Races = &ccache.RaceMeta{
			Pairs: len(rr.Pairs), Ordered: rr.NumOrdered,
			Race: rr.NumRace, Unknown: rr.NumUnknown, Deadlocks: len(rr.Deadlocks),
		}
	}
	if buf, err := json.Marshal(remarks); err == nil {
		m.RemarksJSON = buf
	}
	return m
}

// planSummary renders the experiment-ready plan metadata stored with
// the artifact (mirrors zplc -emit plan).
func planSummary(c *driver.Compilation) string {
	var b strings.Builder
	counts := core.CountStaticArrays(c.AIR, c.Plan)
	fmt.Fprintf(&b, "program %s at %s\n", c.AIR.Name, c.Plan.Level)
	fmt.Fprintf(&b, "static arrays: %d (%d compiler, %d user); contracted: %d\n",
		counts.Before(), counts.TotalCompiler, counts.TotalUser,
		counts.ContractedCompiler+counts.ContractedUser)
	fmt.Fprintf(&b, "loop nests after fusion: %d\n", c.LIR.CountNests())
	if c.Comm != nil {
		fmt.Fprintf(&b, "communication: %d inserted, %d eliminated\n", c.Comm.Inserted, c.Comm.Eliminated)
	}
	return b.String()
}

// logRequest appends one JSON line to the request log.
func (s *Server) logRequest(r *http.Request, endpoint string, status int, kind, outcome string, stack []byte, d time.Duration) {
	if s.cfg.Logs == nil {
		return
	}
	line := struct {
		Time     string  `json:"time"`
		Remote   string  `json:"remote"`
		Endpoint string  `json:"endpoint"`
		Status   int     `json:"status"`
		Kind     string  `json:"kind,omitempty"`
		Cache    string  `json:"cache,omitempty"`
		Stack    string  `json:"stack,omitempty"` // of the panic behind a 500 internal
		MS       float64 `json:"ms"`
	}{
		Time:     time.Now().UTC().Format(time.RFC3339Nano),
		Remote:   r.RemoteAddr,
		Endpoint: endpoint,
		Status:   status,
		Kind:     kind,
		Cache:    outcome,
		Stack:    string(stack),
		MS:       float64(d) / float64(time.Millisecond),
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return
	}
	buf = append(buf, '\n')
	s.logMu <- struct{}{}
	s.cfg.Logs.Write(buf)
	<-s.logMu
}

// ServeListener runs the HTTP server on l until ctx is cancelled, then
// drains gracefully: the drain flag flips (healthz 503, new compile/run
// requests refused), the listener closes, and in-flight requests get
// DrainTimeout to finish before the server gives up on them.
//
// A connection that was dialled but has not yet sent a byte of a
// request (StateNew — a peer's pooled dial, say) carries no work, yet
// http.Server.Shutdown counts it as active for its first 5 s. Those are
// tracked here and closed when the drain begins, so a clustered node
// exits promptly.
func (s *Server) ServeListener(ctx context.Context, l net.Listener) error {
	var mu sync.Mutex
	silent := map[net.Conn]bool{}
	draining := false
	hs := &http.Server{Handler: s.Handler(), ConnState: func(c net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case st != http.StateNew:
			delete(silent, c)
		case draining:
			c.Close()
		default:
			silent[c] = true
		}
	}}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.SetDraining(true)
	mu.Lock()
	draining = true
	for c := range silent {
		c.Close()
	}
	mu.Unlock()
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return hs.Shutdown(drainCtx)
}
