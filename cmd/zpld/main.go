// Command zpld is the long-running compile-and-run daemon: an HTTP
// service over the compilation pipeline with a content-addressed
// compilation cache, a bounded worker pool, per-request deadlines, and
// built-in metrics. See internal/svc for the endpoint and status-code
// reference, and cmd/zplload for the matching load generator.
//
// Usage:
//
//	zpld [flags]
//
//	-addr a            listen address (default 127.0.0.1:8348; use
//	                   127.0.0.1:0 to pick a free port — the chosen
//	                   address is printed to stderr)
//	-workers n         concurrent compiles/runs (default: GOMAXPROCS);
//	                   a native run's child splits a large nest over
//	                   the GOMAXPROCS of its environment (DESIGN.md §10)
//	-queue n           waiting requests beyond the pool before 429s
//	-cache-bytes n     memory-tier budget: compilations and /tune's
//	                   tuned plans (default 64 MiB)
//	-max-body n        request-size limit in bytes (default 1 MiB)
//	-timeout d         default per-request deadline (default 30s)
//	-max-timeout d     cap on client-supplied deadlines (default 5m)
//	-maxsteps n        execution budget per run; 0 = the VM's default (1e10)
//	-artifact-dir d    native-artifact store for backend "go" requests
//	                   (default $ZPL_ARTIFACT_DIR, else the user cache
//	                   directory; requests are refused with 400 when the
//	                   host has no go toolchain)
//	-drain d           graceful-shutdown grace period (default 10s)
//	-quiet             suppress the JSON request log on stderr
//
// Cluster flags (see DESIGN.md §17):
//
//	-cache-dir d       disk tier: content-addressed artifact directory
//	                   that survives restarts (default $ZPL_CACHE_DIR;
//	                   "" disables the tier). Safe to share between the
//	                   processes of one host.
//	-self a            this node's address in the -peers list
//	-peers a,b,c       static cluster member list (host:port each).
//	                   Compilation keys are routed by consistent
//	                   hashing: each key has one owner node, compiles
//	                   once cluster-wide, and artifacts travel by
//	                   content hash over /store/get and /store/put.
//	-peer-timeout d    per-attempt peer call deadline (default 2s)
//	-claim-ttl d       how long a compile claim shields a key (default 30s)
//	-peer-wait d       cap on waiting for a peer's in-flight compile
//	                   (default 10s)
//	-max-peer-bytes n  largest artifact accepted from a peer (default 32 MiB)
//
// SIGINT/SIGTERM drain the server: the health check flips to 503, new
// requests are refused, and in-flight work gets the -drain grace.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/store"
	"repro/internal/svc"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8348", "listen address")
	workers := flag.Int("workers", 0, "concurrent compiles/runs (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "waiting requests beyond the pool (0 = 4x workers)")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "memory-tier budget in bytes (compilations and tuned plans)")
	maxBody := flag.Int64("max-body", 1<<20, "request-size limit in bytes")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "cap on client-supplied deadlines")
	maxSteps := flag.Int64("maxsteps", 0, "execution budget per run (0 = the VM's default, 1e10)")
	artifactDir := flag.String("artifact-dir", "", "native-artifact store for backend \"go\" (\"\" = default location)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown grace period")
	quiet := flag.Bool("quiet", false, "suppress the JSON request log")
	cacheDir := flag.String("cache-dir", os.Getenv(store.DirEnv), "disk cache tier directory (\"\" disables)")
	self := flag.String("self", "", "this node's address in the -peers list")
	peers := flag.String("peers", "", "comma-separated cluster member list (host:port each)")
	peerTimeout := flag.Duration("peer-timeout", 0, "per-attempt peer call deadline (0 = 2s)")
	claimTTL := flag.Duration("claim-ttl", 0, "compile-claim lease duration (0 = 30s)")
	peerWait := flag.Duration("peer-wait", 0, "cap on waiting for a peer's in-flight compile (0 = 10s)")
	maxPeerBytes := flag.Int64("max-peer-bytes", 0, "largest artifact accepted from a peer (0 = 32 MiB)")
	flag.Parse()

	cfg := svc.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheBytes:     *cacheBytes,
		MaxBodyBytes:   *maxBody,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxSteps:       *maxSteps,
		ArtifactDir:    *artifactDir,
		DrainTimeout:   *drain,
		CacheDir:       *cacheDir,
		Self:           *self,
		PeerTimeout:    *peerTimeout,
		ClaimTTL:       *claimTTL,
		PeerWait:       *peerWait,
		MaxPeerBytes:   *maxPeerBytes,
	}
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			cfg.Peers = append(cfg.Peers, p)
		}
	}
	if !*quiet {
		cfg.Logs = os.Stderr
	}
	s := svc.New(cfg)
	if !s.NativeAvailable() {
		fmt.Fprintln(os.Stderr, "zpld: native backend unavailable (no go toolchain); backend \"go\" requests will be refused")
	}
	for _, w := range s.Warnings() {
		fmt.Fprintln(os.Stderr, "zpld: warning:", w)
	}
	if s.Clustered() {
		fmt.Fprintf(os.Stderr, "zpld: cluster self=%s members=%d\n", *self, len(cfg.Peers))
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zpld:", err)
		os.Exit(1)
	}
	// Announce the bound address (port 0 resolves here) on a stable,
	// parseable line; tests and scripts depend on it.
	fmt.Fprintf(os.Stderr, "zpld: listening on %s\n", l.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	err = s.ServeListener(ctx, l)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "zpld:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "zpld: drained, bye")
}
