package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/difftest"
	"repro/internal/tune"
)

func heatSource(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../testdata/heat.za")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, req Request) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestCompileCachesAndRunsBitIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := heatSource(t)

	var first RunResponse
	status, body := post(t, ts.URL+"/run", Request{Source: src})
	if status != http.StatusOK {
		t.Fatalf("first run: HTTP %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first request reported cached")
	}
	if !strings.Contains(first.Output, "heat =") {
		t.Errorf("run output missing: %q", first.Output)
	}
	if first.Steps == 0 || first.MemoryBytes == 0 {
		t.Errorf("run stats empty: %+v", first)
	}

	var second RunResponse
	status, body = post(t, ts.URL+"/run", Request{Source: src})
	if status != http.StatusOK {
		t.Fatalf("second run: HTTP %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second identical request missed the cache")
	}
	// Bit-identical output between the uncached and cached paths: the
	// artifact is shared, the execution deterministic.
	if first.Output != second.Output {
		t.Errorf("cached output diverged: %q vs %q", first.Output, second.Output)
	}
	if first.Key != second.Key {
		t.Errorf("keys differ: %s vs %s", first.Key, second.Key)
	}
	if st := s.CacheStats(); st.Misses != 1 || st.Hits < 1 {
		t.Errorf("cache stats: %+v", st)
	}

	// emit_go is served from the same cached artifact.
	var cr CompileResponse
	status, body = post(t, ts.URL+"/compile", Request{Source: src, EmitGo: true})
	if status != http.StatusOK {
		t.Fatalf("compile: HTTP %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if !cr.Cached || !strings.Contains(cr.GoSource, "package main") {
		t.Errorf("emit_go from cache failed: cached=%t len=%d", cr.Cached, len(cr.GoSource))
	}
	if cr.Plan == "" || cr.NestCount == 0 {
		t.Errorf("plan metadata missing: %+v", cr)
	}
}

// TestStatusMapping drives every distinct error path to its distinct
// status code.
func TestStatusMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 4096})

	check := func(name string, wantStatus int, wantKind string, req Request) {
		t.Helper()
		status, body := post(t, ts.URL+"/run", req)
		if status != wantStatus {
			t.Errorf("%s: HTTP %d, want %d (%s)", name, status, wantStatus, body)
			return
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Errorf("%s: bad error body %q", name, body)
			return
		}
		if er.Kind != wantKind {
			t.Errorf("%s: kind %q, want %q", name, er.Kind, wantKind)
		}
	}

	check("compile error", http.StatusUnprocessableEntity, "compile_error",
		Request{Source: "program junk; not a program"})
	check("runtime error", http.StatusInternalServerError, "runtime_error",
		Request{Bench: "fibro", Configs: map[string]int64{"n": 16}, MaxSteps: 10})
	check("timeout", http.StatusGatewayTimeout, "timeout",
		Request{Source: bigProgram(), TimeoutMS: 1})
	check("no source", http.StatusBadRequest, "bad_request", Request{})
	check("both sources", http.StatusBadRequest, "bad_request",
		Request{Source: "x", Bench: "fibro"})
	check("unknown bench", http.StatusBadRequest, "bad_request", Request{Bench: "bogus"})
	check("bad level", http.StatusBadRequest, "bad_request",
		Request{Bench: "fibro", Level: "O9"})
	check("dist without procs", http.StatusBadRequest, "bad_request",
		Request{Bench: "fibro", Dist: true})
	for name, body := range illegalSpecs(t, "run") {
		var req Request
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check("illegal spec "+name, http.StatusBadRequest, "bad_request", req)
	}

	// Oversized body → 413.
	status, body := post(t, ts.URL+"/compile",
		Request{Source: "program p; " + strings.Repeat("-- pad\n", 4096)})
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: HTTP %d (%s)", status, body)
	}

	// Wrong method → 405; unknown JSON field → 400.
	resp, err := http.Get(ts.URL + "/compile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /compile: HTTP %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/compile", "application/json",
		strings.NewReader(`{"sauce":"typo"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: HTTP %d", resp.StatusCode)
	}
}

// bigProgram is a run that cannot finish within a 1ms deadline.
func bigProgram() string {
	return `
program big;
config n : integer = 300;
config steps : integer = 500;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
direction up = (-1, 0);
var T : [R] double;
var L : [R] double;
var s : double;
proc main()
begin
  [R] T := 1.0;
  for k := 1 to steps do
    [I] L := T@up + T;
    [I] T := T + 0.1 * L;
    s := +<< [I] T;
  end;
  writeln(s);
end;
`
}

// TestTimeoutKeepsServing: a request with an expired deadline must not
// poison the server — the next request succeeds.
func TestTimeoutKeepsServing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts.URL+"/run", Request{Source: bigProgram(), TimeoutMS: 1})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("timeout request: HTTP %d (%s)", status, body)
	}
	status, body = post(t, ts.URL+"/run", Request{Bench: "fibro", Configs: map[string]int64{"n": 16}})
	if status != http.StatusOK {
		t.Fatalf("request after timeout: HTTP %d (%s)", status, body)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after timeout: HTTP %d", resp.StatusCode)
	}
}

// TestHugeTimeoutIsCapped: a timeout_ms too large for a Duration is
// capped at MaxTimeout, never wrapped into a short or past deadline
// (as a Duration the first value is -1 ms and the second 448 µs). Each
// value gets its own server, so neither request is a cache hit, and
// compiles sp at c2+f4, which takes longer than 448 µs.
func TestHugeTimeoutIsCapped(t *testing.T) {
	for _, ms := range []int64{math.MaxInt64, 18446744073710} {
		_, ts := newTestServer(t, Config{})
		req := Request{Bench: "sp", Level: "c2+f4", TimeoutMS: ms}
		if status, body := post(t, ts.URL+"/compile", req); status != http.StatusOK {
			t.Errorf("timeout_ms %d: HTTP %d (%s)", ms, status, body)
		}
	}
}

// TestSingleflightDedup: concurrent identical requests on a wide pool
// must collapse to one compile.
func TestSingleflightDedup(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 8, QueueDepth: 64})
	src := heatSource(t)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body := post(t, ts.URL+"/compile", Request{Source: src})
			if status != http.StatusOK {
				t.Errorf("HTTP %d: %s", status, body)
			}
		}()
	}
	wg.Wait()
	st := s.CacheStats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (stats %+v)", st.Misses, st)
	}
	if st.Hits+st.DedupHits != 19 {
		t.Errorf("hits %d + dedup %d != 19", st.Hits, st.DedupHits)
	}
}

// TestQueueSheddingAndDrain: a saturated pool sheds load with 429;
// draining refuses work with 503.
func TestQueueSheddingAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	var wg sync.WaitGroup
	var mu sync.Mutex
	got := map[int]int{}
	record := func(status int) {
		mu.Lock()
		got[status]++
		mu.Unlock()
	}

	// Occupy the single worker with one multi-second run, so the
	// 2-ticket queue stays saturated for the whole burst below —
	// deterministically, whatever the goroutine scheduling.
	wg.Add(1)
	go func() {
		defer wg.Done()
		status, _ := post(t, ts.URL+"/run",
			Request{Source: bigProgram(), Configs: map[string]int64{"steps": 300}, TimeoutMS: 30000})
		record(status)
	}()
	// Wait until it is admitted past the queue to the worker.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(body), "zpld_inflight 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("long run never reached the worker")
		}
	}

	// The burst: one request can take the remaining ticket and wait;
	// the rest find the queue full and must shed.
	for i := 0; i < 11; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _ := post(t, ts.URL+"/run",
				Request{Source: bigProgram(), Configs: map[string]int64{"steps": 2}, TimeoutMS: 30000})
			record(status)
		}()
	}
	wg.Wait()
	if got[http.StatusOK] == 0 {
		t.Errorf("no request succeeded under load: %v", got)
	}
	if got[http.StatusTooManyRequests] == 0 {
		t.Errorf("no request was shed at queue depth 1: %v", got)
	}
	if extra := len(got) - 2; extra > 0 {
		t.Errorf("unexpected statuses: %v", got)
	}

	s.SetDraining(true)
	status, body := post(t, ts.URL+"/compile", Request{Bench: "fibro"})
	if status != http.StatusServiceUnavailable {
		t.Errorf("draining compile: HTTP %d (%s)", status, body)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: HTTP %d", resp.StatusCode)
	}
}

// TestMetricsExposition: counters and per-phase histograms appear in
// the Prometheus text format after traffic.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		if status, body := post(t, ts.URL+"/run", Request{Bench: "fibro", Configs: map[string]int64{"n": 16}}); status != http.StatusOK {
			t.Fatalf("run %d: HTTP %d (%s)", i, status, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`zpld_requests_total{endpoint="/run",code="200"} 3`,
		"zpld_cache_hits_total 2",
		"zpld_cache_misses_total 1",
		`zpld_phase_seconds_count{phase="parse"} 1`,
		`zpld_phase_seconds_count{phase="fusion"}`,
		`zpld_phase_seconds_count{phase="run"} 3`,
		`zpld_request_seconds_count{endpoint="/run"} 3`,
		"zpld_cache_bytes",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Histogram buckets must be cumulative and end at +Inf == count.
	if !strings.Contains(text, `zpld_phase_seconds_bucket{phase="run",le="+Inf"} 3`) {
		t.Errorf("run histogram +Inf bucket wrong:\n%s", grepLines(text, `phase="run"`))
	}
}

func grepLines(text, needle string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, needle) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestRequestLog: the structured log emits one JSON line per request.
func TestRequestLog(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{Logs: &buf})
	post(t, ts.URL+"/run", Request{Bench: "fibro", Configs: map[string]int64{"n": 16}})
	post(t, ts.URL+"/compile", Request{Source: "program junk; nope"})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2: %q", len(lines), buf.String())
	}
	var entry struct {
		Endpoint string  `json:"endpoint"`
		Status   int     `json:"status"`
		Kind     string  `json:"kind"`
		Cache    string  `json:"cache"`
		MS       float64 `json:"ms"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("log line not JSON: %v (%q)", err, lines[0])
	}
	if entry.Endpoint != "/run" || entry.Status != 200 || entry.Cache != "miss" {
		t.Errorf("first log entry wrong: %+v", entry)
	}
	if err := json.Unmarshal([]byte(lines[1]), &entry); err != nil {
		t.Fatal(err)
	}
	if entry.Status != 422 || entry.Kind != "compile_error" {
		t.Errorf("second log entry wrong: %+v", entry)
	}
}

type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDistributedRun: /run with dist executes the distributed
// interpreter and matches the sequential transcript.
func TestDistributedRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var seq, dist RunResponse
	status, body := post(t, ts.URL+"/run", Request{Bench: "fibro", Configs: map[string]int64{"n": 16}})
	if status != http.StatusOK {
		t.Fatalf("sequential: HTTP %d (%s)", status, body)
	}
	json.Unmarshal(body, &seq)
	status, body = post(t, ts.URL+"/run",
		Request{Bench: "fibro", Configs: map[string]int64{"n": 16}, Procs: 4, Dist: true})
	if status != http.StatusOK {
		t.Fatalf("distributed: HTTP %d (%s)", status, body)
	}
	json.Unmarshal(body, &dist)
	if dist.Procs != 4 {
		t.Errorf("procs = %d, want 4", dist.Procs)
	}
	if !difftest.Close(seq.Output, dist.Output) {
		t.Errorf("distributed output %q != sequential %q", dist.Output, seq.Output)
	}
	// Distributed replies report what sequential ones do: every
	// element-statement runs once at its owner, so the processors' sum
	// is at least the sequential count (replicated scalar statements and
	// exchanges add to it), and halos only add storage.
	if dist.Steps < seq.Steps || dist.MemoryBytes < seq.MemoryBytes {
		t.Errorf("distributed steps/memory = %d/%d, want at least the sequential %d/%d",
			dist.Steps, dist.MemoryBytes, seq.Steps, seq.MemoryBytes)
	}

	// The distributed reply carries the happens-before verdict census;
	// the sequential one has no schedule to analyze.
	if seq.Races != nil {
		t.Errorf("sequential reply has a race summary: %+v", seq.Races)
	}
	switch {
	case dist.Races == nil:
		t.Errorf("distributed reply lacks the race summary")
	case dist.Races.Ordered == 0 || dist.Races.Pairs == 0:
		t.Errorf("race summary proved nothing: %+v", dist.Races)
	case dist.Races.Race != 0 || dist.Races.Deadlocks != 0:
		t.Errorf("a racy schedule compiled: %+v", dist.Races)
	}

	// The fresh distributed compile recorded the verdict census metric.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	mb, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(mb), `zpld_race_pairs_total{verdict="proven-ordered"}`) {
		t.Errorf("metrics lack zpld_race_pairs_total:\n%s", mb)
	}
}

// TestServeListenerDrains: ServeListener exits cleanly on context
// cancellation and flips to draining.
func TestServeListenerDrains(t *testing.T) {
	s := New(Config{DrainTimeout: 2 * time.Second})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.ServeListener(ctx, l) }()

	url := "http://" + l.Addr().String()
	if status, _ := post(t, url+"/run", Request{Bench: "fibro", Configs: map[string]int64{"n": 16}}); status != http.StatusOK {
		t.Fatalf("pre-drain request: HTTP %d", status)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeListener: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeListener did not exit after cancel")
	}
}

func TestCompileLintAndRemarks(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := heatSource(t)

	// Plain compile: no lint or remarks payload unless requested.
	status, body := post(t, ts.URL+"/compile", Request{Source: src})
	if status != http.StatusOK {
		t.Fatalf("compile: status %d: %s", status, body)
	}
	var bare CompileResponse
	if err := json.Unmarshal(body, &bare); err != nil {
		t.Fatal(err)
	}
	if bare.Lint != nil || bare.Remarks != nil {
		t.Errorf("unrequested lint/remarks in response: %+v", bare)
	}

	// Requested: the remarks explain the plan, the lint findings ride
	// along, and both land in /metrics.
	status, body = post(t, ts.URL+"/compile", Request{Source: src, Lint: true, Remarks: true})
	if status != http.StatusOK {
		t.Fatalf("compile with lint: status %d: %s", status, body)
	}
	var resp CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Remarks) == 0 {
		t.Error("no remarks in response")
	}
	negatives := 0
	for _, r := range resp.Remarks {
		if r.Negative() {
			negatives++
			if r.Test == "" {
				t.Errorf("negative remark for %s names no failed test", r.Subject())
			}
		}
	}
	if negatives == 0 {
		t.Error("heat.za at the default level should have negative remarks")
	}

	metrics := s.Metrics().Render(s.CacheStats(), s.TuneCacheStats())
	if !strings.Contains(metrics, "zpld_remarks_total{kind=") {
		t.Errorf("metrics missing zpld_remarks_total:\n%s", metrics)
	}
	// One compile ran (the second request was a hit): its remarks are
	// counted once, the same ones the reply carries.
	counted := 0
	for _, line := range strings.Split(grepLines(metrics, "zpld_remarks_total{"), "\n") {
		n, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		counted += n
	}
	if counted != len(resp.Remarks) {
		t.Errorf("zpld_remarks_total sums to %d, the compile had %d remarks", counted, len(resp.Remarks))
	}

	// Lint a program with findings so the lint counter appears too.
	warny := `
program warny;
config n : integer = 8;
region R = [1..n, 1..n];
var A, B, U : [R] double;
var s : double;
proc main()
begin
  [R] A := index1 + index2;
  [R] B := A * 2.0;
  s := +<< [R] B;
  writeln("s =", s);
end;
`
	status, body = post(t, ts.URL+"/compile", Request{Source: warny, Lint: true})
	if status != http.StatusOK {
		t.Fatalf("compile warny: status %d: %s", status, body)
	}
	var wresp CompileResponse
	if err := json.Unmarshal(body, &wresp); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range wresp.Lint {
		if f.Rule == "unused-array" {
			found = true
		}
	}
	if !found {
		t.Errorf("lint findings missing unused-array for U: %+v", wresp.Lint)
	}
	metrics = s.Metrics().Render(s.CacheStats(), s.TuneCacheStats())
	if !strings.Contains(metrics, `zpld_lint_findings_total{rule="unused-array"`) {
		t.Errorf("metrics missing zpld_lint_findings_total:\n%s", metrics)
	}
}

func postTune(t *testing.T, url string, req TuneRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/tune", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestTuneEndpoint: /tune finds a plan no worse than the heuristic,
// caches the result by content address, and separates differently
// bounded searches into distinct entries.
func TestTuneEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := TuneRequest{Bench: "frac", Configs: map[string]int64{"n": 24}}

	status, body := postTune(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("first tune: HTTP %d: %s", status, body)
	}
	var first TuneResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Key == "" {
		t.Errorf("first tune: cached=%t key=%q", first.Cached, first.Key)
	}
	var res tune.Result
	if err := json.Unmarshal(first.Result, &res); err != nil {
		t.Fatalf("result payload not a tune.Result: %v", err)
	}
	if res.Spec == nil || res.TunedScore > res.HeuristicScore {
		t.Errorf("bad tuning result: spec=%v tuned=%.0f heuristic=%.0f",
			res.Spec, res.TunedScore, res.HeuristicScore)
	}

	// The identical request is a cache hit with an identical payload.
	status, body = postTune(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("second tune: HTTP %d: %s", status, body)
	}
	var second TuneResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Key != first.Key {
		t.Errorf("second tune: cached=%t key match=%t", second.Cached, second.Key == first.Key)
	}
	if !bytes.Equal(second.Result, first.Result) {
		t.Error("cached tune payload diverged")
	}

	// Different search bounds address a different cache entry.
	bounded := req
	bounded.Beam = 2
	status, body = postTune(t, ts.URL, bounded)
	if status != http.StatusOK {
		t.Fatalf("bounded tune: HTTP %d: %s", status, body)
	}
	var third TuneResponse
	if err := json.Unmarshal(body, &third); err != nil {
		t.Fatal(err)
	}
	if third.Cached || third.Key == first.Key {
		t.Errorf("bounded tune: cached=%t, key collides=%t", third.Cached, third.Key == first.Key)
	}

	st := s.TuneCacheStats()
	if st.Misses != 2 || st.Hits != 1 {
		t.Errorf("tune cache stats: %+v", st)
	}
	// The compilation cache is untouched by /tune.
	if cst := s.CacheStats(); cst.Misses != 0 {
		t.Errorf("tune polluted the compilation cache: %+v", cst)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	mb, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(mb)
	for _, want := range []string{
		"zpld_tune_requests_total 3",
		"zpld_tune_cache_hits_total 1",
		"zpld_tune_cache_misses_total 2",
		`zpld_phase_seconds_count{phase="tune"} 2`,
		`zpld_request_seconds_count{endpoint="/tune"} 3`,
		`zpld_requests_total{endpoint="/tune",code="200"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestTuneStatusMapping drives /tune's error paths to the shared
// status scheme.
func TestTuneStatusMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	check := func(name string, wantStatus int, wantKind string, req TuneRequest) {
		t.Helper()
		status, body := postTune(t, ts.URL, req)
		if status != wantStatus {
			t.Errorf("%s: HTTP %d, want %d (%s)", name, status, wantStatus, body)
			return
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Errorf("%s: bad error body %q", name, body)
			return
		}
		if er.Kind != wantKind {
			t.Errorf("%s: kind %q, want %q", name, er.Kind, wantKind)
		}
	}

	check("compile error", http.StatusUnprocessableEntity, "compile_error",
		TuneRequest{Source: "program junk; not a program"})
	check("no source", http.StatusBadRequest, "bad_request", TuneRequest{})
	check("both sources", http.StatusBadRequest, "bad_request",
		TuneRequest{Source: "x", Bench: "frac"})
	check("unknown bench", http.StatusBadRequest, "bad_request", TuneRequest{Bench: "bogus"})
	check("bad level", http.StatusBadRequest, "bad_request",
		TuneRequest{Bench: "frac", Level: "O9"})
	check("bad machine", http.StatusBadRequest, "bad_request",
		TuneRequest{Bench: "frac", Machine: "cray-3"})
	check("bad model", http.StatusBadRequest, "bad_request",
		TuneRequest{Bench: "frac", Model: "psychic"})
	check("measure distributed", http.StatusBadRequest, "bad_request",
		TuneRequest{Bench: "frac", Procs: 4, Measure: true})
	check("timeout", http.StatusGatewayTimeout, "timeout",
		TuneRequest{Bench: "sp", TimeoutMS: 1})
	for name, body := range illegalSpecs(t, "tune") {
		var req TuneRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check("illegal spec "+name, http.StatusBadRequest, "bad_request", req)
	}

	// Wrong method → 405.
	resp, err := http.Get(ts.URL + "/tune")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /tune: HTTP %d", resp.StatusCode)
	}
}

// TestCompilePanicIsAClassed500: a compile that panics costs its request
// — and the request that had joined its flight — a 500 of kind internal,
// not a dropped connection logged as a 200; the key compiles on the next
// request, and the worker pool is back to idle.
func TestCompilePanicIsAClassed500(t *testing.T) {
	var logs syncBuffer
	s, ts := newTestServer(t, Config{Workers: 4, Logs: &logs})
	leading, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	s.compileHook = func() {
		if calls.Add(1) == 1 {
			close(leading)
			<-release
			panic("compiler bug")
		}
	}
	req := Request{Source: heatSource(t)}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		if i == 1 {
			<-leading
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body := post(t, ts.URL+"/compile", req)
			var er ErrorResponse
			json.Unmarshal(body, &er)
			if status != http.StatusInternalServerError || er.Kind != "internal" || !strings.Contains(er.Error, "compiler bug") {
				t.Errorf("HTTP %d %s, want 500 internal", status, body)
			}
		}()
	}
	// The second request is admitted and joins the flight (or, if it is
	// late, leads its own and fails the status check above).
	for len(s.sem) < 2 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	status, body := post(t, ts.URL+"/compile", req)
	var cr CompileResponse
	json.Unmarshal(body, &cr)
	if status != http.StatusOK || cr.Cached {
		t.Errorf("request after the panic: HTTP %d %s, want a fresh 200", status, body)
	}
	metrics := get(t, ts.URL+"/metrics")
	for _, want := range []string{"zpld_panics_total 1\n", "zpld_inflight 0\n", `zpld_requests_total{endpoint="/compile",code="500"} 2` + "\n"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, grepLines(metrics, "zpld_panics")+grepLines(metrics, "zpld_inflight")+grepLines(metrics, "zpld_requests_total"))
		}
	}
	if len(s.sem) != 0 || len(s.queue) != 0 {
		t.Errorf("pool not idle after the panic: %d slots, %d tickets held", len(s.sem), len(s.queue))
	}
	if n, st := strings.Count(logs.String(), `"kind":"internal"`), strings.Count(logs.String(), "TestCompilePanicIsAClassed500.func"); n != 2 || st < 2 {
		t.Errorf("request log: %d internal lines naming the panicking frame %d times, want 2 lines, the stack in each", n, st)
	}
}
