package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/internal/ccache"
	"repro/internal/store"
)

// cachedEntry is the memory tier's entry for req on s.
func cachedEntry(t *testing.T, s *Server, req Request) *ccache.Entry {
	t.Helper()
	src, opt, err := s.resolve(&req, true)
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := s.cache.GetOrCompute(context.Background(), ccache.KeyOf(src, opt), func() (*ccache.Entry, error) {
		return nil, fmt.Errorf("entry not cached")
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runBody posts req to /run and returns the reply with its one timing,
// run_ms, zeroed: what two runs of one key must agree on byte for byte.
func runBody(url string, req Request) (RunResponse, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return RunResponse{}, nil, err
	}
	resp, err := http.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return RunResponse{}, nil, err
	}
	defer resp.Body.Close()
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return RunResponse{}, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return rr, nil, fmt.Errorf("HTTP %d: %+v", resp.StatusCode, rr)
	}
	rr.RunMS = 0
	norm, err := json.Marshal(rr)
	return rr, norm, err
}

// TestHotRunsOfOneKey: goroutines sending hot /run of one key at once
// share its compilation, whose one resident machine at most one of them
// holds at a time; every reply is the first hot reply byte for byte
// (run_ms aside). Run under -race by make serve-test.
func TestHotRunsOfOneKey(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := Request{Source: heatSource(t), Configs: map[string]int64{"n": 24}}
	if _, _, err := runBody(ts.URL, req); err != nil {
		t.Fatal(err)
	}
	first, want, err := runBody(ts.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Tier != store.TierMem {
		t.Fatalf("second run served from tier %q, want mem", first.Tier)
	}
	const clients, each = 6, 8
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				_, got, err := runBody(ts.URL, req)
				if err != nil {
					t.Error(err)
					return
				}
				if string(got) != string(want) {
					t.Errorf("hot reply %s, first hot reply %s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestOverpricedEntryStillHits: a program whose storage would not fit
// the memory tier beside its entry is cached as its entry alone, whose
// runs build their machines; its second /run is still a mem hit, with
// the first run's output.
func TestOverpricedEntryStillHits(t *testing.T) {
	const budget = 128 << 10
	s, ts := newTestServer(t, Config{CacheBytes: budget})
	req := Request{Source: heatSource(t), Configs: map[string]int64{"n": 200}}
	cold, _, err := runBody(ts.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.MemoryBytes <= budget {
		t.Fatalf("heat n=200 prices %d bytes, not over the %d-byte budget", cold.MemoryBytes, budget)
	}
	for run := 2; run <= 3; run++ {
		hot, _, err := runBody(ts.URL, req)
		if err != nil {
			t.Fatal(err)
		}
		if hot.Tier != store.TierMem || hot.Output != cold.Output {
			t.Errorf("run %d: tier %q, output %q; want mem, %q", run, hot.Tier, hot.Output, cold.Output)
		}
	}
	e := cachedEntry(t, s, req)
	if e.Size != ccache.SizeOf(e) {
		t.Errorf("entry charged %d bytes, want its SizeOf %d alone", e.Size, ccache.SizeOf(e))
	}
}

// TestMemEntryIsSlim: a fresh compile's memory-tier entry holds what a
// rehydrated one does, plus the proofs: the LIR and Bounds, and none of
// the plan, sema info, comm result or race analysis, which the reply
// takes from the entry's Meta.
func TestMemEntryIsSlim(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, req := range []Request{
		{Source: heatSource(t)},
		{Bench: "fibro", Configs: map[string]int64{"n": 16}, Procs: 2, Dist: true},
	} {
		rr, _, err := runBody(ts.URL, req)
		if err != nil {
			t.Fatal(err)
		}
		if req.Dist && rr.Races == nil {
			t.Error("a distributed reply lost its race census")
		}
		c := cachedEntry(t, s, req).Comp
		if c.LIR == nil || c.Bounds == nil {
			t.Errorf("%+v: entry lost its LIR or proofs", req.Bench)
		}
		if c.Plan != nil || c.Info != nil || c.Comm != nil || c.Races != nil || c.AIR != nil {
			t.Errorf("%+v: entry keeps the compile's planning structures", req.Bench)
		}
	}
}
