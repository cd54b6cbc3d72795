// cluster.go is the GET /cluster endpoint: one JSON document that
// answers "what does this node believe about the cluster" — its
// identity, the ring membership, per-tier entry/byte counts, and the
// reachability + call statistics of every peer. Reachability is an
// active probe (parallel /healthz checks with the peer timeout), so
// the endpoint is the first stop when a cluster misbehaves.
package svc

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"

	"repro/internal/store"
)

// ClusterTier reports one tier's residency.
type ClusterTier struct {
	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`
	Hits    int64 `json:"hits"`
}

// ClusterPeer reports one ring member from this node's perspective.
type ClusterPeer struct {
	Member    string `json:"member"`
	Self      bool   `json:"self,omitempty"`
	Reachable bool   `json:"reachable"`
	// Dead reports the client breaker state: true while calls to this
	// peer are being skipped after repeated failures.
	Dead bool `json:"dead,omitempty"`

	GetHits     int64 `json:"get_hits,omitempty"`
	GetMisses   int64 `json:"get_misses,omitempty"`
	GetTimeouts int64 `json:"get_timeouts,omitempty"`
	GetErrors   int64 `json:"get_errors,omitempty"`
	Puts        int64 `json:"puts,omitempty"`
	PutErrors   int64 `json:"put_errors,omitempty"`
	Claims      int64 `json:"claims,omitempty"`
}

// ClusterResponse is the JSON reply of /cluster.
type ClusterResponse struct {
	Self      string   `json:"self,omitempty"`
	Clustered bool     `json:"clustered"`
	Members   []string `json:"members,omitempty"`
	// Tiers maps tier name to residency: "mem" (compilations and tuned
	// plans), "disk" (when enabled), "peer" (hits only, when clustered).
	Tiers map[string]ClusterTier `json:"tiers"`
	// Misses/Dedups are the store's compute counters, so hit rates are
	// derivable from the tier hits alone.
	Misses int64 `json:"misses"`
	Dedups int64 `json:"dedups"`
	// PeerServed counts what this node answered for others.
	PeerServedHits int64         `json:"peer_served_hits,omitempty"`
	PeerServedPuts int64         `json:"peer_served_puts,omitempty"`
	Peers          []ClusterPeer `json:"peers,omitempty"`
	Warnings       []string      `json:"warnings,omitempty"`
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "bad_request", "GET /cluster")
		return
	}
	cs := s.cache.TierStats()
	resp := ClusterResponse{
		Clustered: s.node != nil,
		Tiers: map[string]ClusterTier{
			"mem": {Entries: cs.Mem.Entries, Bytes: cs.Mem.Bytes, Hits: cs.MemHits},
		},
		Misses:   cs.Misses,
		Dedups:   cs.Dedups,
		Warnings: s.warns,
	}
	if s.disk != nil {
		ds := s.disk.Stats()
		resp.Tiers["disk"] = ClusterTier{Entries: ds.Entries, Bytes: ds.Bytes, Hits: cs.DiskHits}
	}
	if s.node != nil {
		resp.Self = s.node.Self()
		resp.Members = s.node.Members()
		resp.Tiers["peer"] = ClusterTier{Hits: cs.PeerHits}
		ns := s.node.Stats()
		resp.PeerServedHits = ns.ServedHits
		resp.PeerServedPuts = ns.ServedPuts
		resp.Peers = s.probePeers(r, cs.Peers)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// probePeers assembles the per-member rows, actively probing each
// non-self member's /healthz in parallel.
func (s *Server) probePeers(r *http.Request, stats map[string]store.PeerStats) []ClusterPeer {
	members := s.node.Members()
	rows := make([]ClusterPeer, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		row := ClusterPeer{Member: m}
		if ps, ok := stats[m]; ok {
			row.Dead = ps.Dead
			row.GetHits, row.GetMisses = ps.GetHits, ps.GetMisses
			row.GetTimeouts, row.GetErrors = ps.GetTimeouts, ps.GetErrors
			row.Puts, row.PutErrors, row.Claims = ps.Puts, ps.PutErrors, ps.Claims
		}
		if s.node.IsSelf(m) {
			row.Self, row.Reachable = true, true
			rows[i] = row
			continue
		}
		rows[i] = row
		wg.Add(1)
		go func(i int, m string) {
			defer wg.Done()
			rows[i].Reachable = s.node.Clients().Reachable(r.Context(), m)
		}(i, m)
	}
	wg.Wait()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Member < rows[j].Member })
	return rows
}
