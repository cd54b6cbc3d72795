// Package store is zpld's tiered content-addressed artifact store:
// the sharding and persistence layer that turns N daemons with
// private in-memory caches into one logical cluster cache.
//
// A lookup falls through three tiers:
//
//	mem   — the process-local byte-bounded LRU (internal/ccache),
//	        unchanged: the hot tier, holding decoded entries.
//	disk  — a content-addressed directory of encoded entries that
//	        survives restarts (disk.go); every artifact this node
//	        sees is written through, so a restarted node rehydrates
//	        without recompiling.
//	peer  — the other members of a static cluster, addressed by
//	        consistent hashing (ring.go): each key has one owner
//	        node, and non-owners fetch from / publish to it over the
//	        /store/get+/store/put protocol (peer.go, node.go).
//
// Singleflight holds across all tiers: in-process callers join one
// flight; across the cluster, a compile claim on the key's owner
// (node.go) makes a thundering herd on one cold key compile exactly
// once — every other node blocks briefly on the owner and receives
// the artifact by content hash.
//
// Failure semantics: the peer tier is an optimization, never a
// dependency. A dead owner, a timeout, a checksum mismatch, an
// oversized artifact — each degrades to the local path (disk, then
// compile). Store lookups return errors only from the compute
// function itself.
package store

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/ccache"
	"repro/internal/flight"
)

// Tier names as reported in Result and metrics.
const (
	TierMem  = "mem"
	TierDisk = "disk"
	TierPeer = "peer"
)

// Result says how a lookup was served: the classic cache outcome plus
// which tier produced the entry ("" for a miss that ran the compute).
type Result struct {
	Outcome ccache.Outcome
	Tier    string
}

// TierStats breaks a store's activity down by tier.
type TierStats struct {
	MemHits  int64
	DiskHits int64
	PeerHits int64
	Misses   int64 // lookups that ran the compute
	Dedups   int64 // in-process flight joins + cluster claim waits
	// EncodeErrors counts computed entries the codec refused (a node it
	// has no encoding for, nesting past its depth cap): each was served
	// from memory and reached neither the disk nor the key's owner.
	EncodeErrors int64

	Mem   ccache.Stats
	Disk  DiskStats            // zero when no disk tier is configured
	Peers map[string]PeerStats // nil when unclustered
}

// served is a flight's result: the entry and the tier it came from.
type served struct {
	e   *ccache.Entry
	res Result
}

// Tiered is the store the service compiles through. disk and node are
// optional: a nil disk drops the persistence tier, a nil node drops the
// peer tier (and with both nil, Tiered is the memory LRU plus
// singleflight — the pre-cluster behavior, re-expressed).
type Tiered struct {
	mem     *ccache.Cache
	disk    *Disk
	node    *Node
	flights flight.Group[ccache.Key, served]

	memHits, diskHits, peerHits, misses, dedups, encodeErrors atomic.Int64
}

// NewTiered assembles a store from its tiers.
func NewTiered(mem *ccache.Cache, disk *Disk, node *Node) *Tiered {
	return &Tiered{mem: mem, disk: disk, node: node}
}

// GetOrCompute returns the entry for k, computing it at most once
// across concurrent callers (errors are never cached), with the context
// threaded in (peer fetches and joiners respect the request deadline)
// and the serving tier reported alongside the outcome.
func (t *Tiered) GetOrCompute(ctx context.Context, k ccache.Key, compute func() (*ccache.Entry, error)) (*ccache.Entry, Result, error) {
	// Hot tier first: no flight, no lock ordering, just the LRU.
	if e, ok := t.mem.Get(k); ok {
		t.memHits.Add(1)
		return e, Result{ccache.Hit, TierMem}, nil
	}

	// One flight (internal/flight) across ALL lower tiers: one goroutine
	// probes disk/peers/compute per key; the rest join its result.
	s, joined, err := t.flights.Do(ctx, k, func() (served, error) {
		// A flight promotes before it releases its key, so one that ended
		// since the lookup above left its entry in mem.
		if e, ok := t.mem.Get(k); ok {
			t.memHits.Add(1)
			return served{e, Result{ccache.Hit, TierMem}}, nil
		}
		e, res, err := t.fill(ctx, k, compute)
		switch {
		case err != nil:
			t.misses.Add(1)
			return served{}, err
		case res.Outcome == ccache.Dedup:
			t.dedups.Add(1) // waited on a cluster claim
		case res.Tier == TierDisk:
			t.diskHits.Add(1)
		case res.Tier == TierPeer:
			t.peerHits.Add(1)
		default:
			t.misses.Add(1)
		}
		// Promote into the hot tier before the flight releases its
		// joiners, so a joiner's next same-key request is a mem hit.
		t.mem.Put(k, e)
		return served{e, res}, nil
	})
	if joined {
		t.dedups.Add(1)
		s.res.Outcome = ccache.Dedup
	}
	return s.e, s.res, err
}

// fill serves a mem-missed key from the lower tiers, computing as the
// last resort. It reports the serving tier; the caller does counters
// and mem promotion.
func (t *Tiered) fill(ctx context.Context, k ccache.Key, compute func() (*ccache.Entry, error)) (*ccache.Entry, Result, error) {
	// Disk tier: this node has seen the key in a previous life.
	if t.disk != nil {
		if e, ok := t.disk.Get(k); ok {
			return e, Result{ccache.Hit, TierDisk}, nil
		}
	}

	if t.node != nil {
		if owner := t.node.Owner(k); owner != "" && !t.node.IsSelf(owner) {
			return t.fillRemote(ctx, k, owner, compute)
		}
	}
	return t.fillLocal(ctx, k, compute)
}

// fillRemote handles a key owned by another node: fetch from the
// owner; on a cold key, claim the compile there so the whole cluster
// runs it once; always degrade to a local compile when the owner is
// unreachable or slow.
func (t *Tiered) fillRemote(ctx context.Context, k ccache.Key, owner string, compute func() (*ccache.Entry, error)) (*ccache.Entry, Result, error) {
	peers := t.node.Clients()
	if e, ok := t.fetch(ctx, owner, k, 0); ok {
		return e, Result{ccache.Hit, TierPeer}, nil
	}

	// A claim still held on the way out (the compute failed or panicked,
	// the put was lost) is given up: waiters recompile now, not at the TTL.
	granted := false
	defer func() {
		if granted {
			peers.Abandon(ctx, owner, k)
		}
	}()
	if state, ok := peers.Claim(ctx, owner, k); ok {
		switch state {
		case ClaimPresent:
			// The artifact landed between get and claim.
			if e, ok := t.fetch(ctx, owner, k, 0); ok {
				return e, Result{ccache.Hit, TierPeer}, nil
			}
		case ClaimBusy:
			// Another node is compiling this key right now; wait for
			// its result on the owner instead of duplicating the work.
			if e, ok := t.fetch(ctx, owner, k, t.node.WaitCap()); ok {
				return e, Result{ccache.Dedup, TierPeer}, nil
			}
		case ClaimGranted:
			granted = true
		}
	}

	// Local compile: we hold the cluster claim, or the owner is
	// degraded and we eat the duplicate work rather than fail. Then
	// publish to the owner (resolving our claim there); best effort — a
	// failed put costs the cluster a recompile later, never this request.
	e, raw, err := t.compute(k, compute)
	if raw != nil && peers.Put(ctx, owner, k, raw) {
		granted = false
	}
	return e, Result{ccache.Miss, ""}, err
}

// fetch gets k from its owner, blocking up to wait on a claimant's put,
// and replicates the envelope to disk for this node's restarts.
func (t *Tiered) fetch(ctx context.Context, owner string, k ccache.Key, wait time.Duration) (*ccache.Entry, bool) {
	raw, ok := t.node.Clients().Get(ctx, owner, k, wait)
	if !ok {
		return nil, false
	}
	e, err := Decode(raw)
	if err != nil {
		return nil, false
	}
	if t.disk != nil {
		t.disk.PutRaw(k, raw)
	}
	return e, true
}

// compute runs the caller's compute and writes the entry through to
// disk; raw is its envelope, nil when it failed or does not encode. An
// entry that does not encode still answers this request (and later ones,
// from memory); the lower tiers never see it, which EncodeErrors counts.
func (t *Tiered) compute(k ccache.Key, compute func() (*ccache.Entry, error)) (e *ccache.Entry, raw []byte, err error) {
	if e, err = compute(); err != nil {
		return nil, nil, err
	}
	e.Key = k
	if raw, err = Encode(e); err != nil {
		t.encodeErrors.Add(1)
		return e, nil, nil
	}
	if t.disk != nil {
		t.disk.PutRaw(k, raw)
	}
	return e, raw, nil
}

// fillLocal handles a key this node owns (or an unclustered store):
// take the node-level claim so remote waiters block on us, compute,
// and write disk before resolving so woken waiters find the artifact.
func (t *Tiered) fillLocal(ctx context.Context, k ccache.Key, compute func() (*ccache.Entry, error)) (*ccache.Entry, Result, error) {
	if t.node != nil {
		state, done := t.node.tryClaim(k)
		if state == ClaimBusy {
			// A remote node holds the compile claim on our key. Wait
			// like any other cluster member.
			select {
			case <-done:
			case <-clockAfter(t.node.WaitCap()):
			case <-ctx.Done():
				return nil, Result{}, ctx.Err()
			}
		} else {
			// Waiters woken on the way out re-read mem/disk: after a
			// compile the disk write has happened by then (the mem
			// promotion is for in-process joiners).
			defer t.node.resolveClaim(k)
		}
		// A remote claimant's put may have landed, while we waited or
		// between fill's probe and our claim: re-check the tiers. Else
		// compute, claimless after a wait: correctness over exactly-once.
		if e, ok := t.mem.Peek(k); ok {
			return e, Result{ccache.Dedup, TierMem}, nil
		}
		if t.disk != nil {
			if e, ok := t.disk.Get(k); ok {
				return e, Result{ccache.Dedup, TierDisk}, nil
			}
		}
	}
	e, _, err := t.compute(k, compute)
	return e, Result{ccache.Miss, ""}, err
}

// Stats aggregates across tiers into the classic counter shape: gauges
// from the memory tier; Hits counts lookups served from any tier,
// Misses lookups that ran the compute, DedupHits lookups that joined
// another caller's work (in-process flights and cluster claims).
func (t *Tiered) Stats() ccache.Stats {
	s := t.mem.Stats()
	s.Hits = t.memHits.Load() + t.diskHits.Load() + t.peerHits.Load()
	s.Misses, s.DedupHits = t.misses.Load(), t.dedups.Load()
	return s
}

// TierStats breaks the store's activity down by tier.
func (t *Tiered) TierStats() TierStats {
	ts := TierStats{Mem: t.mem.Stats()}
	if t.disk != nil {
		ts.Disk = t.disk.Stats()
	}
	if t.node != nil {
		ts.Peers = t.node.Clients().Stats()
	}
	ts.MemHits, ts.DiskHits, ts.PeerHits = t.memHits.Load(), t.diskHits.Load(), t.peerHits.Load()
	ts.Misses, ts.Dedups, ts.EncodeErrors = t.misses.Load(), t.dedups.Load(), t.encodeErrors.Load()
	return ts
}
