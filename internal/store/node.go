// node.go is the peer tier's server side: the /store/get and
// /store/put handlers one zpld node mounts, plus the claim table that
// makes a cluster-wide thundering herd on one key compile exactly
// once.
//
// Protocol (all bodies are either raw envelopes or small text):
//
//	GET  /store/get?key=<hex>[&wait_ms=N]
//	     200 application/octet-stream — the encoded envelope, with
//	         X-Zpl-Store-Tier naming the serving tier (mem|disk);
//	     404 — not present. With wait_ms, a key under an active
//	         compile claim blocks up to min(wait_ms, waitCap) for the
//	         claimant's put before re-checking.
//
//	POST /store/put?key=<hex>            body = envelope
//	     204 — stored (disk + matching memory tiers) and any claim on
//	         the key resolved; 400 — undecodable or key mismatch.
//	POST /store/put?key=<hex>&claim=1    no body
//	     200 with one of "granted" | "present" | "busy".
//	POST /store/put?key=<hex>&abandon=1  no body
//	     204 — claim cleared, waiters woken.
//
// Claims expire after a TTL so a claimant that dies mid-compile stops
// shielding the key; waiters additionally bound their own blocking,
// so the worst case of every failure mode is a duplicate compile —
// never a stuck request.
package store

import (
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/ccache"
)

// clockAfter is time.After, stubbed in tests that drive claim waits.
var clockAfter = time.After

// claim is a lease, not a flight (internal/flight): the work it shields
// runs in another process, so no function return can resolve it. A
// peer's put or abandon does, or the TTL — which is why it is a separate
// mechanism from the one flight table the in-process stores share.
type claim struct {
	done    chan struct{}
	expires time.Time
}

// localTier is one registered in-process cache a node can serve peers
// from; accepts filters by artifact kind so the compile cache and the
// tune cache each see only their entries.
type localTier struct {
	name    string
	cache   *ccache.Cache
	accepts func(ccache.ArtifactKind) bool
}

// NodeStats counts the server side of the peer protocol.
type NodeStats struct {
	ServedHits   int64 // /store/get answered with an envelope
	ServedMisses int64 // /store/get answered 404
	ServedPuts   int64 // /store/put bodies accepted
	ServedClaims int64 // claim requests answered (any state)
	BadRequests  int64 // malformed keys, undecodable bodies, mismatches
}

// Node is this process's membership in the cluster: its identity, the
// hash ring, the claim table, and the handlers peers call.
type Node struct {
	self     string
	ring     *Ring
	disk     *Disk // may be nil: peers are then served from mem only
	peers    *Peers
	claimTTL time.Duration
	waitCap  time.Duration
	maxBytes int64

	mu     sync.Mutex
	claims map[ccache.Key]*claim
	locals []localTier
	stats  NodeStats

	now func() time.Time
}

// NodeConfig assembles a Node.
type NodeConfig struct {
	Self     string        // this node's host:port as it appears in Peers
	Peers    []string      // static member list (may or may not include Self)
	Disk     *Disk         // shared with the Tiered stores; may be nil
	Timeout  time.Duration // per-attempt peer timeout (0 → DefaultPeerTimeout)
	ClaimTTL time.Duration // compile-claim lifetime (0 → DefaultClaimTTL)
	WaitCap  time.Duration // max blocking on a claim (0 → DefaultPeerWait)
	MaxBytes int64         // max peer-transferred envelope (0 → DefaultMaxPeerBytes)
}

// NewNode builds the node. The ring always contains Self, so a member
// list that omits it still routes a share of keys here.
func NewNode(cfg NodeConfig) *Node {
	members := append([]string{cfg.Self}, cfg.Peers...)
	n := &Node{
		self:     cfg.Self,
		ring:     NewRing(members),
		disk:     cfg.Disk,
		peers:    NewPeers(cfg.Timeout, cfg.MaxBytes),
		claimTTL: cfg.ClaimTTL,
		waitCap:  cfg.WaitCap,
		maxBytes: cfg.MaxBytes,
		claims:   map[ccache.Key]*claim{},
		now:      time.Now,
	}
	if n.claimTTL <= 0 {
		n.claimTTL = DefaultClaimTTL
	}
	if n.waitCap <= 0 {
		n.waitCap = DefaultPeerWait
	}
	if n.maxBytes <= 0 {
		n.maxBytes = DefaultMaxPeerBytes
	}
	return n
}

// Self returns this node's cluster identity.
func (n *Node) Self() string { return n.self }

// Members returns the ring's member list (Self included, sorted).
func (n *Node) Members() []string { return n.ring.Members() }

// Owner returns the member owning k.
func (n *Node) Owner(k ccache.Key) string { return n.ring.Owner(k) }

// IsSelf reports whether member is this node.
func (n *Node) IsSelf(member string) bool { return member == n.self }

// Clients returns the peer client pool.
func (n *Node) Clients() *Peers { return n.peers }

// WaitCap returns the claim-wait bound.
func (n *Node) WaitCap() time.Duration { return n.waitCap }

// Stats snapshots the served-request counters.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// RegisterLocal attaches an in-process cache as a peer-servable tier.
// accepts filters which artifact kinds route into it on puts.
func (n *Node) RegisterLocal(name string, c *ccache.Cache, accepts func(ccache.ArtifactKind) bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.locals = append(n.locals, localTier{name: name, cache: c, accepts: accepts})
}

// lookupLocal finds k in the registered memory tiers or on disk,
// returning the encoded envelope and the tier name. Memory hits are
// read with Peek: serving a peer must not distort this node's own
// LRU recency or hit counters.
func (n *Node) lookupLocal(k ccache.Key) (raw []byte, tier string, ok bool) {
	n.mu.Lock()
	locals := n.locals
	n.mu.Unlock()
	for _, lt := range locals {
		if e, ok := lt.cache.Peek(k); ok {
			if raw, err := Encode(e); err == nil {
				return raw, TierMem, true
			}
		}
	}
	if n.disk != nil {
		if raw, ok := n.disk.GetRawVerified(k); ok {
			return raw, TierDisk, true
		}
	}
	return nil, "", false
}

// tryClaim takes the compile claim on k, granting it if no live claim
// exists (expired claims are swept and their waiters woken).
func (n *Node) tryClaim(k ccache.Key) (ClaimState, <-chan struct{}) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if c, ok := n.claims[k]; ok {
		if n.now().Before(c.expires) {
			return ClaimBusy, c.done
		}
		close(c.done)
		delete(n.claims, k)
	}
	c := &claim{done: make(chan struct{}), expires: n.now().Add(n.claimTTL)}
	n.claims[k] = c
	return ClaimGranted, c.done
}

// resolveClaim clears the claim on k and wakes its waiters, who re-read
// the tiers: the artifact is in place, or the claimant gave up and they
// fall back to their own compiles. Idempotent.
func (n *Node) resolveClaim(k ccache.Key) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if c, ok := n.claims[k]; ok {
		close(c.done)
		delete(n.claims, k)
	}
}

// claimWaiter returns the done channel of a live claim on k, if any.
func (n *Node) claimWaiter(k ccache.Key) (<-chan struct{}, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	c, ok := n.claims[k]
	if !ok || !n.now().Before(c.expires) {
		return nil, false
	}
	return c.done, true
}

func parseKey(s string) (ccache.Key, error) {
	var k ccache.Key
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(k) {
		return k, fmt.Errorf("store: bad key %q", s)
	}
	copy(k[:], b)
	return k, nil
}

// ServeGet handles GET /store/get.
func (n *Node) ServeGet(w http.ResponseWriter, r *http.Request) {
	k, err := parseKey(r.URL.Query().Get("key"))
	if err != nil {
		n.count(func(s *NodeStats) { s.BadRequests++ })
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	raw, tier, ok := n.lookupLocal(k)
	if !ok {
		// A live claim means the artifact is seconds away; hold the
		// request (bounded) instead of making the caller recompile. A
		// claim just gone was resolved, likely by a put: look again too.
		if ms, _ := strconv.Atoi(r.URL.Query().Get("wait_ms")); ms > 0 {
			if done, live := n.claimWaiter(k); live {
				wait := time.Duration(ms) * time.Millisecond
				if wait > n.waitCap {
					wait = n.waitCap
				}
				select {
				case <-done:
				case <-clockAfter(wait):
				case <-r.Context().Done():
				}
			}
			raw, tier, ok = n.lookupLocal(k)
		}
	}
	if !ok || int64(len(raw)) > n.maxBytes {
		n.count(func(s *NodeStats) { s.ServedMisses++ })
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	n.count(func(s *NodeStats) { s.ServedHits++ })
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Zpl-Store-Tier", tier)
	w.Write(raw)
}

// ServePut handles POST /store/put (stores, claims, abandons).
func (n *Node) ServePut(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	k, err := parseKey(q.Get("key"))
	if err != nil {
		n.count(func(s *NodeStats) { s.BadRequests++ })
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	switch {
	case q.Get("claim") == "1":
		n.count(func(s *NodeStats) { s.ServedClaims++ })
		if _, _, ok := n.lookupLocal(k); ok {
			fmt.Fprint(w, ClaimPresent)
			return
		}
		state, _ := n.tryClaim(k)
		fmt.Fprint(w, state)
		return

	case q.Get("abandon") == "1":
		n.resolveClaim(k)
		w.WriteHeader(http.StatusNoContent)
		return
	}

	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, n.maxBytes))
	if err != nil {
		n.count(func(s *NodeStats) { s.BadRequests++ })
		http.Error(w, "body too large or unreadable", http.StatusBadRequest)
		return
	}
	e, err := Decode(raw)
	if err != nil {
		n.count(func(s *NodeStats) { s.BadRequests++ })
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if e.Key != k {
		// The envelope binds content to its key; a mismatch is a
		// routing bug on the sender, not something to store.
		n.count(func(s *NodeStats) { s.BadRequests++ })
		http.Error(w, "key mismatch", http.StatusBadRequest)
		return
	}

	if n.disk != nil {
		n.disk.PutRaw(k, raw)
	}
	n.mu.Lock()
	locals := n.locals
	n.mu.Unlock()
	for _, lt := range locals {
		if lt.accepts == nil || lt.accepts(e.Kind) {
			lt.cache.Put(k, e)
		}
	}
	n.resolveClaim(k)
	n.count(func(s *NodeStats) { s.ServedPuts++ })
	w.WriteHeader(http.StatusNoContent)
}

func (n *Node) count(f func(*NodeStats)) {
	n.mu.Lock()
	f(&n.stats)
	n.mu.Unlock()
}
