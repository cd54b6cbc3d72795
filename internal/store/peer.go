// peer.go is the peer tier's client side: typed HTTP calls to the
// /store/get and /store/put endpoints another zpld node serves (see
// node.go). Every call carries a per-attempt timeout; transport
// failures get one bounded retry with backoff; and a peer that fails
// repeatedly trips a breaker so the cluster degrades to local
// compiles instead of stalling every request on a dead node's
// connect timeout.
package store

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/ccache"
)

// Peer-protocol defaults; Config knobs override them.
const (
	// DefaultPeerTimeout bounds one peer HTTP attempt (dial + response).
	DefaultPeerTimeout = 2 * time.Second
	// DefaultClaimTTL bounds how long a compile claim shields a key: a
	// node that dies mid-compile stops blocking the cluster after this.
	DefaultClaimTTL = 30 * time.Second
	// DefaultPeerWait bounds how long a busy-wait get blocks on the
	// owner for an in-flight compile before falling back locally.
	DefaultPeerWait = 10 * time.Second
	// DefaultMaxPeerBytes caps one peer-transferred envelope.
	DefaultMaxPeerBytes = 32 << 20

	// peerAttempts is the total tries per call (1 retry).
	peerAttempts = 2
	// peerBackoff is the delay before the retry.
	peerBackoff = 100 * time.Millisecond

	// breakerThreshold consecutive failures mark a peer dead;
	// breakerCooldown is how long it is skipped before re-probing.
	breakerThreshold = 3
	breakerCooldown  = 5 * time.Second
)

// Claim outcomes of PeerClaim (mirrors node.go's claim responses).
type ClaimState string

const (
	// ClaimGranted: the caller owns the compile; it must Put or the
	// claim expires by TTL.
	ClaimGranted ClaimState = "granted"
	// ClaimPresent: the artifact landed between get and claim; re-get.
	ClaimPresent ClaimState = "present"
	// ClaimBusy: another node holds the claim; wait-get for its result.
	ClaimBusy ClaimState = "busy"
)

// PeerStats counts one peer's client-side call outcomes.
type PeerStats struct {
	GetHits     int64
	GetMisses   int64
	GetTimeouts int64
	GetErrors   int64
	Puts        int64
	PutErrors   int64
	Claims      int64
	// Tripped counts breaker activations; Dead is the current state.
	Tripped int64
	Dead    bool
}

type peerState struct {
	mu        sync.Mutex
	stats     PeerStats
	failures  int       // consecutive transport failures
	deadUntil time.Time // breaker: skip calls before this
}

// count bumps one of st.stats's counters.
func (st *peerState) count(n *int64) {
	st.mu.Lock()
	*n++
	st.mu.Unlock()
}

// Peers is the client pool over the static member list.
type Peers struct {
	timeout  time.Duration
	maxBytes int64
	client   *http.Client

	mu    sync.Mutex
	peers map[string]*peerState

	// now is stubbed in tests to drive the breaker clock.
	now func() time.Time
}

// NewPeers creates a client pool. timeout <= 0 selects
// DefaultPeerTimeout; maxBytes <= 0 selects DefaultMaxPeerBytes.
func NewPeers(timeout time.Duration, maxBytes int64) *Peers {
	if timeout <= 0 {
		timeout = DefaultPeerTimeout
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxPeerBytes
	}
	return &Peers{
		timeout:  timeout,
		maxBytes: maxBytes,
		client:   &http.Client{},
		peers:    map[string]*peerState{},
		now:      time.Now,
	}
}

func (p *Peers) state(peer string) *peerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.peers[peer]
	if !ok {
		st = &peerState{}
		p.peers[peer] = st
	}
	return st
}

// Stats snapshots every peer's counters.
func (p *Peers) Stats() map[string]PeerStats {
	p.mu.Lock()
	names := make([]string, 0, len(p.peers))
	for n := range p.peers {
		names = append(names, n)
	}
	p.mu.Unlock()
	out := make(map[string]PeerStats, len(names))
	for _, n := range names {
		st := p.state(n)
		st.mu.Lock()
		s := st.stats
		s.Dead = p.now().Before(st.deadUntil)
		st.mu.Unlock()
		out[n] = s
	}
	return out
}

// dead reports whether the breaker currently skips this peer.
func (p *Peers) dead(st *peerState) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return p.now().Before(st.deadUntil)
}

// noteFailure records a transport failure, tripping the breaker on
// the threshold; noteOK resets the failure run.
func (p *Peers) noteFailure(st *peerState) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.failures++
	if st.failures >= breakerThreshold {
		st.deadUntil = p.now().Add(breakerCooldown)
		st.stats.Tripped++
		st.failures = 0
	}
}

func noteOK(st *peerState) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.failures = 0
}

// do runs one request (body nil: none) with retry/backoff on transport
// errors. HTTP responses of any status are returned without retry — the
// server answered; only failing to reach it is retryable.
func (p *Peers) do(ctx context.Context, st *peerState, method, url string, body []byte, attemptTimeout time.Duration) (*http.Response, error) {
	var lastErr error
	for attempt := 0; attempt < peerAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(peerBackoff):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		actx, cancel := context.WithTimeout(ctx, attemptTimeout)
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(actx, method, url, rd)
		if err != nil {
			cancel()
			return nil, err
		}
		resp, err := p.client.Do(req)
		if err == nil {
			noteOK(st)
			// The cancel must survive until the body is consumed; tie it
			// to body close.
			resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
			return resp, nil
		}
		cancel()
		lastErr = err
		p.noteFailure(st)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

// Get fetches the envelope for k from peer. wait > 0 asks the owner to
// block that long for an in-flight compile of k before answering miss.
// ok is false on miss, breaker-skip, timeout, or any error — the
// caller always degrades to a local path.
func (p *Peers) Get(ctx context.Context, peer string, k ccache.Key, wait time.Duration) (raw []byte, ok bool) {
	st := p.state(peer)
	if p.dead(st) {
		return nil, false
	}
	url := fmt.Sprintf("http://%s/store/get?key=%s", peer, k.String())
	attempt := p.timeout
	if wait > 0 {
		url += "&wait_ms=" + strconv.FormatInt(wait.Milliseconds(), 10)
		// The attempt must outlive the server-side wait.
		attempt = wait + p.timeout
	}
	resp, err := p.do(ctx, st, http.MethodGet, url, nil, attempt)
	if err != nil {
		if ctx.Err() != nil || isTimeout(err) {
			st.count(&st.stats.GetTimeouts)
		} else {
			st.count(&st.stats.GetErrors)
		}
		return nil, false
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		raw, err := io.ReadAll(io.LimitReader(resp.Body, p.maxBytes+1))
		if err != nil || int64(len(raw)) > p.maxBytes {
			st.count(&st.stats.GetErrors)
			return nil, false
		}
		st.count(&st.stats.GetHits)
		return raw, true
	case http.StatusNotFound:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		st.count(&st.stats.GetMisses)
		return nil, false
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		st.count(&st.stats.GetErrors)
		return nil, false
	}
}

// Put pushes an encoded envelope for k to peer, best-effort.
func (p *Peers) Put(ctx context.Context, peer string, k ccache.Key, raw []byte) bool {
	st := p.state(peer)
	if p.dead(st) {
		return false
	}
	if int64(len(raw)) > p.maxBytes {
		return false
	}
	url := fmt.Sprintf("http://%s/store/put?key=%s", peer, k.String())
	resp, err := p.do(ctx, st, http.MethodPost, url, raw, p.timeout)
	if err != nil {
		st.count(&st.stats.PutErrors)
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	ok := resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNoContent
	if ok {
		st.count(&st.stats.Puts)
	} else {
		st.count(&st.stats.PutErrors)
	}
	return ok
}

// Claim asks the owner for the compile claim on k: a PUT with no body
// and claim=1. The reply is one of the ClaimState words.
func (p *Peers) Claim(ctx context.Context, peer string, k ccache.Key) (ClaimState, bool) {
	st := p.state(peer)
	if p.dead(st) {
		return "", false
	}
	url := fmt.Sprintf("http://%s/store/put?key=%s&claim=1", peer, k.String())
	resp, err := p.do(ctx, st, http.MethodPost, url, nil, p.timeout)
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64))
	st.count(&st.stats.Claims)
	if resp.StatusCode != http.StatusOK {
		return "", false
	}
	switch s := ClaimState(bytes.TrimSpace(body)); s {
	case ClaimGranted, ClaimPresent, ClaimBusy:
		return s, true
	default:
		return "", false
	}
}

// Abandon releases a claim this node was granted but cannot fulfil
// (the compute errored), waking the owner's waiters early instead of
// leaving them to the TTL. Best-effort.
func (p *Peers) Abandon(ctx context.Context, peer string, k ccache.Key) {
	st := p.state(peer)
	if p.dead(st) {
		return
	}
	url := fmt.Sprintf("http://%s/store/put?key=%s&abandon=1", peer, k.String())
	resp, err := p.do(ctx, st, http.MethodPost, url, nil, p.timeout)
	if err != nil {
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
}

// Reachable probes peer's /healthz with one short attempt (no retry,
// no breaker update) — the /cluster endpoint's active liveness check.
func (p *Peers) Reachable(ctx context.Context, peer string) bool {
	actx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, "http://"+peer+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func isTimeout(err error) bool {
	t, ok := err.(interface{ Timeout() bool })
	return ok && t.Timeout()
}
