// Package ccache is a content-addressed compilation cache: entries
// are keyed by the SHA-256 of the program source plus a canonical
// fingerprint of the driver options that shape the artifact, so a
// repeated compile of an identical (source, options) request is a map
// lookup instead of a pipeline run. The cache is a byte-bounded LRU: it
// never holds more than its budget of artifact bytes, evicting
// least-recently-used entries. It does not compute: zpld's concurrent
// misses collapse in the store in front of it (store.Tiered, through
// internal/flight), and the lazy engine, its other user, looks up and
// inserts under its own lock.
//
// Cached entries are shared by reference, which is sound because a
// finished Compilation is immutable: the VM and the distributed
// interpreter allocate their own storage per run and only read the
// LIR (see internal/vm, internal/distvm).
package ccache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/driver"
	"repro/internal/lir"
)

// Key is the content address of one compilation.
type Key [sha256.Size]byte

// String renders the key as hex (shortened keys are for logs; the map
// always uses the full digest).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ArtifactKind says what payload an entry holds beyond the compiled
// IR. It is part of the content address: a native-backend /run and a
// VM /run of the same (source, options) must not share an entry,
// because only one of them carries a built binary — serving the other
// from it would silently answer a native request with a VM artifact
// (or vice versa).
type ArtifactKind string

// The artifact kinds.
const (
	// ArtifactIR is a plain compilation: AIR/LIR plus plan metadata
	// (the default; the empty string means ArtifactIR).
	ArtifactIR ArtifactKind = "ir"
	// ArtifactNative is a compilation plus a built native binary
	// (Entry.Bin) produced by the go backend.
	ArtifactNative ArtifactKind = "native"
	// ArtifactTune is a serialized tuning result (Entry.Aux) with no
	// compilation attached.
	ArtifactTune ArtifactKind = "tune"
	// ArtifactLazy is a compilation of a canonicalized lazy-runtime
	// batch (internal/lazy): the "source" under the key is the batch's
	// canonical words as bytes, not ZA text, so the kind keeps lazy
	// entries from ever aliasing a ZA program with the same bytes.
	ArtifactLazy ArtifactKind = "lazy"
)

// Fingerprint renders the semantically significant fields of
// driver.Options in a canonical form: optimization level, sorted
// config overrides, scalar replacement, verifier gating, the
// execution backend, and the full communication configuration
// (processor count, strategy, and each optimization toggle — the
// "machine model" of a request). Hooks are deliberately excluded:
// they observe a compilation without changing its artifact. The
// backend is included precisely because the artifact differs: a
// native-backend entry holds a built binary. BackendVM (and "") add
// nothing, keeping every pre-backend fingerprint stable.
func Fingerprint(opt driver.Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "level=%s", opt.Level)
	if opt.Backend != "" && opt.Backend != driver.BackendVM {
		fmt.Fprintf(&b, ";backend=%s", opt.Backend)
	}
	if len(opt.Configs) > 0 {
		names := make([]string, 0, len(opt.Configs))
		for k := range opt.Configs {
			names = append(names, k)
		}
		sort.Strings(names)
		b.WriteString(";configs=")
		for i, k := range names {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s=%d", k, opt.Configs[k])
		}
	}
	fmt.Fprintf(&b, ";scalarrep=%t;check=%t", opt.ScalarReplace, opt.Check)
	// The bounds prover shapes the artifact (unchecked dispatch, elided
	// trap scaffold), so a proven and an unproven compilation of the
	// same source never alias; the default (prover on, no fault) adds
	// no term, keeping pre-existing fingerprints stable.
	if opt.NoProve {
		b.WriteString(";prove=off")
	}
	if opt.ProveFault > 0 {
		fmt.Fprintf(&b, ";provefault=%d", opt.ProveFault)
	}
	// Likewise the race analyzer: a cached entry carries the verdict
	// census (Compilation.Races) that zpld replies and metrics consume,
	// so an analyzer-off compilation must not alias the default one.
	if opt.NoRace {
		b.WriteString(";race=off")
	}
	if opt.Plan != nil {
		// An externally supplied plan replaces the level as the
		// artifact-shaping input; its content address stands in for it.
		fmt.Fprintf(&b, ";plan=%s", opt.Plan.Hash())
	}
	if opt.Comm != nil && opt.Comm.Procs > 1 {
		// relim, combine and pipeline were settable once; their literal
		// values keep every key built since then unchanged.
		fmt.Fprintf(&b, ";comm=procs=%d,strategy=%s,relim=true,combine=true,pipeline=true",
			opt.Comm.Procs, opt.Comm.Strategy)
	}
	return b.String()
}

// KeyOf derives the content address of (source, options).
func KeyOf(source string, opt driver.Options) Key {
	return KeyOfExtra(source, opt, "")
}

// KeyOfKind derives the content address of (source, options) holding
// an artifact of the given kind. ArtifactIR (and "") is the identity:
// it produces KeyOf's address, so plain compilations keep their
// pre-kind keys.
func KeyOfKind(source string, opt driver.Options, kind ArtifactKind) Key {
	if kind == "" || kind == ArtifactIR {
		return KeyOf(source, opt)
	}
	return KeyOfExtra(source, opt, "kind="+string(kind))
}

// KeyOfExtra derives a content address for (source, options) plus an
// extra request dimension the options struct does not carry — e.g.
// the /tune endpoint folds its search bounds and cost-model choice
// in, so differently-bounded searches of one source cache separately.
func KeyOfExtra(source string, opt driver.Options, extra string) Key {
	return KeyOfParts(Fingerprint(opt), extra, source)
}

// KeyOfParts derives a content address from an already-rendered
// options fingerprint, the extra dimension, and the source text. It is
// the hash KeyOfExtra computes, split out so tools that already hold a
// rendered fingerprint (internal/store, offline cache inspection) can
// derive keys without reconstructing a driver.Options value.
func KeyOfParts(fingerprint, extra, source string) Key {
	h := sha256.New()
	h.Write([]byte(fingerprint))
	if extra != "" {
		h.Write([]byte{1})
		h.Write([]byte(extra))
	}
	h.Write([]byte{0})
	h.Write([]byte(source))
	var k Key
	copy(k[:], h.Sum(nil))
	return k
}

// Meta is the serializable response metadata of one artifact: the
// counts and verdict censuses a service reports about a compilation.
// It is derived once, at compile time, from the full Compilation —
// and because it is plain data it travels with the entry through the
// disk and peer tiers of internal/store, where the deep IR structures
// (AIR, plan, sema info) do not. An entry rehydrated from another
// process carries Comp.LIR (enough to execute) plus Meta (enough to
// answer); consumers must read these fields rather than reaching into
// Comp.AIR or Comp.Plan, which are nil on rehydrated entries.
type Meta struct {
	NestCount  int // loop nests after fusion
	Arrays     int // static arrays before contraction
	Contracted int // arrays eliminated (compiler + user)

	Bounds *BoundsMeta // bounds-prover census; nil when the prover was off
	Races  *RaceMeta   // race-analyzer census; nil for sequential programs

	// RemarksJSON is the serialized []remark.Remark of the plan, kept
	// in wire form so rehydrated entries can answer remark requests
	// without carrying the plan object graph.
	RemarksJSON []byte
}

// BoundsMeta is the bounds prover's verdict census.
type BoundsMeta struct {
	Sites, Proven, Unknown, Unsafe int
}

// RaceMeta is the happens-before analyzer's verdict census.
type RaceMeta struct {
	Pairs, Ordered, Race, Unknown, Deadlocks int
}

// Entry is one cached compilation artifact: the compiled program
// (AIR/LIR), the generated Go source, and the experiment-ready plan
// metadata the service reports without re-deriving.
type Entry struct {
	Key    Key
	Kind   ArtifactKind // what the entry holds; "" means ArtifactIR
	Source string
	Comp   *driver.Compilation
	Meta   *Meta  // serializable response metadata (see Meta)
	GoSrc  string // generated Go program ("" when emission was not requested)
	Plan   string // plan summary: contraction counts, nests, comm stats
	// Bin is the path of the built native binary in the backend's
	// artifact store (ArtifactNative entries only). The store is
	// content-addressed on the generated source, so the path stays
	// valid for the life of the store directory.
	Bin string
	// BinKey is the backend artifact store's content address of the
	// generated Go source (its hex digest), for logs and responses.
	BinKey string
	// Aux holds endpoint-specific payload bytes — the /tune endpoint
	// caches its serialized tuning result here with Comp nil.
	Aux  []byte
	Size int64 // accounted bytes; see SizeOf
}

// SizeOf estimates the resident cost of an entry in bytes: the exact
// length of its textual artifacts plus a structural estimate for the
// IR (nodes are small heap objects; 128 bytes each is deliberately
// generous so the byte bound errs toward evicting early).
func SizeOf(e *Entry) int64 {
	n := int64(len(e.Source) + len(e.GoSrc) + len(e.Plan) + len(e.Aux) + len(e.Bin) + len(e.BinKey))
	if e.Meta != nil {
		n += int64(len(e.Meta.RemarksJSON)) + 128
	}
	if e.Comp != nil && e.Comp.LIR != nil {
		n += 128 * countNodes(e.Comp.LIR)
	}
	return n + 4096 // fixed overhead: maps, headers, sema info
}

func countNodes(p *lir.Program) int64 {
	var n int64
	var walk func(ns []lir.Node)
	walk = func(ns []lir.Node) {
		for _, nd := range ns {
			n++
			switch x := nd.(type) {
			case *lir.Nest:
				n += int64(len(x.Body))
			case *lir.Loop:
				walk(x.Body)
			case *lir.While:
				walk(x.Body)
			case *lir.If:
				walk(x.Then)
				walk(x.Else)
			}
		}
	}
	for _, pr := range p.Procs {
		walk(pr.Body)
	}
	return n
}

// Outcome says how a lookup was served.
type Outcome int

// Lookup outcomes.
const (
	// Miss: this caller ran the compile.
	Miss Outcome = iota
	// Hit: served from the cache.
	Hit
	// Dedup: joined another caller's in-flight compile of the same key.
	Dedup
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Dedup:
		return "dedup"
	default:
		return "miss"
	}
}

// Stats is a snapshot of the cache's counters. A Cache counts its own
// lookups; store.Tiered overwrites the three flow counters with its
// cross-tier ones.
type Stats struct {
	Hits      int64 // lookups served from the cache
	Misses    int64 // lookups that found nothing (and so ran a compile)
	DedupHits int64 // lookups that joined an in-flight compile (store.Tiered only)
	Evictions int64 // entries evicted by the byte bound
	TooLarge  int64 // computed entries larger than the whole budget (never cached)
	Bytes     int64 // resident artifact bytes
	Entries   int64 // resident entry count
	MaxBytes  int64 // configured budget
}

// Sub returns the counter deltas s − prev: the activity between two
// snapshots. Steady-state assertions ("the second Eval recompiled
// nothing") diff snapshots instead of assuming a fresh cache. The
// gauge fields (Bytes, Entries, MaxBytes) are carried from s, not
// differenced.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Hits:      s.Hits - prev.Hits,
		Misses:    s.Misses - prev.Misses,
		DedupHits: s.DedupHits - prev.DedupHits,
		Evictions: s.Evictions - prev.Evictions,
		TooLarge:  s.TooLarge - prev.TooLarge,
		Bytes:     s.Bytes,
		Entries:   s.Entries,
		MaxBytes:  s.MaxBytes,
	}
}

// Cache is the byte-bounded LRU cache. All methods are safe for
// concurrent use.
type Cache struct {
	mu      sync.Mutex
	max     int64
	size    int64
	ll      *list.List // front = most recently used; values are *Entry
	entries map[Key]*list.Element

	hits, misses, evictions, tooLarge int64
}

// New creates a cache bounded to maxBytes of accounted artifact bytes.
// maxBytes <= 0 means unbounded.
func New(maxBytes int64) *Cache {
	return &Cache{max: maxBytes, ll: list.New(), entries: map[Key]*list.Element{}}
}

// Get looks k up: a hit refreshes its recency, and either outcome is
// counted. A caller that compiles on a miss and Puts the result (the
// lazy engine) makes Misses its compile count.
func (c *Cache) Get(k Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*Entry), true
}

// Peek returns the entry for k without touching counters or recency —
// the read used when this cache is one tier of a larger store and the
// store keeps its own accounting (a peer serving an artifact out of
// its memory tier must not inflate that node's request hit rate).
func (c *Cache) Peek(k Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	return el.Value.(*Entry), true
}

// Put inserts an entry: the lazy engine's freshly compiled batch, and
// the promotion path of the tiered store, which uses this cache purely
// as its memory tier. LRU entries past the byte bound are evicted;
// inserting an already-resident key refreshes its recency.
func (c *Cache) Put(k Key, e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Eviction needs the reverse mapping. An entry that already carries
	// its key may be shared (a peer can be encoding it out of another
	// cache right now), so it is not written again.
	if e.Key != k {
		e.Key = k
	}
	if e.Size <= 0 {
		e.Size = SizeOf(e)
	}
	if old, ok := c.entries[k]; ok {
		// Already resident (a peer's put raced a compile, say).
		c.ll.MoveToFront(old)
		return
	}
	if c.max > 0 && e.Size > c.max {
		c.tooLarge++
		return
	}
	c.entries[k] = c.ll.PushFront(e)
	c.size += e.Size
	for c.max > 0 && c.size > c.max {
		back := c.ll.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*Entry)
		c.ll.Remove(back)
		delete(c.entries, victim.Key)
		c.size -= victim.Size
		c.evictions++
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		TooLarge:  c.tooLarge,
		Bytes:     c.size,
		Entries:   int64(c.ll.Len()),
		MaxBytes:  c.max,
	}
}
