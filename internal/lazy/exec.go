package lazy

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strconv"

	"repro/internal/air"
	"repro/internal/backend"
	"repro/internal/ccache"
	"repro/internal/driver"
	"repro/internal/flight"
	"repro/internal/gogen"
	"repro/internal/lir"
	"repro/internal/sema"
	"repro/internal/vm"
)

// runBatch executes the Eval's batch number batch, compiling it only
// when the cache does not hold it. The batch's shape is looked up in
// the canonicalization memo first; only a shape seen for the first time
// is canonicalized to find its content address (the hash of its
// canonical words under the engine's options). A panic on the way — the
// compiler's, the emitter's, the build's — comes back as an error naming
// the batch by that address; the cache holds no trace of the attempt, so
// the same shape compiles afresh next time.
func (e *Engine) runBatch(ctx context.Context, ops []*op, batch int) (err error) {
	dopt := e.driverOptions()
	e.shape.of(ops, func(h *Handle) bool { return e.lastRead[h] > batch })
	me := e.memo.find(&e.shape)
	var cb *canonBatch
	var key ccache.Key
	if me != nil {
		key = me.key
		e.memoHits++
	} else {
		cb = canonicalize(ops, &e.shape, e.memo.hash)
		key = cb.key(dopt)
	}
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("lazy: batch %s: %w", key, flight.AsPanic(v))
		}
	}()
	if dopt.Backend.Native() && e.store == nil {
		st, err := backend.Open(e.opt.ArtifactDir)
		if err != nil {
			return err
		}
		e.store = st
	}

	// The engine's lock is held over the whole Eval and no other engine
	// shares this cache, so a miss has nobody to share its compile with.
	entry, ok := e.cache.Get(key)
	if !ok {
		if cb == nil {
			// Unreachable while dropEvicted runs after every eviction; the
			// shape canonicalizes to the key the memo holds either way.
			cb = canonicalize(ops, &e.shape, e.memo.hash)
		}
		if entry, err = e.compile(ctx, key, cb, dopt); err != nil {
			return err
		}
	}
	r := e.resident[key]
	if r == nil {
		// Kept only if the cache took the entry: one it refused gets a
		// record, and an executor, for this run only.
		r = &resident{}
		if _, ok := e.cache.Peek(key); ok {
			e.resident[key] = r
		}
	}
	if cb == nil {
		me.bind(&e.shape, &e.bound)
		cb = &e.bound
	} else if me == nil && e.resident[key] == r && r.shapes < memoShapesPerKey {
		e.memo.add(&e.shape, key, cb)
		r.shapes++
	}
	e.plans = append(e.plans, entry.Comp.Plan)
	err = e.runResident(ctx, cb, entry, r)
	if e.resident[key] != r {
		e.end(r.x) // the cache refused the entry: its executor served this run only
	}
	return err
}

// memoShapesPerKey caps the memo entries of one cached compilation: a
// caller reissuing independent ops in ever new orders makes a new shape
// each time, all canonicalizing to one key, and the memo must stay as
// bounded as the cache it indexes.
const memoShapesPerKey = 8

// resident is what the engine keeps beside one cached compilation for
// as long as the cache holds it. Its executor is checked out of it for a
// run and put back only when the run succeeds.
type resident struct {
	x      *executor // nil until started, and while a run has it checked out
	shapes int       // memo entries holding this key
}

// compile runs the pipeline over a batch that missed the cache and
// caches the result. The storage its executor will keep counts toward
// the entry's size — the program's price (lir.Program.Bytes) and what a
// worker keeps on top of it (executorWords) — known before the executor
// starts, so Options.CacheBytes bounds resident machines and workers
// too.
func (e *Engine) compile(ctx context.Context, key ccache.Key, cb *canonBatch, dopt driver.Options) (*ccache.Entry, error) {
	if e.compileHook != nil {
		e.compileHook()
	}
	prog, err := cb.build()
	if err != nil {
		return nil, err
	}
	comp, err := driver.CompileAIR(ctx, prog, dopt)
	if err != nil {
		return nil, err
	}
	price, err := comp.LIR.Bytes()
	if err != nil {
		return nil, err
	}
	entry := &ccache.Entry{Key: key, Kind: ccache.ArtifactLazy, Source: cb.source(), Comp: comp}
	spec := gogen.StateOf(comp.LIR)
	native := dopt.Backend.Native()
	if native {
		goSrc, err := gogen.EmitWorker(comp.LIR, comp.Bounds)
		if err != nil {
			return nil, err
		}
		if e.emitHook != nil {
			goSrc = e.emitHook(goSrc)
		}
		art, err := e.store.Build(ctx, goSrc)
		if err != nil {
			return nil, err
		}
		entry.GoSrc, entry.BinKey = goSrc, art.Key
	}
	words := executorWords(spec, residentArrays(comp.LIR, spec), native)
	entry.Size = ccache.SizeOf(entry) + price + 8*int64(words)
	evictions := e.cache.Stats().Evictions
	e.cache.Put(key, entry)
	if e.cache.Stats().Evictions != evictions {
		e.dropEvicted()
	}
	return entry, nil
}

// dropEvicted forgets the resident records and memo entries of keys the
// cache no longer holds, and ends their executors.
func (e *Engine) dropEvicted() {
	cached := func(k ccache.Key) bool {
		_, ok := e.cache.Peek(k)
		return ok
	}
	for k, r := range e.resident {
		if !cached(k) {
			e.end(r.x)
			delete(e.resident, k)
		}
	}
	e.memo.keep(cached)
}

// arrayUse is what a compiled batch does with one array's storage.
type arrayUse struct {
	written bool // some statement stores into it
	// deadIn is the rectangle the first statement touching the array
	// assigns without reading it: nothing can observe its cells' values
	// at entry. Nil when there is none.
	deadIn *sema.Region
}

// usesOf reads each array's arrayUse off a compiled batch. A batch's
// main is straight-line nests and writelns, and a nest runs its
// preloads, then each statement's reads before its store; a statement
// that stores without reading the array is the first to touch it only
// if nothing before it in that order did. Fusion keeps every dependence
// inside a nest pointing forward, so a later statement of the nest reads
// a cell of that rectangle only after the store. Any other node, which a
// batch does not compile to, counts as touching and storing into every
// array.
func usesOf(p *lir.Program) map[string]arrayUse {
	uses := make(map[string]arrayUse, len(p.Source.Arrays))
	touched := map[string]bool{}
	read := func(e air.Expr) {
		air.Walk(e, func(x air.Expr) {
			if r, ok := x.(*air.RefExpr); ok {
				touched[r.Ref.Array] = true
			}
		})
	}
	for _, node := range p.Main.Body {
		switch x := node.(type) {
		case *lir.Nest:
			for _, pl := range x.Preloads {
				touched[pl.Array] = true
			}
			for _, s := range x.Body {
				read(s.RHS)
				if s.IsReduce || s.Contracted {
					continue
				}
				u := uses[s.LHS]
				if !touched[s.LHS] {
					u.deadIn = x.Region
					if s.Guard != nil {
						u.deadIn = s.Guard
					}
				}
				u.written, touched[s.LHS] = true, true
				uses[s.LHS] = u
			}
		case *lir.Writeln, *lir.ScalarAssign:
		default:
			for name := range p.Source.Arrays {
				u := uses[name]
				u.written, touched[name] = true, true
				uses[name] = u
			}
		}
	}
	return uses
}

// seedOf is the value a handle brings into a batch: an array's host
// data, what an earlier batch of this Eval left in a Temp, or nil for a
// Temp with no value yet (its storage starts zeroed).
func (e *Engine) seedOf(h *Handle) []float64 {
	if !h.temp {
		return h.hostData()
	}
	return e.tempState[h]
}

// resultOf is where a batch's final value of a handle goes: an array's
// host data, a per-Eval buffer for a Temp a later batch of this Eval
// reads (it escapes), or nil for a Temp nothing reads again.
func (e *Engine) resultOf(h *Handle, escapes bool) []float64 {
	if !h.temp {
		return h.hostData()
	}
	if !escapes {
		return nil
	}
	buf := e.tempState[h]
	if buf == nil {
		buf = make([]float64, h.region.Size())
		e.tempState[h] = buf
	}
	return buf
}

// rowsOf calls f for each row of r — its cells along the last dimension,
// in row-major order — inside storage laid out row-major over alloc ⊇ r:
// the row's indices (the last one r's first column) and the position of
// its first cell in that storage (at) and in r's own row-major order
// (own).
func rowsOf(alloc, r *sema.Region, f func(idx [sema.MaxRank]int, at, own int)) {
	last := r.Rank() - 1
	var strides, idx [sema.MaxRank]int
	s := 1
	for d := last; d >= 0; d-- {
		strides[d] = s
		s *= alloc.Extent(d)
	}
	copy(idx[:], r.Lo)
	for own := 0; ; own += r.Extent(last) {
		at := 0
		for d := 0; d <= last; d++ {
			at += (idx[d] - alloc.Lo[d]) * strides[d]
		}
		f(idx, at, own)
		d := last - 1
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] <= r.Hi[d] {
				break
			}
			idx[d] = r.Lo[d]
		}
		if d < 0 {
			return
		}
	}
}

// rowIn reports whether the row at idx (rowsOf) belongs to r.
func rowIn(idx [sema.MaxRank]int, r *sema.Region) bool {
	for d := 0; d < r.Rank()-1; d++ {
		if idx[d] < r.Lo[d] || idx[d] > r.Hi[d] {
			return false
		}
	}
	return true
}

// seedArray writes one array's starting values over its declared
// rectangle decl (storage row-major over alloc ⊇ decl): src, row-major
// over decl, or zeros when src is nil, except over the dead-in rectangle
// dead ⊆ decl (nil: none), which the program assigns before anything
// reads it. The halo outside decl is left alone: no statement stores
// outside its array's declared region (Assign checks it), so halo cells
// keep the zeros vm.New gave them. It returns the number of cells it
// wrote.
func seedArray(data []float64, alloc, decl, dead *sema.Region, src []float64) int {
	last := decl.Rank() - 1
	n := decl.Extent(last)
	fill := func(to []float64, from int) {
		if src == nil {
			clear(to)
		} else {
			copy(to, src[from:])
		}
	}
	cells := 0
	rowsOf(alloc, decl, func(idx [sema.MaxRank]int, at, host int) {
		a, b := n, n // the row's dead cells, [a, b) from decl's first column
		if dead != nil && rowIn(idx, dead) {
			a, b = dead.Lo[last]-decl.Lo[last], dead.Hi[last]-decl.Lo[last]+1
		}
		fill(data[at:at+a], host)
		fill(data[at+b:at+n], host+b)
		cells += n - (b - a)
	})
	return cells
}

// readBack copies the declared rectangle of an array's storage
// (row-major over alloc ⊇ decl) to dst, row-major over decl.
func readBack(data []float64, alloc, decl *sema.Region, dst []float64) {
	n := decl.Extent(decl.Rank() - 1)
	rowsOf(alloc, decl, func(_ [sema.MaxRank]int, at, host int) {
		copy(dst[host:host+n], data[at:at+n])
	})
}

// residentArray is one array's storage in a resident executor.
type residentArray struct {
	name        string
	data        []float64 // a copied array's fixed buffer, or the storage the array runs on in this run
	alloc, decl *sema.Region
	handle      int // i for v<i>; -1 for storage no handle binds, the _t snapshots of a := f(a)
	arrayUse
	link
}

// link is how a run moves a handle's values into its executor and out.
// The rule is one for both engines (residentArrays).
type link uint8

const (
	// copied: seeded into a fixed buffer of the executor's own
	// (seedArray) and, when the batch writes it, read back (readBack): a
	// Temp, a _t snapshot and an array with a halo.
	copied link = iota
	// bound: the executor runs on the handle's storage itself. The VM
	// runs on the host slice; a worker runs on a pool slab the handle
	// holds as its storage, which the handle takes (one copy) when it
	// holds none of that worker's. A non-Temp handle the batch never
	// writes, whose storage has the executor array's layout.
	bound
	// swapped: seeded like a copied array into a free pool slab, which
	// becomes the handle's storage once the run succeeds (adopt). Nothing
	// is read back, and a run that fails leaves the handle's storage as
	// it was. A non-Temp handle the batch writes, laid out the same.
	swapped
)

// number is i for the canonical name kind<i> — v<i> for the array of
// the batch's handle i, s<i> for its scalar i (canonBatch.build) — or -1
// for a name the compiler made up, all of which start with "_".
func number(kind byte, name string) int {
	if i, err := strconv.Atoi(name[1:]); err == nil && name[0] == kind {
		return i
	}
	return -1
}

// residentArrays describes a compiled batch's allocated arrays, in the
// order of its state (gogen.StateOf): the handle each binds (number),
// what a run does with it and its link. Their storage is the executor's
// to fill in.
func residentArrays(p *lir.Program, spec *gogen.StateSpec) []residentArray {
	uses := usesOf(p)
	var arrays []residentArray
	for _, name := range spec.Arrays {
		info := p.Source.Arrays[name]
		a := residentArray{name: name, alloc: info.Alloc, decl: info.Declared,
			handle: number('v', name), arrayUse: uses[name]}
		if a.handle >= 0 && !info.Temp && a.alloc.Equal(a.decl) {
			a.link = bound
			if a.written {
				a.link = swapped
			}
		}
		arrays = append(arrays, a)
	}
	return arrays
}

// executorWords is the storage, in words, an executor whose state is
// spec and whose arrays are arrays keeps on top of its program's price
// (lir.Program.Bytes: a slab per array, all that a VM machine keeps).
// A worker's mapping adds the header and the scalars before the slabs
// (gogen.StateSpec) and a second slab per swapped array, since the
// handle keeps the one the last run wrote (adopt).
func executorWords(spec *gogen.StateSpec, arrays []residentArray, native bool) int {
	if !native {
		return 0
	}
	words := spec.Base()
	for _, a := range arrays {
		if a.link == swapped {
			words += a.alloc.Size()
		}
	}
	return words
}

// seedArrays writes the starting values of each array not bound by
// reference into its storage: the state of the handle it binds, or zeros
// (seedArray).
func (e *Engine) seedArrays(cb *canonBatch, arrays []residentArray) {
	for _, a := range arrays {
		if a.link == bound {
			continue
		}
		var src []float64
		if a.handle >= 0 {
			src = e.seedOf(cb.handles[a.handle])
		}
		e.stats.CopiedBytes += 8 * int64(seedArray(a.data, a.alloc, a.decl, a.deadIn, src))
	}
}

// readBackArrays copies each copied array the batch writes into where
// its handle's result goes (resultOf).
func (e *Engine) readBackArrays(cb *canonBatch, arrays []residentArray) {
	for _, a := range arrays {
		if a.handle >= 0 && a.written && a.link == copied {
			if dst := e.resultOf(cb.handles[a.handle], cb.escapes[a.handle]); dst != nil {
				readBack(a.data, a.alloc, a.decl, dst)
				e.stats.CopiedBytes += 8 * int64(len(dst))
			}
		}
	}
}

// executor runs a cached compilation's batches on storage it keeps
// between them: a machine on the VM, a worker process and its state
// mapping on the native backend. Everything but four operations is
// written once for both (runResident): point, anywhere (which storage
// the engine runs on in place), run and close. alive is true but for a
// worker killed from outside.
type executor struct {
	m       *vm.Machine     // the VM's machine, or nil
	w       *backend.Worker // the native worker, or nil
	arrays  []residentArray // arrays[k] is spec array k
	pool    []slab          // the storage bound and swapped arrays may run on
	on      []int           // on[k] is the pool slab arrays[k] runs on in this run, -1 for none
	scalars []*float64      // the engine's scalar slots, in spec order
	snums   []int           // snums[i] is j for the s<j> in scalars[i], -1 for a compiler register
}

// slab is storage in an executor's pool: a buffer of the machine's, or a
// slab of a worker's mapping. Slabs of one size are interchangeable:
// point says which array runs on which.
type slab struct {
	data  []float64 // its storage
	at    int       // its first word in a worker's mapping
	owner *Handle   // the handle last given it as storage (held says whether it still is)
	used  bool      // an array of the run being set up runs on it
}

// point makes data, whose first word in a worker's mapping is at, array
// k's storage for the next run.
func (x *executor) point(k int, data []float64, at int) {
	if x.w != nil {
		x.w.Point(k, at)
		return
	}
	x.m.SwapArray(x.arrays[k].name, data)
}

// anywhere reports whether the engine can run an array in place on any
// storage of the array's length, as the VM can; a worker runs only on
// slabs of its own mapping.
func (x *executor) anywhere() bool { return x.w == nil }

// run runs the batch once over the storage the arrays point at.
func (x *executor) run(ctx context.Context, out io.Writer) error {
	if x.w != nil {
		return x.w.Run(ctx, out)
	}
	x.m.Reset(ctx)
	_, err := x.m.Run()
	return err
}

// alive reports whether the executor can run: a worker killed between
// Evals cannot.
func (x *executor) alive() bool { return x.w == nil || x.w.Alive() }

// close stops a worker and unmaps its state. A machine has nothing to
// stop.
func (x *executor) close() error {
	if x.w == nil {
		return nil
	}
	return x.w.Close()
}

// held reports whether the slab is its owner's storage. The owner may
// have moved on since: to a slab of another worker, or to the heap.
func (s *slab) held() bool {
	return s.owner != nil && len(s.owner.data) == len(s.data) && &s.owner.data[0] == &s.data[0]
}

// evacuate moves the values of a slab its owner still holds to the Go
// heap, where the owner keeps them, and returns the words it copied.
func (s *slab) evacuate() int {
	n := 0
	if s.held() {
		s.owner.data = slices.Clone(s.data)
		n = len(s.data)
	}
	s.owner = nil
	return n
}

// start starts the executor of a cached compilation. On the VM that is
// a machine (each run installs its own context through Reset) whose
// buffers are the arrays' storage. On the native backend it is a worker
// over a mapping of its price and executorWords, carved into the
// header, the scalars and then each array's slabs in spec order; the
// artifact is re-resolved through the store (a stat on the content
// address), so a wiped store directory degrades to a rebuild, never a
// stale binary. A copied array keeps its first buffer; the others go
// to the pool, with a second for a swapped array on a worker.
func (e *Engine) start(ctx context.Context, entry *ccache.Entry) (*executor, error) {
	p := entry.Comp.LIR
	spec := gogen.StateOf(p)
	x := &executor{arrays: residentArrays(p, spec)}
	var buffer func(k int) slab
	var slot func(i int) *float64
	if !e.opt.Backend.Native() {
		m, err := vm.New(p, vm.Options{Out: e.out, Bounds: entry.Comp.Bounds})
		if err != nil {
			return nil, err
		}
		x.m = m
		buffer = func(k int) slab { return slab{data: m.ArrayData(x.arrays[k].name)} }
		slot = func(i int) *float64 { return m.ScalarSlot(spec.Scalars[i]) }
	} else {
		price, err := p.Bytes()
		if err != nil {
			return nil, err
		}
		art, err := e.store.Build(ctx, entry.GoSrc)
		if err != nil {
			return nil, err
		}
		if x.w, err = art.Start(ctx, int(price>>3)+executorWords(spec, x.arrays, true)); err != nil {
			return nil, err
		}
		state := x.w.State()
		at := spec.Base()
		buffer = func(k int) slab {
			n := x.arrays[k].alloc.Size()
			at += n
			return slab{data: state[at-n : at : at], at: at - n}
		}
		slot = func(i int) *float64 { return &state[spec.Scalar(i)] }
	}
	e.starts++
	x.on = make([]int, len(x.arrays))
	for k := range x.arrays {
		switch a, s := &x.arrays[k], buffer(k); a.link {
		case copied:
			a.data = s.data
			x.point(k, s.data, s.at)
		case swapped:
			if !x.anywhere() {
				x.pool = append(x.pool, buffer(k))
			}
			fallthrough
		case bound:
			x.pool = append(x.pool, s)
		}
	}
	for i, n := range spec.Scalars {
		if s := slot(i); s != nil {
			x.scalars = append(x.scalars, s)
			x.snums = append(x.snums, number('s', n))
		}
	}
	return x, nil
}

// end ends an executor, if x is one; nothing else does. A worker's
// mapping goes with it, so first every pool slab a handle still holds
// moves to the Go heap: no handle is left viewing storage that is about
// to be unmapped.
func (e *Engine) end(x *executor) error {
	if x == nil {
		return nil
	}
	for i := range x.pool {
		e.stats.CopiedBytes += 8 * int64(x.pool[i].evacuate())
	}
	return x.close()
}

// place chooses the storage each bound and swapped array runs on and
// points the engine at it. A bound array runs in place on its handle's
// storage when the engine can: on the VM always, on a worker when the
// handle holds one of its pool slabs. Every other one takes a pool slab
// no array of this run uses and no handle holds (free): a bound array
// copies its handle's values in and the handle holds the slab from then
// on; a swapped array's slab is seeded by seedArrays and handed to its
// handle only after the run succeeds (adopt).
func (x *executor) place(e *Engine, cb *canonBatch) {
	for i := range x.pool {
		x.pool[i].used = false
	}
	for k := range x.arrays {
		x.on[k] = -1
		if a := &x.arrays[k]; a.link == bound {
			for i := range x.pool {
				if s := &x.pool[i]; s.owner == cb.handles[a.handle] && s.held() {
					x.on[k], s.used = i, true
					break
				}
			}
		}
	}
	for k := range x.arrays {
		a := &x.arrays[k]
		if a.link == copied {
			continue
		}
		h := cb.handles[a.handle]
		if x.on[k] < 0 {
			if a.link == bound && x.anywhere() {
				a.data = h.hostData()
				x.point(k, a.data, 0)
				continue
			}
			x.on[k] = x.free(e, a.alloc.Size())
			if s := &x.pool[x.on[k]]; a.link == bound {
				copy(s.data, h.hostData())
				e.stats.CopiedBytes += 8 * int64(len(s.data))
				s.owner, h.data = h, s.data
			}
		}
		s := &x.pool[x.on[k]]
		s.used, a.data = true, s.data
		x.point(k, s.data, s.at)
	}
}

// free returns a pool slab of n words that no array of this run uses and
// no handle holds. When every such slab is held, it evacuates the first
// one this run does not use: its owner's values move to the Go heap.
// There is always one, since the pool has a slab per bound and swapped
// array, and on a worker a second per swapped one.
func (x *executor) free(e *Engine, n int) int {
	spare := -1
	for i := range x.pool {
		s := &x.pool[i]
		if s.used || len(s.data) != n {
			continue
		}
		if !s.held() {
			return i
		}
		if spare < 0 {
			spare = i
		}
	}
	e.stats.CopiedBytes += 8 * int64(x.pool[spare].evacuate())
	return spare
}

// adopt hands each swapped array's slab to its handle after a successful
// run. On the VM the storage the handle gives up takes the slab's place
// in the pool, which keeps one buffer per array; on a worker it is
// dropped, or, if it was a slab of this worker's, free again.
func (x *executor) adopt(cb *canonBatch) {
	for k := range x.arrays {
		if a := &x.arrays[k]; a.link == swapped {
			s, h := &x.pool[x.on[k]], cb.handles[a.handle]
			if x.anywhere() {
				s.data, h.data = h.data, s.data
			} else {
				s.owner, h.data = h, s.data
			}
		}
	}
}

// runResident executes a compiled batch on its resident executor,
// starting one when there is none or the last one's worker was killed
// between Evals. A rerun starts from the bytes a fresh executor plus the
// seed would, as far as the program can observe: place puts bound and
// swapped arrays on their storage, each handle's state is copied into
// the declared rectangle of its copied or swapped array, the declared
// rectangle of a Temp with no value yet this Eval (a batch may read a
// Temp cell it writes only later) and of a _t snapshot is zeroed, halo
// cells are still the zeros the executor started with, and so is every
// compiler register. What the first statement touching an array assigns
// without reading (arrayUse.deadIn) is neither copied nor zeroed, and
// only what the program stores into a copied array is read back. The
// executor is checked out of the record for the run and put back only
// when the run succeeds, so a run that fails, traps, is cancelled or
// panics ends its executor (end) having written only its copied arrays
// and pool slabs no handle holds: every handle is what it was.
func (e *Engine) runResident(ctx context.Context, cb *canonBatch, entry *ccache.Entry, r *resident) error {
	x := r.x
	r.x = nil
	if x != nil && !x.alive() {
		e.end(x)
		x = nil
	}
	if x == nil {
		var err error
		if x, err = e.start(ctx, entry); err != nil {
			return err
		}
	}
	defer func() {
		if r.x == nil {
			e.end(x)
		}
	}()
	x.place(e, cb)
	e.seedArrays(cb, x.arrays)
	for i, s := range x.snums {
		*x.scalars[i] = 0
		if s >= 0 {
			*x.scalars[i] = cb.scalars[s].val
		}
	}
	if err := x.run(ctx, e.out); err != nil {
		return err
	}
	x.adopt(cb)
	e.readBackArrays(cb, x.arrays)
	for i, s := range x.snums {
		if s >= 0 {
			cb.scalars[s].val = *x.scalars[i]
		}
	}
	r.x = x
	return nil
}
