package lazy

import (
	"context"
	"fmt"
	"slices"
	"sort"
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
	native := dopt.Backend.Native()
	if native && e.store == nil {
		st, err := backend.Open(e.opt.ArtifactDir)
		if err != nil {
			return err
		}
		e.store = st
	}

	// The engine's lock is held over the whole Eval and no other engine
	// shares this cache, so a miss has nobody to share its compile with.
	entry, ok := e.cache.Get(key)
	r := e.resident[key]
	if !ok {
		if cb == nil {
			// Unreachable while dropEvicted runs after every eviction; the
			// shape canonicalizes to the key the memo holds either way.
			cb = canonicalize(ops, &e.shape, e.memo.hash)
		}
		if entry, r, err = e.compile(ctx, key, cb, dopt); err != nil {
			return err
		}
	} else if r == nil {
		r = &resident{}
		e.resident[key] = r
	}
	if cb == nil {
		me.bind(&e.shape, &e.bound)
		cb = &e.bound
	} else if me == nil && e.resident[key] == r && r.shapes < memoShapesPerKey {
		e.memo.add(&e.shape, key, cb)
		r.shapes++
	}
	e.plans = append(e.plans, entry.Comp.Plan)
	if !native {
		return e.runVM(ctx, cb, entry.Comp, r)
	}
	err = e.runNative(ctx, cb, entry, r)
	if e.resident[key] != r {
		e.endWorker(r.native) // the cache refused the entry: its worker served this run only
	}
	return err
}

// memoShapesPerKey caps the memo entries of one cached compilation: a
// caller reissuing independent ops in ever new orders makes a new shape
// each time, all canonicalizing to one key, and the memo must stay as
// bounded as the cache it indexes.
const memoShapesPerKey = 8

// resident is what the engine keeps beside one cached compilation for
// as long as the cache holds it. Both executors are checked out of it
// for a run and put back only when the run succeeds.
type resident struct {
	vm     *residentVM     // nil until built, and while a run has it checked out
	native *residentNative // nil until started, and while a run has it checked out
	shapes int             // memo entries holding this key
}

// compile runs the pipeline over a batch that missed the cache and
// caches the result. On the VM the machine is built here, after the
// compile succeeded, and its storage counts toward the entry's size, so
// Options.CacheBytes bounds resident machines too; a native entry counts
// its worker's state mapping the same way, every slab of it
// (workerWords). The returned record is the engine's for key, or a
// throwaway when the entry did not fit.
func (e *Engine) compile(ctx context.Context, key ccache.Key, cb *canonBatch, dopt driver.Options) (*ccache.Entry, *resident, error) {
	if e.compileHook != nil {
		e.compileHook()
	}
	prog, err := cb.build()
	if err != nil {
		return nil, nil, err
	}
	comp, err := driver.CompileAIR(ctx, prog, dopt)
	if err != nil {
		return nil, nil, err
	}
	entry := &ccache.Entry{Key: key, Kind: ccache.ArtifactLazy, Source: cb.source(), Comp: comp}
	r := &resident{}
	if dopt.Backend.Native() {
		spec := stateSpec(comp.LIR)
		goSrc, err := gogen.EmitState(comp.LIR, comp.Bounds, spec)
		if err != nil {
			return nil, nil, err
		}
		if e.emitHook != nil {
			goSrc = e.emitHook(goSrc)
		}
		art, err := e.store.Build(ctx, goSrc)
		if err != nil {
			return nil, nil, err
		}
		entry.GoSrc, entry.Bin, entry.BinKey = goSrc, art.Bin, art.Key
		words := workerWords(residentArrays(comp.LIR, canonNumbers(cb)), len(spec.Scalars))
		entry.Size = ccache.SizeOf(entry) + 8*int64(words)
	} else {
		if r.vm, err = e.buildMachine(comp, cb); err != nil {
			return nil, nil, err
		}
		entry.Size = ccache.SizeOf(entry) + r.vm.m.MemoryFootprint()
	}
	evictions := e.cache.Stats().Evictions
	e.cache.Put(key, entry)
	if e.cache.Stats().Evictions != evictions {
		e.dropEvicted()
	}
	if _, ok := e.cache.Peek(key); ok {
		e.resident[key] = r
	}
	return entry, r, nil
}

// dropEvicted forgets the resident records and memo entries of keys the
// cache no longer holds, and stops their workers.
func (e *Engine) dropEvicted() {
	cached := func(k ccache.Key) bool {
		_, ok := e.cache.Peek(k)
		return ok
	}
	for k, r := range e.resident {
		if !cached(k) {
			e.endWorker(r.native)
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

// allocated is the names of a compiled batch's allocated
// (non-contracted) arrays, in sorted order.
func allocated(p *lir.Program) []string {
	var names []string
	for n, a := range p.Source.Arrays {
		if !a.Contracted {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// stateSpec lays out a native compilation's worker state: every
// allocated array, then every scalar, each in sorted name order.
func stateSpec(p *lir.Program) *gogen.StateSpec {
	spec := &gogen.StateSpec{Arrays: allocated(p)}
	for n := range p.Source.Scalars {
		spec.Scalars = append(spec.Scalars, n)
	}
	sort.Strings(spec.Scalars)
	return spec
}

// canonNumbers maps the canonical names cb binds, v<i> and s<i>, to i.
func canonNumbers(cb *canonBatch) map[string]int {
	canon := make(map[string]int, len(cb.handles)+len(cb.scalars))
	for i := range cb.handles {
		canon["v"+strconv.Itoa(i)] = i
	}
	for i := range cb.scalars {
		canon["s"+strconv.Itoa(i)] = i
	}
	return canon
}

// number is canon[name], or -1 for a name no handle or scalar binds.
func number(canon map[string]int, name string) int {
	if i, ok := canon[name]; ok {
		return i
	}
	return -1
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

// residentVM is a machine kept beside its cached compilation, with the
// storage of every array and what a run does with it looked up once.
type residentVM struct {
	m      *vm.Machine
	arrays []residentArray
	snames []string // snames[i] is "s<i>"
}

// residentArray is one array's storage in a resident executor.
type residentArray struct {
	name        string
	data        []float64 // the machine's buffer, a worker's fixed slab, or the pool slab of a worker's run
	alloc, decl *sema.Region
	handle      int // i for v<i>; -1 for storage no handle binds, the _t snapshots of a := f(a)
	arrayUse
	link
}

// link is how a run moves a handle's values into its executor and out.
// The rule is one for both executors (residentArrays).
type link uint8

const (
	// copied: seeded into storage of the executor's own (seedArray) and,
	// when the batch writes it, read back (readBack): a Temp, a _t
	// snapshot and an array with a halo. On a worker this storage is a
	// fixed slab of the mapping.
	copied link = iota
	// bound: the executor runs on the handle's storage itself. The VM
	// swaps the host slice into the machine for the run and out after
	// it; a worker runs on a pool slab the handle holds as its storage,
	// which the handle takes (one copy) when it holds none of that
	// worker's. A non-Temp handle the batch never writes, whose storage
	// has the executor array's layout.
	bound
	// swapped: seeded like a copied array into a buffer the handle does
	// not hold — the machine's own, or a free pool slab of the worker —
	// which becomes the handle's storage once the run succeeds (on the VM
	// the old host slice becomes the machine's). Nothing is read back,
	// and a run that fails leaves the handle's storage as it was. A
	// non-Temp handle the batch writes, laid out the same.
	swapped
)

// buildMachine builds the machine for a compiled batch whose canonical
// names cb binds; each run installs its own context through Reset.
func (e *Engine) buildMachine(comp *driver.Compilation, cb *canonBatch) (*residentVM, error) {
	m, err := vm.New(comp.LIR, vm.Options{Out: e.out, Bounds: comp.Bounds})
	if err != nil {
		return nil, err
	}
	e.machineBuilds++
	rv := &residentVM{m: m, snames: make([]string, len(cb.scalars)),
		arrays: residentArrays(comp.LIR, canonNumbers(cb))}
	for i := range rv.snames {
		rv.snames[i] = "s" + strconv.Itoa(i)
	}
	for i := range rv.arrays {
		rv.arrays[i].data = m.ArrayData(rv.arrays[i].name)
	}
	return rv, nil
}

// residentArrays describes a compiled batch's allocated arrays, in the
// order of allocated (and so of a worker's state spec): the handle each
// binds, by the canonical numbers canon, what a run does with it and its
// link. Their storage is the executor's to fill in.
func residentArrays(p *lir.Program, canon map[string]int) []residentArray {
	uses := usesOf(p)
	var arrays []residentArray
	for _, name := range allocated(p) {
		info := p.Source.Arrays[name]
		a := residentArray{name: name, alloc: info.Alloc, decl: info.Declared,
			handle: number(canon, name), arrayUse: uses[name]}
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

// runVM executes a compiled batch on its resident machine, building one
// when there is none. A rerun starts from the bytes a fresh machine plus
// the seed would, as far as the program can observe: each handle's state
// is copied into its declared rectangle, the declared rectangle of a
// Temp with no value yet this Eval (a batch may read a Temp cell it
// writes only later) and of a _t snapshot is zeroed, and halo cells are
// still the zeros vm.New left. What the first statement touching an
// array assigns without reading (arrayUse.deadIn) is neither copied nor
// zeroed, and only what the program stores into is read back. A handle
// the batch only reads is not copied at all when its host slice has the
// storage's layout: the machine runs on the host slice (link bound). One
// it writes is seeded the same way into the machine's own buffer, which
// then trades places with the host slice (link swapped). The machine is
// checked out of the record for the run and put back only when the run
// succeeds, so a run that fails or panics leaves no machine behind, and
// no handle changed: it wrote none of the host slices it ran on.
func (e *Engine) runVM(ctx context.Context, cb *canonBatch, comp *driver.Compilation, r *resident) error {
	rv := r.vm
	r.vm = nil
	if rv == nil {
		var err error
		if rv, err = e.buildMachine(comp, cb); err != nil {
			return err
		}
	}
	e.seedArrays(cb, rv.arrays)
	for i := range rv.arrays {
		if a := &rv.arrays[i]; a.link == bound {
			rv.m.SwapArray(a.name, cb.handles[a.handle].hostData())
		}
	}
	for i, s := range cb.scalars {
		rv.m.SetScalar(rv.snames[i], s.val)
	}
	rv.m.Reset(ctx)
	if _, err := rv.m.Run(); err != nil {
		return err
	}
	for i := range rv.arrays {
		switch a := &rv.arrays[i]; a.link {
		case bound:
			rv.m.SwapArray(a.name, a.data)
		case swapped:
			h := cb.handles[a.handle]
			h.data, a.data = a.data, h.data
			rv.m.SwapArray(a.name, a.data)
		}
	}
	e.readBackArrays(cb, rv.arrays)
	for i, s := range cb.scalars {
		if v, ok := rv.m.Scalar(rv.snames[i]); ok {
			s.val = v
		}
	}
	r.vm = rv
	return nil
}

// residentNative is a worker kept beside its cached native compilation,
// with the views of its state mapping looked up once: the fixed slab of
// each copied array, the pool of slabs its bound and swapped arrays run
// on, and each scalar's slot with the canonical scalar it holds.
type residentNative struct {
	w       *backend.Worker
	arrays  []residentArray // arrays[k] is spec array k, named by header word k
	pool    []slab
	on      []int     // on[k] is the pool slab arrays[k] runs on in this run, -1 for a copied array
	scalars []float64 // the mapping's scalar slots, in spec order
	snums   []int     // snums[i] is j for the s<j> in slot i, -1 for a compiler register
}

// slab is a slab of a worker's pool. Slabs of one size are
// interchangeable: the header says which array runs on which.
type slab struct {
	data  []float64 // its view of the mapping
	at    int       // its first word
	owner *Handle   // the handle last given it as storage (held says whether it still is)
	used  bool      // an array of the run being set up runs on it
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

// workerWords is the size, in words, of the mapping of a worker whose
// arrays are arrays (in spec order) and whose spec has nscalars
// scalars: the header and the scalars (gogen.StateSpec), then a fixed
// slab for each copied array, a pool slab for each bound one and two for
// each swapped one — the one its handle holds and the one the run
// writes.
func workerWords(arrays []residentArray, nscalars int) int {
	words := len(arrays) + nscalars
	for _, a := range arrays {
		n := a.alloc.Size()
		if a.link == swapped {
			n *= 2
		}
		words += n
	}
	return words
}

// startWorker starts the worker of a cached native compilation whose
// canonical names cb binds, over a mapping of workerWords, and carves
// it: header, scalars, then each array's slabs in spec order. The
// artifact is re-resolved through the store (a stat on the content
// address), so a wiped store directory degrades to a rebuild, never a
// stale binary.
func (e *Engine) startWorker(ctx context.Context, entry *ccache.Entry, cb *canonBatch) (*residentNative, error) {
	art, err := e.store.Build(ctx, entry.GoSrc)
	if err != nil {
		return nil, err
	}
	p := entry.Comp.LIR
	spec := stateSpec(p)
	canon := canonNumbers(cb)
	arrays := residentArrays(p, canon)
	w, err := art.Start(ctx, workerWords(arrays, len(spec.Scalars)))
	if err != nil {
		return nil, err
	}
	e.workerStarts++
	state := w.State()
	at := len(arrays) + len(spec.Scalars)
	rn := &residentNative{w: w, arrays: arrays, on: make([]int, len(arrays)), scalars: state[len(arrays):at]}
	carve := func(n int) slab {
		at += n
		return slab{data: state[at-n : at : at], at: at - n}
	}
	for k := range arrays {
		a := &arrays[k]
		n := a.alloc.Size()
		switch a.link {
		case copied:
			s := carve(n)
			w.Point(k, s.at)
			a.data = s.data
		case swapped:
			rn.pool = append(rn.pool, carve(n))
			fallthrough
		case bound:
			rn.pool = append(rn.pool, carve(n))
		}
	}
	for _, n := range spec.Scalars {
		rn.snums = append(rn.snums, number(canon, n))
	}
	return rn, nil
}

// endWorker ends a resident native worker, if rn is one; nothing else
// closes one. The mapping goes with the worker, so first every pool slab
// a handle still holds moves to the Go heap: no handle is left viewing
// storage that is about to be unmapped.
func (e *Engine) endWorker(rn *residentNative) error {
	if rn == nil {
		return nil
	}
	for i := range rn.pool {
		e.stats.CopiedBytes += 8 * int64(rn.pool[i].evacuate())
	}
	return rn.w.Close()
}

// place chooses the pool slab each bound and swapped array runs on and
// points the header at it. A bound array whose handle holds a pool slab
// runs on it as it is. Every other one takes a slab no array of this run
// uses and no handle holds: a bound array copies its handle's values in
// and the handle holds the slab from then on; a swapped array's slab is
// seeded by seedArrays and handed to its handle only after the run
// succeeds.
func (rn *residentNative) place(e *Engine, cb *canonBatch) {
	for i := range rn.pool {
		rn.pool[i].used = false
	}
	for k := range rn.arrays {
		rn.on[k] = -1
		if a := &rn.arrays[k]; a.link == bound {
			for i := range rn.pool {
				if s := &rn.pool[i]; s.owner == cb.handles[a.handle] && s.held() {
					rn.on[k], s.used = i, true
					break
				}
			}
		}
	}
	for k := range rn.arrays {
		a := &rn.arrays[k]
		if a.link != copied && rn.on[k] < 0 {
			i := rn.free(e, a.alloc.Size())
			s := &rn.pool[i]
			rn.on[k], s.used = i, true
			if a.link == bound {
				h := cb.handles[a.handle]
				copy(s.data, h.hostData())
				e.stats.CopiedBytes += 8 * int64(len(s.data))
				s.owner, h.data = h, s.data
			}
		}
		if i := rn.on[k]; i >= 0 {
			a.data = rn.pool[i].data
			rn.w.Point(k, rn.pool[i].at)
		}
	}
}

// free returns a pool slab of n words that no array of this run uses and
// no handle holds. When every such slab is held, it evacuates the first
// one this run does not use: its owner's values move to the Go heap.
// There is always one, since the pool has a slab per bound array and two
// per swapped one.
func (rn *residentNative) free(e *Engine, n int) int {
	spare := -1
	for i := range rn.pool {
		s := &rn.pool[i]
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
	e.stats.CopiedBytes += 8 * int64(rn.pool[spare].evacuate())
	return spare
}

// runNative executes a compiled batch on its resident worker, starting
// one when there is none or the last one was killed between Evals. Its
// arrays meet their handles by the VM's links (runVM), through the
// worker's state mapping: place puts bound and swapped arrays on pool
// slabs, copied ones are seeded into and read back out of their fixed
// slabs, and after a successful run each swapped handle holds the slab
// the run wrote. A compiler register starts at zero, as in a fresh
// process. The worker is checked out of the record for the run and put
// back only when the run succeeds, so a run that fails, traps, is
// cancelled or panics ends its worker (endWorker) having written only
// slabs no handle holds and its copied arrays: every handle is what it
// was. The next Eval starts a fresh worker.
func (e *Engine) runNative(ctx context.Context, cb *canonBatch, entry *ccache.Entry, r *resident) error {
	rn := r.native
	r.native = nil
	if rn != nil && !rn.w.Alive() {
		e.endWorker(rn)
		rn = nil
	}
	if rn == nil {
		var err error
		if rn, err = e.startWorker(ctx, entry, cb); err != nil {
			return err
		}
	}
	defer func() {
		if r.native == nil {
			e.endWorker(rn)
		}
	}()
	rn.place(e, cb)
	e.seedArrays(cb, rn.arrays)
	for i, s := range rn.snums {
		rn.scalars[i] = 0
		if s >= 0 {
			rn.scalars[i] = cb.scalars[s].val
		}
	}
	if err := rn.w.Run(ctx, e.out); err != nil {
		return err
	}
	for k := range rn.arrays {
		if a := &rn.arrays[k]; a.link == swapped {
			s := &rn.pool[rn.on[k]]
			s.owner = cb.handles[a.handle]
			s.owner.data = s.data
		}
	}
	e.readBackArrays(cb, rn.arrays)
	for i, s := range rn.snums {
		if s >= 0 {
			cb.scalars[s].val = rn.scalars[i]
		}
	}
	r.native = rn
	return nil
}
