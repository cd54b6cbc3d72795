package lazy

import (
	"context"
	"fmt"
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
		r.close() // the cache refused the entry: its worker served this run only
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

// close stops the record's worker, if it has one.
func (r *resident) close() error {
	if r.native == nil {
		return nil
	}
	err := r.native.w.Close()
	r.native = nil
	return err
}

// compile runs the pipeline over a batch that missed the cache and
// caches the result. On the VM the machine is built here, after the
// compile succeeded, and its storage counts toward the entry's size, so
// Options.CacheBytes bounds resident machines too; a native entry counts
// its worker's state mapping the same way. The returned record is the
// engine's for key, or a throwaway when the entry did not fit.
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
		entry.Size = ccache.SizeOf(entry) + 8*int64(gogen.StateWords(comp.LIR, spec))
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
			r.close()
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

// stateSpec lays out a native compilation's worker state: every
// allocated (non-contracted) array, then every scalar, each in sorted
// name order.
func stateSpec(p *lir.Program) *gogen.StateSpec {
	spec := &gogen.StateSpec{}
	for n, a := range p.Source.Arrays {
		if !a.Contracted {
			spec.Arrays = append(spec.Arrays, n)
		}
	}
	sort.Strings(spec.Arrays)
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
// keep the zeros vm.New gave them.
func seedArray(data []float64, alloc, decl, dead *sema.Region, src []float64) {
	last := decl.Rank() - 1
	n := decl.Extent(last)
	fill := func(to []float64, from int) {
		if src == nil {
			clear(to)
		} else {
			copy(to, src[from:])
		}
	}
	rowsOf(alloc, decl, func(idx [sema.MaxRank]int, at, host int) {
		a, b := n, n // the row's dead cells, [a, b) from decl's first column
		if dead != nil && rowIn(idx, dead) {
			a, b = dead.Lo[last]-decl.Lo[last], dead.Hi[last]-decl.Lo[last]+1
		}
		fill(data[at:at+a], host)
		fill(data[at+b:at+n], host+b)
	})
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

// residentArray is one array's storage in a resident machine.
type residentArray struct {
	data        []float64
	alloc, decl *sema.Region
	handle      int // i for v<i>; -1 for storage no handle binds, the _t snapshots of a := f(a)
	arrayUse
}

// buildMachine builds the machine for a compiled batch whose canonical
// names cb binds; each run installs its own context through Reset.
func (e *Engine) buildMachine(comp *driver.Compilation, cb *canonBatch) (*residentVM, error) {
	m, err := vm.New(comp.LIR, vm.Options{Out: e.out, Bounds: comp.Bounds})
	if err != nil {
		return nil, err
	}
	e.machineBuilds++
	rv := &residentVM{m: m, snames: make([]string, len(cb.scalars)),
		arrays: residentArrays(comp.LIR, canonNumbers(cb), m.ArrayData)}
	for i := range rv.snames {
		rv.snames[i] = "s" + strconv.Itoa(i)
	}
	return rv, nil
}

// residentArrays describes a compiled batch's allocated arrays, where
// data(name) is an array's storage (nil: it has none): the handle each
// binds, by the canonical numbers canon, and what a run does with it.
func residentArrays(p *lir.Program, canon map[string]int, data func(string) []float64) []residentArray {
	uses := usesOf(p)
	var arrays []residentArray
	for name, info := range p.Source.Arrays {
		if d := data(name); d != nil {
			arrays = append(arrays, residentArray{data: d, alloc: info.Alloc, decl: info.Declared,
				handle: number(canon, name), arrayUse: uses[name]})
		}
	}
	return arrays
}

// seedArrays writes each array's starting values into its storage: the
// state of the handle it binds, or zeros (seedArray).
func (e *Engine) seedArrays(cb *canonBatch, arrays []residentArray) {
	for _, a := range arrays {
		var src []float64
		if a.handle >= 0 {
			src = e.seedOf(cb.handles[a.handle])
		}
		seedArray(a.data, a.alloc, a.decl, a.deadIn, src)
	}
}

// readBackArrays copies each array the batch writes into where its
// handle's result goes (resultOf).
func (e *Engine) readBackArrays(cb *canonBatch, arrays []residentArray) {
	for _, a := range arrays {
		if a.handle >= 0 && a.written {
			if dst := e.resultOf(cb.handles[a.handle], cb.escapes[a.handle]); dst != nil {
				readBack(a.data, a.alloc, a.decl, dst)
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
// zeroed, and only what the program stores into is read back. The
// machine is checked out of the record for the run and put back only
// when the run succeeds, so a run that fails or panics leaves no machine
// behind.
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
	for i, s := range cb.scalars {
		rv.m.SetScalar(rv.snames[i], s.val)
	}
	rv.m.Reset(ctx)
	if _, err := rv.m.Run(); err != nil {
		return err
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
// with the views of its state mapping looked up once: each array's slab,
// and each scalar's slot with the canonical scalar it holds.
type residentNative struct {
	w       *backend.Worker
	arrays  []residentArray
	scalars []float64 // the mapping's scalar slots, in spec order
	snums   []int     // snums[i] is j for the s<j> in slot i, -1 for a compiler register
}

// startWorker starts the worker of a cached native compilation whose
// canonical names cb binds. The artifact is re-resolved through the
// store (a stat on the content address), so a wiped store directory
// degrades to a rebuild, never a stale binary.
func (e *Engine) startWorker(ctx context.Context, entry *ccache.Entry, cb *canonBatch) (*residentNative, error) {
	art, err := e.store.Build(ctx, entry.GoSrc)
	if err != nil {
		return nil, err
	}
	p := entry.Comp.LIR
	spec := stateSpec(p)
	w, err := art.Start(ctx, gogen.StateWords(p, spec))
	if err != nil {
		return nil, err
	}
	e.workerStarts++
	state := w.State()
	slabs := make(map[string][]float64, len(spec.Arrays))
	at := 0
	for _, n := range spec.Arrays {
		end := at + p.Source.Arrays[n].Alloc.Size()
		slabs[n] = state[at:end:end]
		at = end
	}
	canon := canonNumbers(cb)
	rn := &residentNative{w: w, scalars: state[at:],
		arrays: residentArrays(p, canon, func(n string) []float64 { return slabs[n] })}
	for _, n := range spec.Scalars {
		rn.snums = append(rn.snums, number(canon, n))
	}
	return rn, nil
}

// runNative executes a compiled batch on its resident worker, starting
// one when there is none or the last one was killed between Evals. It
// seeds and reads back by runVM's rules, through the worker's state
// mapping; a compiler register starts at zero, as in a fresh process.
// The worker is checked out of the record for the run and put back only
// when the run succeeds, so a run that fails, traps, is cancelled or
// panics stops its worker and leaves host data untouched, and the next
// Eval starts a fresh one.
func (e *Engine) runNative(ctx context.Context, cb *canonBatch, entry *ccache.Entry, r *resident) error {
	rn := r.native
	r.native = nil
	if rn != nil && !rn.w.Alive() {
		rn.w.Close()
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
			rn.w.Close()
		}
	}()
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
	e.readBackArrays(cb, rn.arrays)
	for i, s := range rn.snums {
		if s >= 0 {
			cb.scalars[s].val = rn.scalars[i]
		}
	}
	r.native = rn
	return nil
}
