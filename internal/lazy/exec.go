package lazy

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"

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
	if entry.Comp.Plan != nil {
		e.remarks = append(e.remarks, entry.Comp.Plan.Remarks...)
	}
	if native {
		return e.runNative(ctx, cb, entry, r)
	}
	return e.runVM(ctx, cb, entry.Comp, r)
}

// memoShapesPerKey caps the memo entries of one cached compilation: a
// caller reissuing independent ops in ever new orders makes a new shape
// each time, all canonicalizing to one key, and the memo must stay as
// bounded as the cache it indexes.
const memoShapesPerKey = 8

// resident is what the engine keeps beside one cached compilation for
// as long as the cache holds it.
type resident struct {
	vm     *residentVM   // nil until built, and while a run has it checked out
	native *stateBinding // nil until the first native run
	shapes int           // memo entries holding this key
}

// compile runs the pipeline over a batch that missed the cache and
// caches the result. On the VM the machine is built here, after the
// compile succeeded, and its storage counts toward the entry's size, so
// Options.CacheBytes bounds resident machines too. The returned record
// is the engine's for key, or a throwaway when the entry did not fit.
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
		r.native = bindState(comp.LIR, cb)
		goSrc, err := gogen.EmitState(comp.LIR, comp.Bounds, r.native.spec)
		if err != nil {
			return nil, nil, err
		}
		art, err := e.store.Build(ctx, goSrc)
		if err != nil {
			return nil, nil, err
		}
		entry.GoSrc, entry.Bin, entry.BinKey = goSrc, art.Bin, art.Key
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
// cache no longer holds.
func (e *Engine) dropEvicted() {
	cached := func(k ccache.Key) bool {
		_, ok := e.cache.Peek(k)
		return ok
	}
	for k := range e.resident {
		if !cached(k) {
			delete(e.resident, k)
		}
	}
	e.memo.keep(cached)
}

// stateBinding is the native state-file layout of a cached compilation
// — every allocated (non-contracted) array and every scalar, in sorted
// name order, which the emitted binary and the engine's marshaling both
// follow — with the canonical handle or scalar each slot holds. It is
// derived once per cached compilation, not per Eval.
type stateBinding struct {
	spec    *gogen.StateSpec
	arrays  []int // per spec.Arrays entry: i for v<i>, -1 for an array no handle binds
	scalars []int // per spec.Scalars entry: i for s<i>, -1 for a compiler register
}

func bindState(p *lir.Program, cb *canonBatch) *stateBinding {
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
	canon := map[string]int{}
	for i := range cb.handles {
		canon["v"+strconv.Itoa(i)] = i
	}
	for i := range cb.scalars {
		canon["s"+strconv.Itoa(i)] = i
	}
	index := func(names []string) []int {
		out := make([]int, len(names))
		for k, n := range names {
			if i, ok := canon[n]; ok {
				out[k] = i
			} else {
				out[k] = -1
			}
		}
		return out
	}
	return &stateBinding{spec: spec, arrays: index(spec.Arrays), scalars: index(spec.Scalars)}
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

// copyRect copies the declared-region rectangle between a handle's
// host storage (row-major over decl) and an allocation slab (row-major
// over alloc, which contains decl). in=true seeds the slab from host;
// in=false reads the slab back. Halo cells outside decl are left
// untouched in the slab and never reach host storage.
func copyRect(slab []float64, alloc, decl *sema.Region, host []float64, in bool) {
	if sameRegion(alloc, decl) {
		// One rectangle row-major over the same bounds: one copy.
		if in {
			copy(slab, host)
		} else {
			copy(host, slab)
		}
		return
	}
	rank := alloc.Rank()
	var strides, idx [sema.MaxRank]int
	s := 1
	for k := rank - 1; k >= 0; k-- {
		strides[k] = s
		s *= alloc.Extent(k)
	}
	copy(idx[:], decl.Lo)
	row := decl.Extent(rank - 1)
	hostPos := 0
	for {
		pos := 0
		for d := 0; d < rank; d++ {
			pos += (idx[d] - alloc.Lo[d]) * strides[d]
		}
		if in {
			copy(slab[pos:pos+row], host[hostPos:hostPos+row])
		} else {
			copy(host[hostPos:hostPos+row], slab[pos:pos+row])
		}
		hostPos += row
		d := rank - 2
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] <= decl.Hi[d] {
				break
			}
			idx[d] = decl.Lo[d]
		}
		if d < 0 {
			break
		}
	}
}

// residentVM is a machine kept beside its cached compilation, with the
// storage of every canonical array looked up once.
type residentVM struct {
	m      *vm.Machine
	arrays [][]float64    // arrays[i] is v<i>'s storage; nil when contracted
	allocs []*sema.Region // arrays[i]'s allocation
	zero   [][]float64    // storage no handle seeds: the _t snapshots of a := f(a)
	snames []string       // snames[i] is "s<i>"
}

// buildMachine builds the machine for a compiled batch whose canonical
// names cb binds; each run installs its own context through Reset.
func (e *Engine) buildMachine(comp *driver.Compilation, cb *canonBatch) (*residentVM, error) {
	m, err := vm.New(comp.LIR, vm.Options{Out: e.out, Bounds: comp.Bounds})
	if err != nil {
		return nil, err
	}
	e.machineBuilds++
	n := len(cb.handles)
	rv := &residentVM{m: m, arrays: make([][]float64, n), allocs: make([]*sema.Region, n),
		snames: make([]string, len(cb.scalars))}
	bound := map[string]bool{}
	for i := 0; i < n; i++ {
		name := "v" + strconv.Itoa(i)
		bound[name] = true
		info := comp.LIR.Source.Arrays[name]
		if info == nil || info.Contracted {
			continue
		}
		rv.arrays[i], rv.allocs[i] = m.ArrayData(name), info.Alloc
	}
	for name := range comp.LIR.Source.Arrays {
		if data := m.ArrayData(name); data != nil && !bound[name] {
			rv.zero = append(rv.zero, data)
		}
	}
	for i := range rv.snames {
		rv.snames[i] = "s" + strconv.Itoa(i)
	}
	return rv, nil
}

func sameRegion(a, b *sema.Region) bool {
	return slices.Equal(a.Lo, b.Lo) && slices.Equal(a.Hi, b.Hi)
}

// runVM executes a compiled batch on its resident machine, building one
// when there is none. A rerun starts from exactly the bytes a fresh
// machine plus the seed would: handle state is copied into the declared
// rectangles, and every other cell the program could read before it
// writes it — halo cells, the storage of a Temp with no value yet this
// Eval (a batch may read a Temp cell it writes only later), the _t
// snapshots — is zeroed first. The machine is checked out of the record
// for the run and put back only when the run succeeds, so a run that
// fails or panics leaves no machine behind.
func (e *Engine) runVM(ctx context.Context, cb *canonBatch, comp *driver.Compilation, r *resident) error {
	rv := r.vm
	r.vm = nil
	if rv == nil {
		var err error
		if rv, err = e.buildMachine(comp, cb); err != nil {
			return err
		}
	}
	for i, h := range cb.handles {
		slab := rv.arrays[i]
		if slab == nil {
			continue
		}
		// A seed covering the whole allocation overwrites every cell.
		src := e.seedOf(h)
		if src == nil || !sameRegion(rv.allocs[i], h.region) {
			clear(slab)
		}
		if src != nil {
			copyRect(slab, rv.allocs[i], h.region, src, true)
		}
	}
	for _, z := range rv.zero {
		clear(z)
	}
	for i, s := range cb.scalars {
		rv.m.SetScalar(rv.snames[i], s.val)
	}
	rv.m.Reset(ctx)
	if _, err := rv.m.Run(); err != nil {
		return err
	}
	for i, h := range cb.handles {
		if slab := rv.arrays[i]; slab != nil {
			if dst := e.resultOf(h, cb.escapes[i]); dst != nil {
				copyRect(slab, rv.allocs[i], h.region, dst, false)
			}
		}
	}
	for i, s := range cb.scalars {
		if v, ok := rv.m.Scalar(rv.snames[i]); ok {
			s.val = v
		}
	}
	r.vm = rv
	return nil
}

// runNative executes a compiled batch's native artifact through the
// state-file protocol: marshal handle state in spec order, run the
// binary with StateInEnv/StateOutEnv pointing at per-execution files,
// unmarshal the dumped state back into the handles. The artifact is
// re-resolved through the store (a stat on the content address), so a
// wiped store directory degrades to a rebuild, never a stale binary.
func (e *Engine) runNative(ctx context.Context, cb *canonBatch, entry *ccache.Entry, r *resident) error {
	comp := entry.Comp
	if r.native == nil {
		r.native = bindState(comp.LIR, cb)
	}
	sb := r.native
	art, err := e.store.Build(ctx, entry.GoSrc)
	if err != nil {
		return err
	}

	total := 0
	for _, n := range sb.spec.Arrays {
		total += comp.LIR.Source.Arrays[n].Alloc.Size()
	}
	total += len(sb.spec.Scalars)
	buf := make([]byte, 8*total)
	off := 0
	for k, n := range sb.spec.Arrays {
		info := comp.LIR.Source.Arrays[n]
		size := info.Alloc.Size()
		if i := sb.arrays[k]; i >= 0 {
			h := cb.handles[i]
			if src := e.seedOf(h); src != nil {
				slab := make([]float64, size)
				copyRect(slab, info.Alloc, h.region, src, true)
				for j, v := range slab {
					binary.LittleEndian.PutUint64(buf[off+8*j:], math.Float64bits(v))
				}
			}
		}
		off += 8 * size
	}
	for k := range sb.spec.Scalars {
		if i := sb.scalars[k]; i >= 0 {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(cb.scalars[i].val))
		}
		off += 8
	}

	dir, err := os.MkdirTemp("", "zpl-lazy-state")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	inPath := filepath.Join(dir, "in.state")
	outPath := filepath.Join(dir, "out.state")
	if err := os.WriteFile(inPath, buf, 0o644); err != nil {
		return err
	}
	if _, err := art.RunEnv(ctx, e.out, []string{
		gogen.StateInEnv + "=" + inPath,
		gogen.StateOutEnv + "=" + outPath,
	}); err != nil {
		return err
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		return fmt.Errorf("lazy: native run produced no state: %w", err)
	}
	if len(data) != 8*total {
		return fmt.Errorf("lazy: state file is %d bytes, want %d", len(data), 8*total)
	}
	off = 0
	for k, n := range sb.spec.Arrays {
		info := comp.LIR.Source.Arrays[n]
		size := info.Alloc.Size()
		if i := sb.arrays[k]; i >= 0 {
			h := cb.handles[i]
			if dst := e.resultOf(h, cb.escapes[i]); dst != nil {
				slab := make([]float64, size)
				for j := range slab {
					slab[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[off+8*j:]))
				}
				copyRect(slab, info.Alloc, h.region, dst, false)
			}
		}
		off += 8 * size
	}
	for k := range sb.spec.Scalars {
		if i := sb.scalars[k]; i >= 0 {
			cb.scalars[i].val = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		}
		off += 8
	}
	return nil
}
