package lazy

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/backend"
	"repro/internal/ccache"
	"repro/internal/driver"
	"repro/internal/flight"
	"repro/internal/gogen"
	"repro/internal/lir"
	"repro/internal/sema"
	"repro/internal/vm"
)

// runBatch compiles (or cache-hits) one canonical batch and executes
// it with the engine's handle state bound to the canonical names. A
// panic on the way — the compiler's, the emitter's, the build's — comes
// back as an error naming the batch by its content address (the hash of
// its canonical text under the engine's options); the cache holds no
// trace of the attempt, so the same shape compiles afresh next time.
func (e *Engine) runBatch(ctx context.Context, cb *canonBatch) (err error) {
	dopt := e.driverOptions()
	key := ccache.KeyOfKind(cb.text, dopt, ccache.ArtifactLazy)
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
	if !ok {
		if e.compileHook != nil {
			e.compileHook()
		}
		// Build a fresh program: CompileAIR rewrites it in place, so the
		// instance rendered for the fingerprint is never handed over.
		prog, err := cb.build()
		if err != nil {
			return err
		}
		comp, err := driver.CompileAIR(ctx, prog, dopt)
		if err != nil {
			return err
		}
		entry = &ccache.Entry{Key: key, Kind: ccache.ArtifactLazy, Source: cb.text, Comp: comp}
		if native {
			goSrc, err := gogen.EmitState(comp.LIR, comp.Bounds, stateSpec(comp.LIR))
			if err != nil {
				return err
			}
			art, err := e.store.Build(ctx, goSrc)
			if err != nil {
				return err
			}
			entry.GoSrc, entry.Bin, entry.BinKey = goSrc, art.Bin, art.Key
		}
		e.cache.Put(key, entry)
	}
	if entry.Comp.Plan != nil {
		e.remarks = append(e.remarks, entry.Comp.Plan.Remarks...)
	}
	if native {
		return e.runNative(ctx, cb, entry)
	}
	return e.runVM(ctx, cb, entry.Comp)
}

// stateSpec lists every allocated (non-contracted) array and every
// scalar of the compiled batch, in sorted name order — the layout both
// the emitted binary and the engine's state marshaling follow. It is
// recomputed from the cached compilation on hits, deterministically.
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

// stateOf returns the storage backing a handle for this Eval: the
// persistent host data for arrays, a transient per-Eval buffer for
// Temps that span batches.
func (e *Engine) stateOf(h *Handle) []float64 {
	if !h.temp {
		return h.hostData()
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
// untouched in the slab and never reach host storage — they are
// per-execution scratch, zero at entry like any uninitialized storage.
func copyRect(slab []float64, alloc, decl *sema.Region, host []float64, in bool) {
	rank := alloc.Rank()
	strides := make([]int, rank)
	s := 1
	for k := rank - 1; k >= 0; k-- {
		strides[k] = s
		s *= alloc.Extent(k)
	}
	idx := make([]int, rank)
	copy(idx, decl.Lo)
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

// runVM executes a compiled batch on the bytecode VM, seeding machine
// storage from the handles before Run and reading results back after.
func (e *Engine) runVM(ctx context.Context, cb *canonBatch, comp *driver.Compilation) error {
	m, err := vm.New(comp.LIR, vm.Options{Out: e.out, Ctx: ctx, Bounds: comp.Bounds})
	if err != nil {
		return err
	}
	for _, h := range cb.handles {
		name := cb.aname[h]
		info := comp.LIR.Source.Arrays[name]
		if info == nil || info.Contracted {
			continue
		}
		copyRect(m.ArrayData(name), info.Alloc, h.region, e.stateOf(h), true)
	}
	for _, s := range cb.scalars {
		m.SetScalar(cb.sname[s], s.val)
	}
	if _, err := m.Run(); err != nil {
		return err
	}
	for _, h := range cb.handles {
		name := cb.aname[h]
		info := comp.LIR.Source.Arrays[name]
		if info == nil || info.Contracted {
			continue
		}
		copyRect(m.ArrayData(name), info.Alloc, h.region, e.stateOf(h), false)
	}
	for _, s := range cb.scalars {
		if v, ok := m.Scalar(cb.sname[s]); ok {
			s.val = v
		}
	}
	return nil
}

// runNative executes a compiled batch's native artifact through the
// state-file protocol: marshal handle state in spec order, run the
// binary with StateInEnv/StateOutEnv pointing at per-execution files,
// unmarshal the dumped state back into the handles. The artifact is
// re-resolved through the store (a stat on the content address), so a
// wiped store directory degrades to a rebuild, never a stale binary.
func (e *Engine) runNative(ctx context.Context, cb *canonBatch, entry *ccache.Entry) error {
	comp := entry.Comp
	spec := stateSpec(comp.LIR)
	art, err := e.store.Build(ctx, entry.GoSrc)
	if err != nil {
		return err
	}

	revA := map[string]*Handle{}
	for h, n := range cb.aname {
		revA[n] = h
	}
	revS := map[string]*ScalarHandle{}
	for s, n := range cb.sname {
		revS[n] = s
	}

	total := 0
	for _, n := range spec.Arrays {
		total += comp.LIR.Source.Arrays[n].Alloc.Size()
	}
	total += len(spec.Scalars)
	buf := make([]byte, 8*total)
	off := 0
	for _, n := range spec.Arrays {
		info := comp.LIR.Source.Arrays[n]
		size := info.Alloc.Size()
		if h := revA[n]; h != nil {
			slab := make([]float64, size)
			copyRect(slab, info.Alloc, h.region, e.stateOf(h), true)
			for i, v := range slab {
				binary.LittleEndian.PutUint64(buf[off+8*i:], math.Float64bits(v))
			}
		}
		off += 8 * size
	}
	for _, n := range spec.Scalars {
		if s := revS[n]; s != nil {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(s.val))
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
	for _, n := range spec.Arrays {
		info := comp.LIR.Source.Arrays[n]
		size := info.Alloc.Size()
		if h := revA[n]; h != nil {
			slab := make([]float64, size)
			for i := range slab {
				slab[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off+8*i:]))
			}
			copyRect(slab, info.Alloc, h.region, e.stateOf(h), false)
		}
		off += 8 * size
	}
	for _, n := range spec.Scalars {
		if s := revS[n]; s != nil {
			s.val = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		}
		off += 8
	}
	return nil
}
