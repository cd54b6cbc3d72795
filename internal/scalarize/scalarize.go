// Package scalarize lowers an AIR program plus a fusion plan into the
// scalar Loop IR (§4.2): one loop nest per fusible cluster, clusters
// and the statements within them ordered by topological sorts of the
// inter- and intra-cluster dependences, loop structure chosen by
// FIND-LOOP-STRUCTURE, and contracted arrays replaced by registers.
package scalarize

import (
	"fmt"

	"repro/internal/air"
	"repro/internal/core"
	"repro/internal/lir"
	"repro/internal/sema"
)

// Scalarize converts prog under the given plan. The plan must have
// been produced from the same program instance (it refers to its
// blocks and arrays).
func Scalarize(prog *air.Program, plan *core.Plan) (*lir.Program, error) {
	sc := &scalarizer{prog: prog, plan: plan}
	out := &lir.Program{Name: prog.Name, Source: prog, Procs: map[string]*lir.Proc{}}
	for name, p := range prog.Procs {
		body, err := sc.nodes(p.Body)
		if err != nil {
			return nil, fmt.Errorf("scalarize %s: %w", name, err)
		}
		out.Procs[name] = &lir.Proc{
			Name: p.Name, Params: p.Params, HasResult: p.HasResult, Body: body,
		}
	}
	out.Main = out.Procs["main"]
	return out, nil
}

type scalarizer struct {
	prog *air.Program
	plan *core.Plan
}

func (sc *scalarizer) nodes(ns []air.Node) ([]lir.Node, error) {
	var out []lir.Node
	for _, n := range ns {
		switch x := n.(type) {
		case *air.Block:
			blk, err := sc.block(x)
			if err != nil {
				return nil, err
			}
			out = append(out, blk...)
		case *air.Loop:
			body, err := sc.nodes(x.Body)
			if err != nil {
				return nil, err
			}
			out = append(out, &lir.Loop{Var: x.Var, Lo: x.Lo, Hi: x.Hi, Down: x.Down, Body: body})
		case *air.While:
			body, err := sc.nodes(x.Body)
			if err != nil {
				return nil, err
			}
			out = append(out, &lir.While{Cond: x.Cond, Body: body})
		case *air.If:
			then, err := sc.nodes(x.Then)
			if err != nil {
				return nil, err
			}
			els, err := sc.nodes(x.Else)
			if err != nil {
				return nil, err
			}
			out = append(out, &lir.If{Cond: x.Cond, Then: then, Else: els})
		}
	}
	return out, nil
}

// block scalarizes one straight-line block under its fusion partition.
func (sc *scalarizer) block(b *air.Block) ([]lir.Node, error) {
	bp := sc.plan.BlockPlanFor(b)
	if bp == nil {
		// No plan (block outside analysis): trivial partition.
		bp = &core.BlockPlan{Block: b}
	}
	part := bp.Part
	if part == nil {
		var out []lir.Node
		for _, s := range b.Stmts {
			node, err := sc.single(s)
			if err != nil {
				return nil, err
			}
			out = append(out, node)
		}
		return out, nil
	}

	var out []lir.Node
	for _, c := range part.TopoClusters() {
		members := part.Members(c) // ascending = program order, a
		// valid topological order of intra-cluster dependences.
		if len(members) == 1 && !part.G.IsFusible(members[0]) {
			node, err := sc.single(part.G.Stmts[members[0]])
			if err != nil {
				return nil, err
			}
			out = append(out, node)
			continue
		}
		nest, err := sc.nest(part, c, members)
		if err != nil {
			return nil, err
		}
		out = append(out, nest)
	}
	return out, nil
}

// single converts one unnormalized statement.
func (sc *scalarizer) single(s air.Stmt) (lir.Node, error) {
	switch x := s.(type) {
	case *air.ScalarStmt:
		return &lir.ScalarAssign{LHS: x.LHS, RHS: x.RHS, Pos: x.Pos}, nil
	case *air.CommStmt:
		return &lir.Comm{Array: x.Array, Off: x.Off, Reg: x.Region, Phase: x.Phase, MsgID: x.MsgID, Pos: x.Pos}, nil
	case *air.WritelnStmt:
		return &lir.Writeln{Args: x.Args, Pos: x.Pos}, nil
	case *air.CallStmt:
		return &lir.Call{Target: x.Target, Proc: x.Proc, Args: x.Args, Pos: x.Pos}, nil
	case *air.ReturnStmt:
		return &lir.Return{Value: x.Value, Pos: x.Pos}, nil
	case *air.PartialReduceStmt:
		return &lir.PartialReduce{
			LHS: x.LHS, Dest: x.Dest, Op: x.Op, Region: x.Region, Body: x.Body,
			Pos: x.Pos,
		}, nil
	case *air.ArrayStmt, *air.ReduceStmt:
		return nil, fmt.Errorf("fusible statement reached single(): %s", s)
	}
	return nil, fmt.Errorf("unknown statement %T", s)
}

// nest builds the loop nest for one fusible cluster.
func (sc *scalarizer) nest(part *core.Partition, c int, members []int) (*lir.Nest, error) {
	g := part.G
	regions := make([]*sema.Region, 0, len(members))
	for _, v := range members {
		regions = append(regions, g.StmtRegion(v))
	}
	union := core.UnionRegion(regions)

	order, ok := part.LoopStructureFor(c)
	if !ok || order == nil {
		order = core.Identity(union.Rank())
	}

	nest := &lir.Nest{Region: union, Order: order}
	for _, v := range members {
		sw, _ := g.Stmts[v].(air.Sweep)
		var ns *lir.NestStmt
		switch x := sw.(type) {
		case *air.ArrayStmt:
			ns = &lir.NestStmt{LHS: x.LHS, Contracted: sc.plan.Contracted[x.LHS], RHS: x.RHS, Pos: x.Pos}
		case *air.ReduceStmt:
			ns = &lir.NestStmt{IsReduce: true, Target: x.Target, Op: x.Op, RHS: x.Body, Pos: x.Pos}
		default:
			return nil, fmt.Errorf("unfusible statement %T in cluster", g.Stmts[v])
		}
		if !sw.Over().Equal(union) {
			ns.Guard = sw.Over()
		}
		if err := sc.checkContractedReads(ns.RHS); err != nil {
			return nil, err
		}
		nest.Body = append(nest.Body, ns)
	}
	return nest, nil
}

// checkContractedReads asserts the contraction invariant: contracted
// arrays are only ever read at offset zero (Definition 6 guarantees
// null distance vectors).
func (sc *scalarizer) checkContractedReads(e air.Expr) error {
	var err error
	air.Walk(e, func(x air.Expr) {
		if r, ok := x.(*air.RefExpr); ok && err == nil {
			if sc.plan.Contracted[r.Ref.Array] && !r.Ref.Off.IsZero() {
				err = fmt.Errorf("contracted array %s read at offset %s", r.Ref.Array, r.Ref.Off)
			}
		}
	})
	return err
}
