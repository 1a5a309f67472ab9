package cluster

import (
	"fmt"

	"op2ca/internal/core"
)

// loopexec.go is the compiled loop executor. A loop's access descriptors
// (<map, mode> pairs) are resolved once per (loop, rank) call into a flat
// table of argument ops, one per kernel view — the Go analogue of the
// per-loop code OP2 generates from the same descriptors ahead of time. The
// per-element work is then a walk over that table: slice each view out of
// the rank's storage and call the kernel.

// argKind is how one kernel view is bound at each element.
type argKind uint8

const (
	// argGbl binds a loop-constant buffer: a global argument, already
	// redirected to its per-rank reduction scratch where it has one.
	argGbl argKind = iota
	// argDirect binds the element's own row of a dat on the loop's set.
	argDirect
	// argIndirect binds the row a localized map slot points at.
	argIndirect
)

// argOp is one compiled kernel view: a vector argument compiles to one op
// per map slot, every other argument to exactly one.
type argOp struct {
	kind argKind
	// data is the rank's dat storage (direct, indirect) or the bound
	// buffer itself (global).
	data []float64
	// idx is the rank's localized map (indirect only); element iter's
	// target sits at idx[iter*arity+slot].
	idx   []int32
	dim   int
	arity int
	slot  int
	// mp names the map in the beyond-halo diagnostic.
	mp *core.Map
}

// compileLoop resolves l's arguments on rank r into worker scratch ws and
// returns the op table, which ws.views (sized to match) is bound from.
func (b *Backend) compileLoop(ws *workerScratch, r int, l core.Loop, gblScratch [][]float64) []argOp {
	ops := ws.ops[:0]
	for i, a := range l.Args {
		switch {
		case a.IsGlobal():
			buf := a.Gbl
			if gblScratch != nil && gblScratch[i] != nil {
				buf = gblScratch[i]
			}
			ops = append(ops, argOp{kind: argGbl, data: buf})
		case a.Indirect():
			op := argOp{kind: argIndirect, data: b.dats[r][a.Dat.ID], idx: b.layouts[r].MapL(a.Map),
				dim: a.Dat.Dim, arity: a.Map.Arity, slot: a.Idx, mp: a.Map}
			if a.Idx != core.VecAll {
				ops = append(ops, op)
				continue
			}
			for op.slot = 0; op.slot < a.Map.Arity; op.slot++ {
				ops = append(ops, op)
			}
		default:
			ops = append(ops, argOp{kind: argDirect, data: b.dats[r][a.Dat.ID], dim: a.Dat.Dim})
		}
	}
	ws.ops = ops
	if cap(ws.views) < len(ops) {
		ws.views = make([][]float64, len(ops))
	}
	ws.views = ws.views[:len(ops)]
	return ops
}

// bindViews points views at element iter's data and returns -1, or the
// index of the first op whose map slot reaches beyond the built halo
// depth (a -1 in the localized map).
func bindViews(ops []argOp, views [][]float64, iter int) int {
	for k := range ops {
		op := &ops[k]
		switch op.kind {
		case argGbl:
			views[k] = op.data
		case argDirect:
			views[k] = op.data[iter*op.dim : (iter+1)*op.dim]
		default:
			e := int(op.idx[iter*op.arity+op.slot])
			if e < 0 {
				return k
			}
			views[k] = op.data[e*op.dim : (e+1)*op.dim]
		}
	}
	return -1
}

// beyondHalo panics with the beyond-halo-depth diagnostic for op.
func beyondHalo(r int, l core.Loop, iter int, op *argOp) {
	panic(fmt.Sprintf("cluster: rank %d loop %q iteration %d dereferences element beyond halo depth (map %s slot %d)",
		r, l.Kernel.Name, iter, op.mp.Name, op.slot))
}

// runLoopOnRank executes iterations [lo, hi) of loop l on rank r, as
// worker w (indexing the per-worker op/view scratch). The loop's access
// descriptors are compiled once per call (compileLoop); each element then
// only binds its views from the op table and calls the kernel. The halo
// depth is still checked on every indirect view: a map slot reaching
// beyond the built halo panics rather than reading a wrong element.
//
// Ranges within the executable region start at element 0 — owned
// elements, plus execute shells 1..d up to hi = ExecEnd(d) — and run in
// the layout's canonical order (ascending global index), so indirect
// increments accumulate identically on every rank and every execution
// policy — per-loop, CA at any depth, overlapped — and match the
// sequential reference bit for bit. The walk covers the full order and
// skips elements at or beyond hi; at the deepest shell none are skipped.
// Non-execute refresh ranges write elementwise and run in storage order.
// gblScratch, when non-nil, holds per-argument redirection buffers for
// global reduction arguments.
func (b *Backend) runLoopOnRank(w, r int, l core.Loop, lo, hi int, gblScratch [][]float64) {
	if lo >= hi {
		return
	}
	ws := &b.wsc[w]
	ops := b.compileLoop(ws, r, l, gblScratch)
	views, fn := ws.views, l.Kernel.Fn
	order := b.layouts[r].SetL(l.Set).ExecOrder
	if hi > len(order) {
		for iter := lo; iter < hi; iter++ {
			if k := bindViews(ops, views, iter); k >= 0 {
				beyondHalo(r, l, iter, &ops[k])
			}
			fn(views)
		}
		return
	}
	if lo != 0 {
		panic(fmt.Sprintf("cluster: executable range [%d, %d) does not start at element 0", lo, hi))
	}
	for _, e := range order {
		iter := int(e)
		if iter >= hi {
			continue
		}
		if k := bindViews(ops, views, iter); k >= 0 {
			beyondHalo(r, l, iter, &ops[k])
		}
		fn(views)
	}
}
