package mgcfd

import "op2ca/internal/core"

// Synthetic is the paper's synthetic loop-chain (Section 4.1.1): pairs of
// (update, edge_flux) loops over the finest level's edges. update
// increments sres (making it dirty); edge_flux — a replica of
// compute_flux_edge's access pattern and cost — indirectly reads sres.
// Repeating the pair nchains times builds a 2*nchains-loop chain whose halo
// requirement stays at r = 2 regardless of length, so the grouped CA
// message size is constant while standard OP2 exchanges grow linearly with
// the loop count.
type Synthetic struct {
	app   *App
	sres  *core.Dat
	spres *core.Dat
	sflux *core.Dat
	// The chain's loops, built once: every replica of the (update,
	// edge_flux) pair has the same descriptors, so Run re-issues these
	// values instead of constructing (and allocating) loops per call.
	update, flux, advance core.Loop
}

// kSynUpdate increments the residual from pressure-like differences. The
// increment depends only on read-mode data, keeping it commutative as
// OP_INC requires.
var kSynUpdate = &core.Kernel{Name: "update", Flops: 20, MemBytes: 240,
	Fn: func(a [][]float64) {
		res1, res2, pres1, pres2 := a[0], a[1], a[2], a[3]
		for i := 0; i < 5; i++ {
			res1[i] += 0.05 * (pres1[i] - pres2[i])
			res2[i] += 0.05 * (pres2[i] - pres1[i])
		}
	}}

// kSynFlux replicates compute_flux_edge's arithmetic shape and cost,
// reading sres indirectly (the dirty dat) and the edge weights directly.
var kSynFlux = &core.Kernel{Name: "edge_flux", Flops: 110, MemBytes: 280,
	Fn: func(a [][]float64) {
		flux1, flux2, res1, res2, w := a[0], a[1], a[2], a[3], a[4]
		area := w[0]*w[0] + w[1]*w[1] + w[2]*w[2]
		for i := 0; i < 5; i++ {
			f := 0.5*(res1[i]+res2[i])*area - 0.25*(res2[i]-res1[i])
			flux1[i] -= 0.01 * f
			flux2[i] += 0.01 * f
		}
	}}

// kSynAdvance evolves the pressure-like field from the residual between
// chain executions (outside the chain), dirtying spres, and damps the
// residual and flux fields to keep all values bounded over long runs.
var kSynAdvance = &core.Kernel{Name: "advance", Flops: 25, MemBytes: 240,
	Fn: func(a [][]float64) {
		pres, res, flux := a[0], a[1], a[2]
		for i := 0; i < 5; i++ {
			pres[i] += 0.1*res[i] - 0.05*pres[i]
			res[i] *= 0.9
			flux[i] *= 0.5
		}
	}}

// NewSynthetic declares the synthetic chain's dats on the finest level.
func NewSynthetic(a *App) *Synthetic {
	if a.syn != nil {
		return a.syn
	}
	s := &Synthetic{app: a}
	nodes := a.Levels[0].Nodes
	s.sres = a.Prog.DeclDat(nodes, 5, nil, "sres")
	s.spres = a.Prog.DeclDat(nodes, 5, nil, "spres")
	s.sflux = a.Prog.DeclDat(nodes, 5, nil, "sflux")
	for i := range s.spres.Data {
		s.spres.Data[i] = float64(i%9-4) * 0.125
	}
	lv := a.Levels[0]
	s.update = core.NewLoop(kSynUpdate, lv.Edges,
		core.ArgDat(s.sres, 0, lv.E2N, core.Inc),
		core.ArgDat(s.sres, 1, lv.E2N, core.Inc),
		core.ArgDat(s.spres, 0, lv.E2N, core.Read),
		core.ArgDat(s.spres, 1, lv.E2N, core.Read))
	s.flux = core.NewLoop(kSynFlux, lv.Edges,
		core.ArgDat(s.sflux, 0, lv.E2N, core.Inc),
		core.ArgDat(s.sflux, 1, lv.E2N, core.Inc),
		core.ArgDat(s.sres, 0, lv.E2N, core.Read),
		core.ArgDat(s.sres, 1, lv.E2N, core.Read),
		core.ArgDatDirect(lv.EdgeW, core.Read))
	s.advance = core.NewLoop(kSynAdvance, lv.Nodes,
		core.ArgDatDirect(s.spres, core.ReadWrite),
		core.ArgDatDirect(s.sres, core.ReadWrite),
		core.ArgDatDirect(s.sflux, core.ReadWrite))
	a.syn = s
	return s
}

// Dats exposes the synthetic dats for verification.
func (s *Synthetic) Dats() (sres, spres, sflux *core.Dat) { return s.sres, s.spres, s.sflux }

// Run executes one outer iteration: the 2*nchains-loop chain (demarcated
// when chained is true), then the advance loop that re-dirties spres.
func (s *Synthetic) Run(b core.Backend, nchains int, chained bool) {
	if chained {
		b.ChainBegin("synthetic")
	}
	for c := 0; c < nchains; c++ {
		b.ParLoop(s.update)
		b.ParLoop(s.flux)
	}
	if chained {
		b.ChainEnd()
	}
	b.ParLoop(s.advance)
}
