package cluster

import (
	"fmt"
	"math"
	"testing"

	"op2ca/internal/core"
	"op2ca/internal/hydra"
	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/mgcfd"
	"op2ca/internal/partition"
)

// kindsApp is a program whose loops between them use every argument kind
// the compiled executor distinguishes — direct, indirect single-slot,
// vector (VecAll), global Read and global Inc/Min/Max — over dats of mixed
// dims (1, 2, 3). Its data is not integer-valued, so only the canonical
// element order keeps distributed results bitwise equal to core.Seq.
type kindsApp struct {
	p            *core.Program
	nodes, edges *core.Set
	e2n          *core.Map
	x, y, z, w   *core.Dat // dims 3, 1, 2 on nodes; 2 on edges
	gr           []float64 // global Read
	gsum         []float64 // global Inc
	gmin, gmax   []float64 // global Min, Max
}

func newKindsApp(m *mesh.FV3D) *kindsApp {
	a := &kindsApp{p: core.NewProgram()}
	a.nodes = a.p.DeclSet(m.NNodes, "nodes")
	a.edges = a.p.DeclSet(m.NEdges, "edges")
	a.e2n = a.p.DeclMap(a.edges, a.nodes, 2, m.EdgeNodes, "e2n")
	a.x = a.p.DeclDat(a.nodes, 3, nil, "x")
	a.y = a.p.DeclDat(a.nodes, 1, nil, "y")
	a.z = a.p.DeclDat(a.nodes, 2, nil, "z")
	a.w = a.p.DeclDat(a.edges, 2, nil, "w")
	for i, d := range []*core.Dat{a.x, a.y, a.z, a.w} {
		for j := range d.Data {
			d.Data[j] = float64((j*(i+3))%17)*0.13 - 0.7
		}
	}
	a.gr = []float64{0.3, -1.1}
	a.gsum = []float64{0}
	a.gmin = []float64{math.Inf(1), math.Inf(1)}
	a.gmax = []float64{math.Inf(-1)}
	return a
}

var (
	kkDirect = &core.Kernel{Name: "kk_direct", Fn: func(a [][]float64) {
		x, y := a[0], a[1]
		for k := range x {
			x[k] = 0.5*x[k] + 0.1*float64(k+1)*y[0]
		}
	}}
	kkIndirect = &core.Kernel{Name: "kk_indirect", Fn: func(a [][]float64) {
		z1, z2, x1, y2, w := a[0], a[1], a[2], a[3], a[4]
		f := 0.3*x1[0] - 0.2*x1[2] + 0.7*y2[0]
		z1[0] += f * w[0]
		z1[1] -= f * w[1]
		z2[0] -= f * w[1]
		z2[1] += x1[1] * 0.01
	}}
	kkVec = &core.Kernel{Name: "kk_vec", Fn: func(a [][]float64) {
		z1, z2, x1, x2, w := a[0], a[1], a[2], a[3], a[4]
		d := 0.1 * (x2[0] - x1[0] + w[0]*x2[2])
		z1[0] += d
		z2[0] -= d
		z1[1] += 0.05 * x1[1] * w[1]
	}}
	kkGblRead = &core.Kernel{Name: "kk_gbl_read", Fn: func(a [][]float64) {
		z1, g, y2 := a[0], a[1], a[2]
		z1[0] += g[0] * y2[0]
		z1[1] += g[1] * 0.01
	}}
	kkReduce = &core.Kernel{Name: "kk_reduce", Fn: func(a [][]float64) {
		x, sum, mn, mx := a[0], a[1], a[2], a[3]
		// Integer-valued contributions keep the cross-rank sum exact.
		sum[0] += math.Floor(10 * x[0])
		mn[0] = math.Min(mn[0], x[1])
		mn[1] = math.Min(mn[1], x[2])
		mx[0] = math.Max(mx[0], x[0]+x[2])
	}}
	kkMix = &core.Kernel{Name: "kk_mix", Fn: func(a [][]float64) {
		y1, z2, x1 := a[0], a[1], a[2]
		y1[0] += 0.25*z2[0] - 0.125*z2[1] + 0.01*x1[1]
	}}
	kkScale = &core.Kernel{Name: "kk_scale", Fn: func(a [][]float64) {
		z, y := a[0], a[1]
		z[0] = 0.9*z[0] + 0.01*y[0]
		z[1] *= 0.95
	}}
)

// loop builds the loop of one argument-kind case.
func (a *kindsApp) loop(kind string) core.Loop {
	switch kind {
	case "direct":
		return core.NewLoop(kkDirect, a.nodes,
			core.ArgDatDirect(a.x, core.ReadWrite), core.ArgDatDirect(a.y, core.Read))
	case "indirect":
		return core.NewLoop(kkIndirect, a.edges,
			core.ArgDat(a.z, 0, a.e2n, core.Inc), core.ArgDat(a.z, 1, a.e2n, core.Inc),
			core.ArgDat(a.x, 0, a.e2n, core.Read), core.ArgDat(a.y, 1, a.e2n, core.Read),
			core.ArgDatDirect(a.w, core.Read))
	case "vec":
		return core.NewLoop(kkVec, a.edges,
			core.ArgDatVec(a.z, a.e2n, core.Inc), core.ArgDatVec(a.x, a.e2n, core.Read),
			core.ArgDatDirect(a.w, core.Read))
	case "gbl-read":
		return core.NewLoop(kkGblRead, a.edges,
			core.ArgDat(a.z, 0, a.e2n, core.Inc), core.ArgGbl(a.gr, core.Read),
			core.ArgDat(a.y, 1, a.e2n, core.Read))
	case "gbl-reduce":
		return core.NewLoop(kkReduce, a.nodes,
			core.ArgDatDirect(a.x, core.Read), core.ArgGbl(a.gsum, core.Inc),
			core.ArgGbl(a.gmin, core.Min), core.ArgGbl(a.gmax, core.Max))
	}
	panic("unknown argument-kind case " + kind)
}

// step runs one step of a case: the case loop, then a mixer that reads
// its outputs through the map (so the next step exchanges or extends
// halos) and a direct scale. With chain, the case loop and the two
// followers form one loop-chain; a reduction loop, which must not sit in
// a chain, runs just before it.
func (a *kindsApp) step(b core.Backend, kind string, chain bool) {
	l := a.loop(kind)
	reduce := l.HasGlobalReduction()
	if reduce {
		b.ParLoop(l)
	}
	if chain {
		b.ChainBegin("kinds")
	}
	if !reduce {
		b.ParLoop(l)
	}
	b.ParLoop(core.NewLoop(kkMix, a.edges,
		core.ArgDat(a.y, 0, a.e2n, core.Inc), core.ArgDat(a.z, 1, a.e2n, core.Read),
		core.ArgDat(a.x, 0, a.e2n, core.Read)))
	b.ParLoop(core.NewLoop(kkScale, a.nodes,
		core.ArgDatDirect(a.z, core.ReadWrite), core.ArgDatDirect(a.y, core.Read)))
	if chain {
		b.ChainEnd()
	}
}

// TestCompiledArgKindsMatchSeq: every argument kind, compiled per (loop,
// rank), produces dats and global results bitwise equal to core.Seq under
// per-loop, CA-chain and overlapped execution, with pools of 1, 2 and 4
// workers.
func TestCompiledArgKindsMatchSeq(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	const steps, nparts = 3, 5
	assign := partition.KWay(m.NodeAdjacency(), nparts)
	for _, kind := range []string{"direct", "indirect", "vec", "gbl-read", "gbl-reduce"} {
		ref := newKindsApp(m)
		seq := core.NewSeq()
		for s := 0; s < steps; s++ {
			ref.step(seq, kind, true)
		}
		for _, mode := range []struct {
			name         string
			ca, overlap  bool
			chainSection bool
		}{
			{"op2", false, false, false},
			{"ca", true, false, true},
			{"ca-overlap", true, true, true},
		} {
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s/%s/w=%d", kind, mode.name, workers)
				a := newKindsApp(m)
				b, err := New(Config{
					Prog: a.p, Primary: a.nodes, Assign: assign, NParts: nparts,
					Depth: 3, MaxChainLen: 4, CA: mode.ca, Overlap: mode.overlap,
					Parallel: workers > 1, Machine: machine.ARCHER2(),
				})
				if err != nil {
					t.Fatal(err)
				}
				b.installPool(workers)
				for s := 0; s < steps; s++ {
					a.step(b, kind, mode.chainSection)
				}
				if mode.ca {
					if cs := b.Stats().Chains["kinds"]; cs == nil || cs.CAExecutions != steps {
						t.Fatalf("%s: chain did not run with CA every step: %+v", name, cs)
					}
				}
				for _, pair := range [][2]*core.Dat{{a.x, ref.x}, {a.y, ref.y}, {a.z, ref.z}, {a.w, ref.w}} {
					got, want := b.GatherDat(pair[0]), pair[1].Data
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s: %s[%d] = %v, want %v", name, pair[0].Name, i, got[i], want[i])
						}
					}
				}
				for _, g := range [][2][]float64{{a.gr, ref.gr}, {a.gsum, ref.gsum}, {a.gmin, ref.gmin}, {a.gmax, ref.gmax}} {
					for i := range g[1] {
						if math.Float64bits(g[0][i]) != math.Float64bits(g[1][i]) {
							t.Fatalf("%s: global %v, want %v", name, g[0], g[1])
						}
					}
				}
				b.Close()
			}
		}
	}
}

// TestInstallPoolRepeated: re-installing the pool at changing widths tears
// the previous one down cleanly (no double finalizer, no leaked workers)
// and the backend keeps executing bit-identically to a serial run.
func TestInstallPoolRepeated(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	assign := partition.KWay(m.NodeAdjacency(), 4)
	run := func(widths []int) (map[string][]float64, []float64) {
		a := newMiniApp(m)
		a.p.DeclDat(a.bedges, 1, makeBW(m.NBedges), "bw")
		b, err := New(Config{
			Prog: a.p, Primary: a.nodes, Assign: assign, NParts: 4,
			Depth: 2, MaxChainLen: 4, CA: true, Parallel: true, Machine: machine.ARCHER2(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		for _, w := range widths {
			b.installPool(w)
			if got := b.workers(); got != w {
				t.Fatalf("installPool(%d): %d workers", w, got)
			}
		}
		a.run(b, 2, true)
		return map[string][]float64{"res": b.GatherDat(a.res), "flux": b.GatherDat(a.flux)}, b.Clocks()
	}
	wantRes, wantClk := run([]int{1})
	gotRes, gotClk := run([]int{2, 4, 1, 3})
	compareExact(t, "reinstalled pool vs serial", gotRes, wantRes)
	for r := range wantClk {
		if gotClk[r] != wantClk[r] {
			t.Fatalf("rank %d clock %g, want %g", r, gotClk[r], wantClk[r])
		}
	}
}

// TestStandardLoopZeroAlloc: steady-state per-loop execution allocates
// nothing. Each window dirties a dat and then reads it through a map, so
// every indirect ParLoop replays a memoised exchange schedule; a global
// reduction loop exercises the reduction scratch.
func TestStandardLoopZeroAlloc(t *testing.T) {
	m := mesh.Rotor(8, 6, 5)
	a := newKindsApp(m)
	b, err := New(Config{
		Prog: a.p, Primary: a.nodes, Assign: partition.KWay(m.NodeAdjacency(), 4), NParts: 4,
		Depth: 2, MaxChainLen: 4, Machine: machine.ARCHER2(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Loops are prebuilt: core.NewLoop allocates and a real application
	// constructs its loops once, not per execution.
	loops := []core.Loop{a.loop("direct"), a.loop("indirect"), a.loop("vec"), a.loop("gbl-reduce")}
	window := func() {
		for _, l := range loops {
			b.ParLoop(l)
		}
	}
	for _, workers := range []int{1, forcedWorkers} {
		t.Run(fmt.Sprintf("w=%d", workers), func(t *testing.T) {
			b.installPool(workers)
			for i := 0; i < 3; i++ {
				window()
			}
			if n := testing.AllocsPerRun(10, window); n != 0 {
				t.Fatalf("steady per-loop execution allocates %v per window, want 0", n)
			}
		})
	}
	if ls := b.Stats().Loops["kk_indirect"]; ls == nil || ls.Msgs == 0 {
		t.Fatal("the indirect loop never exchanged: the window does not exercise the per-loop schedules")
	}
}

// TestStdScheduleMemoStaysSmall runs the applications' per-loop paths —
// every Hydra proxy loop standalone (in CA mode its exchanging loops all
// run in chains), MG-CFD's multigrid cycle beside its synthetic CA chain —
// and checks that the per-loop schedule memo stays well inside its bound,
// so steady per-loop exchanges always replay a schedule rather than fall
// back to the allocating uncached path.
func TestStdScheduleMemoStaysSmall(t *testing.T) {
	check := func(name string, b *Backend) {
		t.Helper()
		n := len(b.stdSchedules)
		t.Logf("%s: %d per-loop schedules memoised", name, n)
		if n == 0 || n > maxStdSchedules/4 {
			t.Errorf("%s: %d per-loop schedules memoised, want 1..%d", name, n, maxStdSchedules/4)
		}
	}
	m := mesh.Rotor(10, 8, 6)
	a := hydra.New(m)
	hb, err := New(Config{
		Prog: a.Prog, Primary: a.Nodes, Assign: partition.RIB(m.Coords, 3, 4), NParts: 4, Depth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	a.RunSetup(hb, false)
	for it := 0; it < 3; it++ {
		a.RunIteration(hb, false)
	}
	check("hydra", hb)

	h := mesh.NewHierarchy(m, 3, true)
	app := mgcfd.New(h)
	syn := mgcfd.NewSynthetic(app)
	b, err := New(Config{
		Prog: app.Prog, Primary: app.Primary, Assign: partition.KWay(h.Levels[0].NodeAdjacency(), 4),
		NParts: 4, Depth: 2, MaxChainLen: 8, CA: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	app.Init(b)
	for it := 0; it < 3; it++ {
		syn.Run(b, 4, true)
		app.Cycle(b)
	}
	check("mgcfd", b)
}
