package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"op2ca/internal/ca"
	"op2ca/internal/chaincfg"
	"op2ca/internal/cluster"
	"op2ca/internal/core"
	"op2ca/internal/faults"
	"op2ca/internal/halo"
	"op2ca/internal/hydra"
	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/mgcfd"
	"op2ca/internal/obs"
	"op2ca/internal/obs/analysis"
	"op2ca/internal/partition"
)

// appSpec is one application configuration the benchmark builds through
// the public APIs: which mini-app, on which mesh, how distributed.
type appSpec struct {
	app       string // "mgcfd" or "hydra"
	levels    int    // mgcfd multigrid levels
	nchains   int    // mgcfd synthetic chain pairs per step
	ranks     int
	ca        bool
	overlap   bool
	machine   *machine.Machine
	partition string // "kway" or "rib"
	parallel  bool
	faults    *faults.Plan
	tracer    *obs.Tracer
}

func (s appSpec) String() string {
	mode := "op2"
	if s.ca {
		mode = "ca"
	}
	return fmt.Sprintf("%s/%s/%dr/%s", s.app, s.machine.Name, s.ranks, mode)
}

// program is an application declared over a mesh: its dats hold the
// (perturbed) initial state, and its calls are split the way the
// benchmark times them.
type program struct {
	spec appSpec
	prog *core.Program
	// primary is the partitioned set, whose owner vector cluster.New takes.
	primary *core.Set
	mesh    *mesh.FV3D
	// setup runs once on a fresh backend (mgcfd Init, hydra RunSetup);
	// perturbs the state setup wrote, if any, afterwards.
	setup func(b core.Backend)
	// iter is one application iteration as the app defines it; chain and
	// rest are its loop-chained and unchained parts, which together make
	// exactly one iter (the traced run calls them separately).
	iter, chain, rest func(b core.Backend)
	// chains lists the loop-chains of one iteration with their configured
	// halo extensions, for timing the inspector directly.
	chains []namedChain
	// chaincfg is hydra's chain configuration (nil for mgcfd).
	chaincfg *chaincfg.Config
	depth    int
	maxChain int
	// residual is the app's convergence monitor, nil where there is none.
	residual func(b core.Backend) float64
}

type namedChain struct {
	name  string
	loops []core.Loop
	he    []int
}

// newProgram declares the application of spec over m, applies the seeded
// initial-value perturbation, and wires its calls. hierarchy is mgcfd's
// multigrid hierarchy over m (ignored for hydra). Building the same spec
// twice gives programs with bitwise-equal initial state.
func newProgram(spec appSpec, m *mesh.FV3D, h *mesh.Hierarchy, in inputs) *program {
	p := &program{spec: spec, mesh: m, depth: 2}
	switch spec.app {
	case "mgcfd":
		app := mgcfd.New(h)
		syn := mgcfd.NewSynthetic(app)
		_, spres, _ := syn.Dats()
		in.perturbData(spres.Data, 1)
		vars := app.Levels[0].Vars
		p.prog, p.primary = app.Prog, app.Primary
		p.setup = func(b core.Backend) {
			app.Init(b)
			perturbDat(b, vars, in, 2)
		}
		p.chain = func(b core.Backend) { syn.Run(b, spec.nchains, spec.ca) }
		p.rest = app.Cycle
		p.iter = func(b core.Backend) {
			syn.Run(b, spec.nchains, spec.ca)
			app.Cycle(b)
		}
		p.residual = app.Residual
		p.maxChain = 2 * spec.nchains
		rec := &recorder{}
		syn.Run(rec, spec.nchains, true)
		p.chains = rec.chains
	case "hydra":
		app := hydra.New(m)
		in.perturbData(app.Qp.Data, 1)
		cfg := hydra.MustPaperConfig()
		p.prog, p.primary, p.chaincfg = app.Prog, app.Nodes, cfg
		p.setup = func(b core.Backend) { app.RunSetup(b, spec.ca) }
		p.iter = func(b core.Backend) { app.RunIteration(b, spec.ca) }
		// The same calls, in the same order, as hydra's RunIteration: the
		// four in-loop chains, then the RK skeleton. The checksum oracle
		// compares against a reference that calls RunIteration, so a
		// divergence between the two shows up as a failed case.
		p.chain = func(b core.Backend) {
			app.RunGradl(b, spec.ca)
			app.RunIflux(b, spec.ca)
			app.RunVflux(b, spec.ca)
			app.RunJacob(b, spec.ca)
		}
		p.rest = app.RunRK
		p.maxChain = 6
		for _, name := range hydra.ChainNames() {
			loops := app.ChainLoops(name)
			he, err := cfg.Get(name).HEOverrides(len(loops))
			if err != nil {
				panic("perfbench: hydra paper config: " + err.Error())
			}
			p.chains = append(p.chains, namedChain{name, loops, he})
		}
	default:
		panic("perfbench: unknown app " + spec.app)
	}
	return p
}

// assign partitions the primary set.
func (p *program) assign() partition.Assignment {
	if p.spec.partition == "rib" {
		return partition.RIB(p.mesh.Coords, 3, p.spec.ranks)
	}
	return partition.KWay(p.mesh.NodeAdjacency(), p.spec.ranks)
}

// config is the cluster configuration of the program under assignment a.
func (p *program) config(a partition.Assignment) cluster.Config {
	return cluster.Config{
		Prog: p.prog, Primary: p.primary, Assign: a, NParts: p.spec.ranks,
		Depth: p.depth, MaxChainLen: p.maxChain, CA: p.spec.ca, Chains: p.chaincfg,
		Machine: p.spec.machine, Parallel: p.spec.parallel, Tracer: p.spec.tracer,
		Faults: p.spec.faults, Overlap: p.spec.overlap,
	}
}

// buildHalo performs the ownership derivation and halo construction
// cluster.New performs, with the same arguments, so the halo layer can be
// timed on its own.
func buildHalo(cfg cluster.Config) error {
	owners, err := halo.DeriveOwnership(cfg.Prog, cfg.Primary, cfg.Assign)
	if err != nil {
		return err
	}
	if l := halo.Build(cfg.Prog, owners, cfg.NParts, cfg.Depth, cfg.MaxChainLen); len(l) != cfg.NParts {
		return fmt.Errorf("halo.Build returned %d layouts for %d ranks", len(l), cfg.NParts)
	}
	return nil
}

// inspect runs the CA inspector over every chain of one iteration.
func (p *program) inspect() error {
	for _, c := range p.chains {
		if _, err := ca.Inspect(c.name, c.loops, c.he); err != nil {
			return err
		}
	}
	return nil
}

// perturbDat applies the seeded perturbation to d's current values on b:
// in place for the sequential reference, via gather and scatter for the
// distributed backend.
func perturbDat(b core.Backend, d *core.Dat, in inputs, stream uint64) {
	if cb, ok := b.(*cluster.Backend); ok {
		g := cb.GatherDat(d)
		in.perturbData(g, stream)
		cb.ScatterDat(d, g)
		return
	}
	in.perturbData(d.Data, stream)
}

// seqChecksum hashes a sequentially executed program's dats exactly as
// cluster.Backend.ChecksumDats hashes the gathered distributed state, so
// the two compare bit for bit.
func seqChecksum(prog *core.Program) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, d := range prog.Dats {
		h.Write([]byte(d.Name))
		for _, v := range d.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// recorder is a core.Backend that executes nothing: it captures the loops
// between ChainBegin and ChainEnd, giving the inspector's input without
// running the app.
type recorder struct {
	chains []namedChain
	open   *namedChain
}

func (r *recorder) ParLoop(l core.Loop) {
	if r.open != nil {
		r.open.loops = append(r.open.loops, l)
	}
}
func (r *recorder) ChainBegin(name string) { r.open = &namedChain{name: name} }
func (r *recorder) ChainEnd() {
	r.chains = append(r.chains, *r.open)
	r.open = nil
}
func (r *recorder) Name() string { return "recorder" }

// runResult is the outcome of one instrumented run of a program.
type runResult struct {
	wallMs   float64
	makespan float64
	checksum string
	counters counters // iterations only, except misses: whole backend life
	mallocs  uint64   // heap allocations during the iterations (timed runs)
	profile  *analysis.Profile
	prog     *program
	cfg      cluster.Config
	backend  *cluster.Backend // open only when the caller asked to keep it
}

// runProgram builds the program of spec on mesh m (h: mgcfd's hierarchy
// over m) and runs it cold: partition, cluster.New, set-up, iters
// iterations and the critical-path profile (spec.tracer must be set).
// With a live ledger every layer call is timed separately. Crash clauses
// are disarmed: recovering from them is the supervisor's part, measured
// through the service. keep leaves the backend open for the caller.
func runProgram(spec appSpec, m *mesh.FV3D, h *mesh.Hierarchy, in inputs, led *ledger, iters int, keep bool) runResult {
	var res runResult
	start := time.Now()
	var cb *cluster.Backend
	led.time("app.new_ms", func() { res.prog = newProgram(spec, m, h, in) })
	p := res.prog
	led.time("partition.ms", func() { res.cfg = p.config(p.assign()) })
	led.time("cluster.new_ms", func() {
		var err error
		if cb, err = cluster.New(res.cfg); err != nil {
			panic("perfbench: cluster.New: " + err.Error())
		}
	})
	if n := len(spec.faults.CrashSchedule()); n > 0 {
		cb.ArmCrashes(make([]bool, n))
	}
	led.time("cluster.warmup_ms", func() { p.setup(cb) })
	c0 := readCounters(cb)
	var m0 uint64
	if led != nil {
		m0 = mallocs()
	}
	for i := 0; i < iters; i++ {
		if led == nil {
			p.iter(cb)
			continue
		}
		t := time.Now()
		led.time("cluster.chain_ms", func() { p.chain(cb) })
		led.time("cluster.cycle_ms", func() { p.rest(cb) })
		led.add("cluster.iter_ms", ms(time.Since(t)))
	}
	if led != nil {
		res.mallocs = mallocs() - m0
	}
	led.time("obs.profile_ms", func() { res.profile = cb.Profile() })
	res.wallMs = ms(time.Since(start))
	res.counters = readCounters(cb).sub(c0)
	res.counters.misses = readCounters(cb).misses
	res.makespan = cb.MaxClock()
	res.checksum = cb.ChecksumDats()
	if keep {
		res.backend = cb
	} else {
		cb.Close()
	}
	return res
}
