package main

import (
	"fmt"
	"runtime"
	"time"

	"op2ca/internal/cluster"
	"op2ca/internal/core"
	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/obs"
)

// mgcfd-steady: one MG-CFD backend built once, then stepped many times.
// A step (the workload's op) is Synthetic.Run (an 8-loop CA chain) plus
// App.Cycle (one 3-level multigrid cycle).
const (
	mgNodes   = 120_000
	mgRanks   = 32
	mgLevels  = 3
	mgNChains = 4
	// mgWarmup steps run untimed after Init; the state after them is
	// checked bitwise against the sequential reference.
	mgWarmup = 2
	// mgSetups is how often the set-up is repeated for its median.
	mgSetups = 3
	// mgSegment is the step count after which the flow state is
	// re-initialised (untimed). The explicit solver drifts and overflows
	// to NaN after about 27 steps from freestream at this size; segments
	// keep every timed step on finite values.
	mgSegment = 10
	// mgProfiled is the step count of the traced backend profiled for the
	// virtual-time attribution, after its warm-up.
	mgProfiled = 4
	// mgCheckAt is the timed step after which the checksum and virtual
	// time are recorded: every run reaches it, so both repeat bit for bit
	// across runs of one seed.
	mgCheckAt = 100
)

func mgcfdSpec() appSpec {
	return appSpec{app: "mgcfd", levels: mgLevels, nchains: mgNChains, ranks: mgRanks, ca: true,
		machine: machine.ARCHER2(), partition: "kway", parallel: true}
}

// mgSteady is one built mgcfd-steady backend.
type mgSteady struct {
	prog *program
	h    *mesh.Hierarchy
	cfg  cluster.Config
	cb   *cluster.Backend
	// sinceInit counts steps since the flow state was last initialised;
	// residuals records the residual at the end of every segment.
	sinceInit int
	residuals []float64
}

// advance counts one finished step and, at the end of a segment, checks
// the residual and re-initialises the flow state.
func (s *mgSteady) advance() {
	s.sinceInit++
	if s.sinceInit < mgSegment {
		return
	}
	s.residuals = append(s.residuals, s.prog.residual(s.cb))
	s.prog.setup(s.cb)
	s.sinceInit = 0
}

// setupMgcfd builds the backend and runs the warm-up prefix, timing each
// layer into led (nil: untimed).
func setupMgcfd(spec appSpec, in inputs, led *ledger) *mgSteady {
	s := &mgSteady{}
	var m *mesh.FV3D
	led.time("mesh.gen_ms", func() {
		m = mesh.RotorForNodes(mgNodes)
		s.h = mesh.NewHierarchy(m, spec.levels, true)
	})
	s.prog = newProgram(spec, m, s.h, in)
	var cfg cluster.Config
	led.time("partition.ms", func() { cfg = s.prog.config(s.prog.assign()) })
	s.cfg = cfg
	led.time("cluster.new_ms", func() {
		var err error
		if s.cb, err = cluster.New(cfg); err != nil {
			panic("perfbench: cluster.New: " + err.Error())
		}
	})
	led.time("cluster.warmup_ms", func() {
		s.prog.setup(s.cb)
		for i := 0; i < mgWarmup; i++ {
			s.prog.iter(s.cb)
		}
	})
	s.sinceInit = mgWarmup
	return s
}

// mgReference runs the sequential reference over the same mesh and inputs
// for the warm-up prefix and returns its checksum.
func mgReference(spec appSpec, h *mesh.Hierarchy, in inputs) string {
	ref := newProgram(spec, h.Levels[0], h, in)
	seq := core.NewSeq()
	ref.setup(seq)
	for i := 0; i < mgWarmup; i++ {
		ref.iter(seq)
	}
	return seqChecksum(ref.prog)
}

func runMgcfdSteady(o opts, r *report) error {
	in := newInputs(o.seed)
	spec := mgcfdSpec()

	// Set-up, repeated for its median; the last build is the one timed.
	var setups samples
	var s *mgSteady
	setupLed := o.ledger()
	for i := 0; i < mgSetups; i++ {
		if s != nil {
			s.cb.Close()
			s = nil
			runtime.GC()
		}
		start := time.Now()
		s = setupMgcfd(spec, in, setupLed)
		setups = append(setups, time.Since(start).Seconds())
		setupLed.time("halo.build_ms", func() { check(buildHalo(s.cfg)) })
		setupLed.time("ca.inspect_ms", func() { check(s.prog.inspect()) })
	}
	defer func() {
		if s != nil {
			s.cb.Close()
		}
	}()
	r.set("setup_s", setups.middle(), len(setups), "median of set-ups")
	r.info["mesh_nodes"] = s.h.Levels[0].NNodes
	r.info["ranks"] = mgRanks
	r.info["working_set_bytes"] = heapInUse()

	// Output oracle: the warmed-up backend equals the sequential reference
	// bitwise. If it does not, every step is counted failed.
	want := mgReference(spec, s.h, in)
	got := s.cb.ChecksumDats()
	r.info["warmup_checksum"] = got
	okState := got == want
	if !okState {
		r.tally.note(fmt.Sprintf("warm-up state %s differs from sequential reference %s", got, want))
	}

	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	steps, ckAt, simAt, wall := mgLoop(s, budget, mgMinSteps(o.trace), nil)
	okState = okState && s.residualsFinite(r)
	r.info["checksum"] = ckAt
	r.info["checksum_step"] = mgCheckAt
	countSteps(&r.tally, len(steps), okState)
	if !o.trace {
		r.pct("op_ms_p50", steps, 50)
		r.pct("op_ms_p90", steps, 90)
		r.set("ops_per_s", float64(len(steps))/wall, len(steps), "")
		r.set("sim_s", simAt, mgCheckAt, "virtual seconds per step")
		r.alias("iter_ms_p50", "op_ms_p50")
		r.alias("iter_ms_p90", "op_ms_p90")
		r.set("mem_mb", memMiB(), 0, "")
		return nil
	}

	// Traced phase: the same backend, every layer call timed from outside
	// and counters read around the loop.
	untracedP50, _ := steps.median()
	led := setupLed
	c0 := readCounters(s.cb)
	m0 := mallocs()
	tsteps, _, _, _ := mgLoop(s, budget, mgMinSteps(true), led)
	allocs := mallocs() - m0
	d := readCounters(s.cb).sub(c0)
	okState = okState && s.residualsFinite(r)
	countSteps(&r.tally, len(tsteps), okState)
	n := float64(len(tsteps))
	stepsP50, _ := tsteps.median()
	r.set("cluster.iter_ms", stepsP50, len(tsteps), "step: Synthetic.Run + App.Cycle")
	r.pct("cluster.chain_ms", led.get("cluster.chain_ms"), 50)
	r.pct("cluster.cycle_ms", led.get("cluster.cycle_ms"), 50)
	r.set("cluster.allocs_per_iter", float64(allocs)/n, len(tsteps), "")
	r.set("cluster.plan_hit_ratio", ratio(float64(d.hits), float64(d.hits+d.misses)), 0, "")
	r.set("cluster.plan_misses_per_backend", float64(readCounters(s.cb).misses), 1, "")
	r.set("cluster.redundant_frac", ratio(float64(d.halo), float64(d.core+d.halo)), 0, "")
	r.set("netsim.msgs_per_iter", float64(d.msgs)/n, len(tsteps), "")
	r.set("netsim.bytes_per_iter", float64(d.bytes)/n, len(tsteps), "")
	r.set("faults.retries_per_exchange", ratio(float64(d.retries), float64(d.exchanges)), 0, "")
	r.set("bench.trace_overhead_frac", stepsP50/untracedP50-1, len(tsteps), "")
	r.set("bench.unattributed_frac",
		1-(led.get("cluster.chain_ms").sum()+led.get("cluster.cycle_ms").sum())/led.get("step_wall_ms").sum(), 0, "")
	ck, err := measureCheckpoint(s.cb, s.cfg, o.workdir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	layerCheckpoint(r, ck)

	// Virtual-time attribution: a backend carrying the span tracer (which
	// slows host execution severalfold, so it stays out of the timed
	// phases), profiled after a short run from the same inputs.
	s = nil
	runtime.GC()
	vspec := spec
	vspec.tracer = obs.New()
	vs := setupMgcfd(vspec, in, nil)
	defer vs.cb.Close()
	if c := vs.cb.ChecksumDats(); c != got {
		r.tally.fail(fmt.Sprintf("traced backend warmed up to %s, untraced to %s", c, got))
	}
	for i := 0; i < mgProfiled; i++ {
		vs.prog.iter(vs.cb)
	}
	var vt vtTotals
	led.time("obs.profile_ms", func() { vt.add(vs.cb.Profile()) })
	layerTimings(r, led)
	layerVT(r, vt, mgWarmup+mgProfiled, "per step")
	layerNoService(r)
	return nil
}

// mgMinSteps is the step count a phase runs to at least, whatever its
// time budget: enough for the reported percentiles and the checksum point.
func mgMinSteps(traced bool) int {
	if traced {
		return minSamplesFor(50)
	}
	return max(minSamplesFor(90), mgCheckAt)
}

// mgLoop steps s until budget has elapsed and at least minSteps ran,
// returning the per-step wall times (ms), the checksum and per-step
// virtual time after step mgCheckAt (untimed, and only without a ledger),
// and the loop's wall seconds. With a live ledger it times the chain and
// the cycle separately and records each step's wall time, bookkeeping
// included.
func mgLoop(s *mgSteady, budget time.Duration, minSteps int, led *ledger) (steps samples, ck string, sim, wall float64) {
	clock0 := s.cb.MaxClock()
	start := time.Now()
	prev := start
	var paused time.Duration // checksum and re-initialisation, excluded from the loop's wall
	for len(steps) < minSteps || time.Since(start) < budget {
		t0 := time.Now()
		if led == nil {
			s.prog.iter(s.cb)
		} else {
			led.time("cluster.chain_ms", func() { s.prog.chain(s.cb) })
			led.time("cluster.cycle_ms", func() { s.prog.rest(s.cb) })
		}
		t1 := time.Now()
		steps = append(steps, ms(t1.Sub(t0)))
		if led != nil {
			led.add("step_wall_ms", ms(t1.Sub(prev)))
			prev = t1
		} else if len(steps) == mgCheckAt {
			sim = (s.cb.MaxClock() - clock0) / mgCheckAt
			ck = s.cb.ChecksumDats()
		}
		s.advance()
		if led == nil {
			paused += time.Since(t1)
		}
	}
	return steps, ck, sim, (time.Since(start) - paused).Seconds()
}

// countSteps tallies n steps, all failed when the state check failed.
func countSteps(t *tally, n int, ok bool) {
	t.attempted += n
	if !ok {
		t.failed += n
	}
}

// residualsFinite checks that every segment ended on a finite residual.
func (s *mgSteady) residualsFinite(r *report) bool {
	r.info["segment_residuals"] = len(s.residuals)
	for _, res := range s.residuals {
		if !finite(res) {
			r.tally.note(fmt.Sprintf("segment residual %v is not finite", res))
			return false
		}
	}
	return true
}
