package main

import (
	"fmt"
	"time"

	"op2ca/internal/core"
	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/obs"
)

// hydra-cold: a sweep of fresh Hydra configurations, each case (the
// workload's op) one cold run: RIB partition, cluster.New, RunSetup, two
// RunIterations and the critical-path profile, then Close.
//
// The meshes form a ladder of sizes rather than two sizes: case times then
// spread evenly over their range, so the median case is a stable statistic
// instead of the gap between two size classes.
var hydraMeshNodes = []int{12_000, 16_000, 20_000, 24_000, 28_000, 32_000, 36_000, 40_000}

const (
	hydraIters = 2
	// hydraMeshSetups is how often mesh generation (the set-up) repeats
	// for its median.
	hydraMeshSetups = 5
	// hydraBlock is the case count a phase is a whole multiple of: every
	// mesh size under both rank counts, so any run covers the sizes evenly.
	hydraBlock = 16
)

// hydraCase is one configuration of the sweep.
type hydraCase struct {
	spec appSpec
	mesh int // index into the generated meshes
}

// hydraCases is one pass of the sweep: {ARCHER2, Cirrus} × {op2, ca} ×
// {8, 32} ranks × every mesh. Consecutive cases step through the mesh
// ladder; each block of hydraBlock cases covers it under both rank counts.
func hydraCases() []hydraCase {
	var out []hydraCase
	for _, mach := range []func() *machine.Machine{machine.ARCHER2, machine.Cirrus} {
		for _, ca := range []bool{false, true} {
			for _, ranks := range []int{8, 32} {
				for mi := range hydraMeshNodes {
					out = append(out, hydraCase{appSpec{app: "hydra", ranks: ranks, ca: ca,
						machine: mach(), partition: "rib", parallel: true}, mi})
				}
			}
		}
	}
	return out
}

// hydraReference is the sequential reference checksum of the case program
// on mesh m: set-up and the same iterations, unchained.
func hydraReference(m *mesh.FV3D, in inputs) string {
	p := newProgram(appSpec{app: "hydra", machine: machine.ARCHER2()}, m, nil, in)
	seq := core.NewSeq()
	p.setup(seq)
	for i := 0; i < hydraIters; i++ {
		p.iter(seq)
	}
	return seqChecksum(p.prog)
}

func runHydraCold(o opts, r *report) error {
	in := newInputs(o.seed)
	led := o.ledger()

	// Set-up: generate each mesh, repeated for the median.
	var setups samples
	var meshes []*mesh.FV3D
	for i := 0; i < hydraMeshSetups; i++ {
		meshes = meshes[:0]
		start := time.Now()
		for _, n := range hydraMeshNodes {
			led.time("mesh.gen_ms", func() { meshes = append(meshes, mesh.RotorForNodes(n)) })
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", setups.middle(), len(setups), "median of set-ups")
	var sizes []int
	for _, m := range meshes {
		sizes = append(sizes, m.NNodes)
	}
	r.info["mesh_nodes"] = sizes

	// Oracle: one sequential reference per mesh; every case's op2 and ca
	// checksums must equal it (and so each other).
	refs := make([]string, len(meshes))
	for i, m := range meshes {
		refs[i] = hydraReference(m, in)
	}
	r.info["reference_checksums"] = refs

	cases := hydraCases()
	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	// sweep runs cases in pass order, in whole blocks, until the budget
	// has elapsed and at least minCases cases ran, checking each against its
	// reference.
	sweep := func(led *ledger, minCases int, each func(k int, res runResult)) (samples, float64) {
		var walls samples
		start := time.Now()
		for k := 0; k%hydraBlock != 0 || len(walls) < minCases || time.Since(start) < budget; k++ {
			c := cases[k%len(cases)]
			spec := c.spec
			spec.tracer = obs.New() // cases are profiled, as -profile runs are
			res := runProgram(spec, meshes[c.mesh], nil, in, led, hydraIters, false)
			walls = append(walls, res.wallMs)
			if res.checksum != refs[c.mesh] {
				r.tally.fail(fmt.Sprintf("case %s on %d nodes: checksum %s, reference %s",
					c.spec, meshes[c.mesh].NNodes, res.checksum, refs[c.mesh]))
			} else {
				r.tally.ok()
			}
			each(k, res)
		}
		return walls, time.Since(start).Seconds()
	}

	// The untraced phase of a traced run reports only its median.
	minCases := max(minSamplesFor(90), len(cases))
	if o.trace {
		minCases = minSamplesFor(50)
	}
	var sim float64
	walls, wall := sweep(nil, minCases, func(k int, res runResult) {
		if k < len(cases) {
			sim += res.makespan
		}
	})
	r.info["working_set_bytes"] = heapInUse()
	if !o.trace {
		r.pct("op_ms_p50", walls, 50)
		r.pct("op_ms_p90", walls, 90)
		r.set("ops_per_s", float64(len(walls))/wall, len(walls), "")
		r.set("sim_s", sim, len(cases), "sum of case makespans over one pass")
		r.alias("case_ms_p50", "op_ms_p50")
		r.alias("cases_per_s", "ops_per_s")
		r.set("mem_mb", memMiB(), 0, "")
		return nil
	}

	untracedP50, _ := walls.median()
	var tot counters
	var misses samples
	var vt vtTotals
	var allocs uint64
	var stage float64
	var cirrus int
	// The traced phase runs the same cases as the untraced one, so the
	// two medians compare like with like.
	budget = 0
	twalls, _ := sweep(led, len(walls), func(k int, res runResult) {
		tot.add(res.counters)
		misses = append(misses, float64(res.counters.misses))
		allocs += res.mallocs
		vt.add(res.profile)
		if res.cfg.Machine.GPU != nil {
			cirrus++
			stage += res.profile.Path.ByKind[obs.Stage]
		}
	})
	// Direct halo and inspector timings, once per (mesh, ranks) shape at
	// both ends of the ladder.
	for _, m := range []*mesh.FV3D{meshes[0], meshes[len(meshes)-1]} {
		for _, ranks := range []int{8, 32} {
			p := newProgram(appSpec{app: "hydra", ranks: ranks, machine: machine.ARCHER2(), partition: "rib"}, m, nil, in)
			cfg := p.config(p.assign())
			led.time("halo.build_ms", func() { check(buildHalo(cfg)) })
			led.time("ca.inspect_ms", func() { check(p.inspect()) })
		}
	}
	n := float64(len(twalls))
	iters := n * hydraIters
	layerTimings(r, led)
	r.pct("cluster.iter_ms", led.get("cluster.iter_ms"), 50)
	r.pct("cluster.chain_ms", led.get("cluster.chain_ms"), 50)
	r.pct("cluster.cycle_ms", led.get("cluster.cycle_ms"), 50)
	r.set("cluster.allocs_per_iter", float64(allocs)/iters, int(iters), "cold iterations, plan misses included")
	r.set("cluster.plan_hit_ratio", ratio(float64(tot.hits), float64(tot.hits+tot.misses)), 0, "")
	r.set("cluster.plan_misses_per_backend", misses.mean(), len(misses), "")
	r.set("cluster.redundant_frac", ratio(float64(tot.halo), float64(tot.core+tot.halo)), 0, "")
	r.set("netsim.msgs_per_iter", float64(tot.msgs)/iters, int(iters), "")
	r.set("netsim.bytes_per_iter", float64(tot.bytes)/iters, int(iters), "")
	r.set("faults.retries_per_exchange", ratio(float64(tot.retries), float64(tot.exchanges)), 0, "")
	layerVT(r, vt, n, "per case")
	r.info["vt_stage_s_per_cirrus_case"] = ratio(stage, float64(cirrus))
	r.info["netsim_bytes_per_case"] = float64(tot.bytes) / n

	// Checkpoint timings on the sweep's largest case.
	last := cases[len(cases)-1]
	last.spec.tracer = obs.New()
	big := runProgram(last.spec, meshes[last.mesh], nil, in, nil, hydraIters, true)
	ck, err := measureCheckpoint(big.backend, big.cfg, o.workdir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	layerCheckpoint(r, ck)
	layerNoService(r)

	tp50, _ := twalls.median()
	r.set("bench.trace_overhead_frac", tp50/untracedP50-1, len(twalls), "")
	var attributed float64
	for _, name := range []string{"app.new_ms", "partition.ms", "cluster.new_ms", "cluster.warmup_ms",
		"cluster.chain_ms", "cluster.cycle_ms", "obs.profile_ms"} {
		attributed += led.get(name).sum()
	}
	r.set("bench.unattributed_frac", 1-attributed/twalls.sum(), 0, "")
	return nil
}
