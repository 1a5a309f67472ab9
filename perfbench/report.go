package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// metricDef names one reported metric and its unit; the two catalogues
// below are the ones BENCHMARK.json declares (a test holds them equal).
type metricDef struct{ name, unit string }

// endToEnd metrics come from untraced runs (--trace 0). An "op" is one
// step on mgcfd-steady, one cold case on hydra-cold and one served job on
// service-mixed.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"sim_s", "vs"},
	{"mem_mb", "MiB"},
}

// perLayer metrics come from the traced run (--trace 1). Virtual-time
// quantities carry the unit "vs" (simulated seconds): they are outputs of
// the simulation, deterministic per seed, not host measurements.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"mesh.gen_ms", "ms"},
		{"partition.ms", "ms"},
		{"halo.build_ms", "ms"},
		{"ca.inspect_ms", "ms"},
		{"cluster.new_ms", "ms"},
		{"cluster.warmup_ms", "ms"},
		{"cluster.iter_ms", "ms"},
		{"cluster.chain_ms", "ms"},
		{"cluster.cycle_ms", "ms"},
		{"cluster.allocs_per_iter", "count"},
		{"cluster.plan_hit_ratio", "ratio"},
		{"cluster.plan_misses_per_backend", "count"},
		{"cluster.redundant_frac", "ratio"},
		{"netsim.msgs_per_iter", "count"},
		{"netsim.bytes_per_iter", "B"},
		{"faults.retries_per_exchange", "ratio"},
	}
	for _, k := range critKinds {
		defs = append(defs, metricDef{"vt.crit." + k.String() + "_s", "vs"})
	}
	defs = append(defs,
		metricDef{"vt.wait.late_s", "vs"},
		metricDef{"vt.wait.nic_s", "vs"},
		metricDef{"vt.wait.transit_s", "vs"},
		metricDef{"vt.wait.retry_s", "vs"},
		metricDef{"vt.hidden_s", "vs"},
		metricDef{"vt.imbalance_ratio", "ratio"},
		metricDef{"obs.profile_ms", "ms"},
		metricDef{"checkpoint.write_ms", "ms"},
		metricDef{"checkpoint.restore_ms", "ms"},
		metricDef{"checkpoint.bytes", "B"},
		metricDef{"supervise.restarts_per_job", "count"},
		metricDef{"service.attempts_per_job", "count"},
		metricDef{"service.submit_frac", "ratio"},
		metricDef{"service.queue_frac", "ratio"},
		metricDef{"service.run_frac", "ratio"},
		metricDef{"service.events_lag_frac", "ratio"},
		metricDef{"service.result_frac", "ratio"},
		metricDef{"bench.trace_overhead_frac", "ratio"},
		metricDef{"bench.unattributed_frac", "ratio"},
	)
	return defs
}()

// value is one reported number: the statistic, the samples behind it (0
// for a single measurement or a derived ratio) and a note for readers.
type value struct {
	v    float64
	n    int
	note string
}

// report is one run's outcome.
type report struct {
	workload string
	seed     int64
	trace    bool
	values   map[string]value
	tally    tally
	// info holds the environment, sizes, checksums and every statistic a
	// reader may want beyond the contract metrics (issue-named aliases,
	// ms breakdowns); printed as one JSON line ahead of the result.
	info map[string]any
	// aliases pairs issue-named metric names with the metric they alias.
	aliases [][2]string
}

func newReport(workload string, seed int64, trace bool) *report {
	return &report{
		workload: workload, seed: seed, trace: trace,
		values: map[string]value{},
		info:   map[string]any{"workload": workload, "seed": seed, "trace": trace},
	}
}

// set records a metric.
func (r *report) set(name string, v float64, n int, note string) {
	r.values[name] = value{v, n, note}
}

// pct records percentile p of s as metric name. A percentile with fewer
// than minBeyond samples beyond it is still reported — the contract needs
// every metric — but the run is marked as lacking samples.
func (r *report) pct(name string, s samples, p float64) {
	v, ok := s.percentile(p)
	note := ""
	if !ok {
		v = nearestRank(s, p)
		note = fmt.Sprintf("only %d samples: p%g needs %d", len(s), p, minSamplesFor(p))
	}
	r.set(name, v, len(s), note)
	if p == 50 {
		// The shape of the distribution, for readers comparing runs.
		var q []float64
		for _, p := range []float64{10, 25, 50, 75, 90} {
			q = append(q, nearestRank(s, p))
		}
		r.info[name+"_deciles_10_25_50_75_90"] = q
	}
}

// env records the host the numbers were measured on.
func (r *report) env() {
	r.info["nproc"] = runtime.NumCPU()
	r.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.info["go"] = runtime.Version()
	r.info["l3_bytes"] = l3Bytes()
}

// l3Bytes reads the last-level cache size Linux reports for CPU 0; 0 when
// unavailable.
func l3Bytes() int64 {
	raw, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size")
	if err != nil {
		return 0
	}
	s := strings.TrimSpace(string(raw))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

// result is the contract's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the human-readable metric lines, the info line and, last,
// the contract result line. Every catalogued metric of the run's kind
// must have been set; a missing one is a benchmark bug.
func (r *report) write(w io.Writer) error {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	res := result{
		Correct:   r.tally.failed == 0 && r.tally.attempted > 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   map[string]resultValue{},
	}
	fmt.Fprintf(w, "workload %s seed %d trace %v: attempted %d failed %d fail_frac %g\n",
		r.workload, r.seed, r.trace, r.tally.attempted, r.tally.failed, r.tally.failFrac())
	for _, n := range r.tally.notes {
		fmt.Fprintf(w, "failure: %s\n", n)
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if !finite(v.v) {
			res.Correct = false
			fmt.Fprintf(w, "failure: metric %s is not finite\n", d.name)
			v.v = 0
		}
		line := fmt.Sprintf("metric %-34s %14.6g %-6s", d.name, v.v, d.unit)
		if v.n > 0 {
			line += fmt.Sprintf(" n=%d", v.n)
		}
		if v.note != "" {
			line += " (" + v.note + ")"
		}
		fmt.Fprintln(w, line)
		res.Metrics[d.name] = resultValue{v.v, d.unit}
	}
	for _, a := range r.aliases {
		v := r.values[a[1]]
		fmt.Fprintf(w, "metric %-34s %14.6g n=%d (alias of %s)\n", a[0], v.v, v.n, a[1])
	}
	fmt.Fprintf(w, "metric %-34s %14.6g n=%d (failed ÷ attempted)\n", "fail_frac", r.tally.failFrac(), r.tally.attempted)
	r.info["fail_frac"] = r.tally.failFrac()
	info, err := json.Marshal(r.info)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "info %s\n", info)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// typical summarises a set-up layer's samples: the median with its
// sample count when there are enough for the reporting rule, the middle
// value of the repetitions otherwise.
func (r *report) typical(name string, s samples) {
	if v, ok := s.median(); ok {
		r.set(name, v, len(s), "")
		return
	}
	r.set(name, s.middle(), len(s), "median of repetitions")
}

// layerTimings reports the set-up layers and the profiler from the
// ledger.
func layerTimings(r *report, led *ledger) {
	for _, name := range []string{"mesh.gen_ms", "partition.ms", "halo.build_ms", "ca.inspect_ms",
		"cluster.new_ms", "cluster.warmup_ms", "obs.profile_ms"} {
		r.typical(name, led.get(name))
	}
}

// layerVT reports the virtual-time attribution, per op.
func layerVT(r *report, vt vtTotals, ops float64, per string) {
	for _, k := range critKinds {
		r.set("vt.crit."+k.String()+"_s", ratio(vt.crit[k], ops), 0, "critical path, "+per)
	}
	r.set("vt.wait.late_s", ratio(vt.late, ops), 0, per)
	r.set("vt.wait.nic_s", ratio(vt.nic, ops), 0, per)
	r.set("vt.wait.transit_s", ratio(vt.transit, ops), 0, per)
	r.set("vt.wait.retry_s", ratio(vt.retry, ops), 0, per)
	r.set("vt.hidden_s", ratio(vt.hidden, ops), 0, per)
	r.set("vt.imbalance_ratio", vt.imbalance.middle(), len(vt.imbalance), "max/mean rank compute")
	r.info["vt_makespan_s_per_op"] = ratio(vt.makespan, ops)
}

// layerCheckpoint reports one checkpoint write/restore and its size.
func layerCheckpoint(r *report, ck ckptTiming) {
	r.set("checkpoint.write_ms", ck.writeMs, 1, "")
	r.set("checkpoint.restore_ms", ck.restoreMs, 1, "")
	r.set("checkpoint.bytes", float64(ck.bytes), 1, "")
}

// layerNoService reports the serving-path metrics of a workload that
// serves no jobs: counts and latency shares of zero jobs.
func layerNoService(r *report) {
	for _, name := range []string{"supervise.restarts_per_job", "service.attempts_per_job",
		"service.submit_frac", "service.queue_frac", "service.run_frac", "service.events_lag_frac",
		"service.result_frac"} {
		r.set(name, 0, 0, "no served jobs on this workload")
	}
}

// alias prints an issue-named alias of a metric in the human-readable
// report.
func (r *report) alias(name, of string) {
	r.aliases = append(r.aliases, [2]string{name, of})
}
