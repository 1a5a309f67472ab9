// Command perfbench is op2ca's host-time benchmark. It drives three
// workloads through the public APIs of the repository's layers and prints
// end-to-end metrics (untraced runs) or per-layer metrics (traced runs),
// checking every output against an oracle on the way.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload mgcfd-steady --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//	mgcfd-steady   one 120k-node MG-CFD backend on 32 ranks, stepped many
//	               times (op = Synthetic.Run + App.Cycle)
//	hydra-cold     a sweep of cold Hydra cases on 20k- and 60k-node meshes
//	               (op = one case, build to profile)
//	service-mixed  an in-process job service on loopback serving a faulted,
//	               crashing, OP2 and overlapped job mix to two closed-loop
//	               clients (op = one job, submit to result)
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (name -> value, unit). The lines before it print every
// metric with its sample count, the workload's issue-named aliases
// (iter_ms_p50, case_ms_p50, job_ms_p90, ...), fail_frac, and an info line
// with the environment, sizes and checksums.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// opts is one invocation's configuration.
type opts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// workdir holds every file the run writes (checkpoint rings, the
	// service's data directory); it is removed at exit.
	workdir string
}

// ledger returns a live ledger in traced runs, nil otherwise.
func (o opts) ledger() *ledger {
	if o.trace {
		return newLedger()
	}
	return nil
}

var workloads = map[string]func(opts, *report) error{
	"mgcfd-steady":  runMgcfdSteady,
	"hydra-cold":    runHydraCold,
	"service-mixed": runServiceMixed,
}

func main() {
	var o opts
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "mgcfd-steady, hydra-cold or service-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: initial-value perturbations, fault seeds, crash index")
	flag.IntVar(&seconds, "seconds", 25, "measurement budget per run; a phase also runs until its percentiles have enough samples")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	run, ok := workloads[o.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {mgcfd-steady|hydra-cold|service-mixed}, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-*")
	if err != nil {
		fatal(err)
	}
	if o.workdir, err = filepath.Abs(dir); err != nil {
		fatal(err)
	}
	r := newReport(o.workload, o.seed, o.trace)
	r.env()
	steal := stealSeconds()
	err = run(o, r)
	r.info["steal_s"] = stealSeconds() - steal
	if rerr := os.RemoveAll(o.workdir); err == nil {
		err = rerr
	}
	if err != nil {
		fatal(err)
	}
	if err := r.write(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// check aborts the run on an error a layer returned where none is
// possible for the benchmark's own, valid inputs.
func check(err error) {
	if err != nil {
		panic("perfbench: " + err.Error())
	}
}

// ratio is a ÷ b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapInUse is the live Go heap after a collection: the working set the
// workload keeps resident.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// memMiB is the memory the Go runtime has obtained from the OS.
func memMiB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// stealSeconds reads the CPU time the hypervisor gave to other guests
// (Linux /proc/stat, all CPUs); a run that saw much of it ran on a
// contended host. 0 where unavailable.
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}
