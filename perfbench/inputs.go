package main

import "fmt"

// inputs is everything a workload derives from its seed. The program under
// test receives only these generated values: the seed itself never reaches
// it.
type inputs struct {
	seed int64
	// perturb scales the relative size of the initial-value perturbation.
	perturb float64
	// faultSeed seeds the served jobs' fault plans.
	faultSeed uint64
	// dropRate is the served mgcfd job's per-attempt drop probability.
	dropRate float64
	// crashAt is the exchange index of the served hydra job's crash clause.
	crashAt int
}

// Perturbation scale: small enough that every field keeps its sign and
// magnitude (the solvers stay well inside their stable range), large
// enough that every bit of the initial state depends on the seed.
const perturbScale = 1e-3

// crashWindow is the exchange-index range the served hydra job's crash is
// drawn from. The 4-iteration hydra job on 8 ranks makes 43 exchanges (3 in
// set-up, 10 per iteration) and writes its first checkpoint-ring generation
// after iteration 1 (exchange 13), so any index in the window fires after
// a generation exists and before the job ends.
var crashWindow = [2]int{20, 40}

// newInputs derives a workload's inputs from seed.
func newInputs(seed int64) inputs {
	r := newRNG(uint64(seed), 0)
	return inputs{
		seed:      seed,
		perturb:   perturbScale,
		faultSeed: r.next()%1_000_000 + 1,
		dropRate:  0.02 + 0.02*r.float(),
		crashAt:   crashWindow[0] + int(r.next()%uint64(crashWindow[1]-crashWindow[0]+1)),
	}
}

// perturbData multiplies every value of data by 1 + scale*u with u drawn
// uniformly from [-1, 1) by a stream keyed on (seed, stream). Equal
// arguments give bitwise-equal results.
func (in inputs) perturbData(data []float64, stream uint64) {
	r := newRNG(uint64(in.seed), stream)
	for i := range data {
		data[i] *= 1 + in.perturb*(2*r.float()-1)
	}
}

// faultSpec renders the served mgcfd job's fault plan.
func (in inputs) faultSpec() string {
	return fmt.Sprintf("drop=%.4f,seed=%d", in.dropRate, in.faultSeed)
}

// crashSpec renders the served hydra job's crash clause.
func (in inputs) crashSpec() string {
	return fmt.Sprintf("crash=rank1@%d,seed=%d", in.crashAt, in.faultSeed)
}

// rng is splitmix64: tiny, fast and fully determined by its state, so the
// inputs of a seed are identical on every platform and Go version.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	r := &rng{s: seed ^ (stream+1)*0x9e3779b97f4a7c15}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
