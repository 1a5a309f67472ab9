package main

import (
	"math"
	"reflect"
	"testing"

	"op2ca/internal/machine"
	"op2ca/internal/mesh"
	"op2ca/internal/service"
)

func TestInputsDeterministicPerSeed(t *testing.T) {
	a, b := newInputs(42), newInputs(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different inputs: %+v vs %+v", a, b)
	}
	if reflect.DeepEqual(newInputs(42), newInputs(43)) {
		t.Fatal("different seeds gave identical inputs")
	}
	x := []float64{1, 2, 3, 4}
	y := append([]float64(nil), x...)
	a.perturbData(x, 1)
	b.perturbData(y, 1)
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			t.Fatalf("perturbation differs at %d: %v vs %v", i, x[i], y[i])
		}
	}
	z := []float64{1, 2, 3, 4}
	a.perturbData(z, 2)
	if reflect.DeepEqual(x, z) {
		t.Fatal("different streams gave identical perturbations")
	}
	if !reflect.DeepEqual(serviceSpecs(a), serviceSpecs(b)) {
		t.Fatal("same seed, different job specs")
	}
}

func TestInputsStayInRange(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		in := newInputs(seed)
		if in.crashAt < crashWindow[0] || in.crashAt > crashWindow[1] {
			t.Fatalf("seed %d: crash index %d outside %v", seed, in.crashAt, crashWindow)
		}
		if in.dropRate < 0.02 || in.dropRate >= 0.04 {
			t.Fatalf("seed %d: drop rate %g", seed, in.dropRate)
		}
		v := []float64{1, -1}
		in.perturbData(v, 3)
		if math.Abs(v[0]-1) > perturbScale || math.Abs(v[1]+1) > perturbScale {
			t.Fatalf("seed %d: perturbation too large: %v", seed, v)
		}
	}
}

func TestProgramsFromOneSeedAreBitwiseEqual(t *testing.T) {
	m := mesh.RotorForNodes(800)
	h := mesh.NewHierarchy(m, 2, true)
	in := newInputs(7)
	for _, spec := range []appSpec{
		{app: "mgcfd", levels: 2, nchains: 1, ranks: 2, ca: true, machine: machine.Laptop(), partition: "kway"},
		{app: "hydra", ranks: 2, ca: true, machine: machine.Laptop(), partition: "rib"},
	} {
		a, b := newProgram(spec, m, h, in), newProgram(spec, m, h, in)
		if seqChecksum(a.prog) != seqChecksum(b.prog) {
			t.Fatalf("%s: same seed, different initial state", spec.app)
		}
		if c := newProgram(spec, m, h, newInputs(8)); seqChecksum(c.prog) == seqChecksum(a.prog) {
			t.Fatalf("%s: different seeds, same initial state", spec.app)
		}
	}
}

// The served hydra job's crash must fire after the first ring generation
// and before the job ends, at both ends of the window the seed draws from:
// one supervised restart, restored from a generation (one cold start only).
func TestCrashWindowFiresAfterFirstGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the served hydra job twice")
	}
	for _, at := range crashWindow {
		in := newInputs(1)
		in.crashAt = at
		spec := serviceSpecs(in)[1]
		res, err := service.RunDirect(spec, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if res.Restarts != 1 || res.Supervise == nil || res.Supervise.ColdStarts != 1 {
			t.Fatalf("crash at exchange %d: restarts %d, supervise %+v", at, res.Restarts, res.Supervise)
		}
	}
}
