package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"op2ca/internal/service"
)

func seq(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[i] = float64(n - i) // descending: percentile must sort
	}
	return s
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		ok   bool
		want float64
	}{
		{50, 19, false, 0},
		{50, 20, true, 10},
		{50, 21, true, 11},
		{90, 99, false, 0},
		{90, 100, true, 90},
		{90, 150, true, 135},
		{99, 999, false, 0},
		{99, 1000, true, 990},
	} {
		got, ok := seq(c.n).percentile(c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g, %v", c.p, c.n, got, ok, c.want, c.ok)
		}
		if ok {
			// Exactly the reported rank and at least ten samples beyond it.
			beyond := 0
			for _, v := range seq(c.n) {
				if v > got {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("p%g of %d: only %d samples beyond", c.p, c.n, beyond)
			}
		}
	}
	if minSamplesFor(90) != 100 || minSamplesFor(50) != 20 {
		t.Fatalf("minSamplesFor: p90 %d, p50 %d", minSamplesFor(90), minSamplesFor(50))
	}
}

func TestPercentileDoesNotReorderSamples(t *testing.T) {
	s := seq(30)
	want := append(samples(nil), s...)
	s.percentile(50)
	if !reflect.DeepEqual(s, want) {
		t.Fatal("percentile sorted its receiver")
	}
}

func TestReportCarriesSampleCount(t *testing.T) {
	r := newReport("w", 1, false)
	r.pct("op_ms_p90", seq(100), 90)
	if v := r.values["op_ms_p90"]; v.n != 100 || v.v != 90 || v.note != "" {
		t.Fatalf("p90 of 100: %+v", v)
	}
	// Too few samples: still reported (the contract needs every metric),
	// but flagged with the count it rests on.
	r.pct("op_ms_p50", seq(12), 50)
	if v := r.values["op_ms_p50"]; v.n != 12 || v.note == "" {
		t.Fatalf("p50 of 12: %+v", v)
	}
}

func TestMiddle(t *testing.T) {
	if got := (samples{3, 1, 2}).middle(); got != 2 {
		t.Errorf("middle of 3 = %g", got)
	}
	if got := (samples{4, 1, 3, 2}).middle(); got != 2.5 {
		t.Errorf("middle of 4 = %g", got)
	}
}

func TestFailFracCountsShedAndMismatchedJobs(t *testing.T) {
	want := []oracle{{Checksum: "aa", MaxClock: 1.5}, {Checksum: "bb", MaxClock: 2.5}}
	good := func(kind int) jobSample {
		return jobSample{kind: kind, latencyMs: 10,
			result: &service.Result{Checksum: want[kind].Checksum, MaxClockSeconds: want[kind].MaxClock}}
	}
	wrongSum := good(0)
	wrongSum.result = &service.Result{Checksum: "ab", MaxClockSeconds: 1.5}
	wrongClock := good(1)
	wrongClock.result = &service.Result{Checksum: "bb", MaxClockSeconds: 2.5000001}
	jobs := []jobSample{
		good(0), good(1),
		{kind: 0, failure: "submit shed (429)"},
		{kind: 1, failure: "job j9 ended failed"},
		wrongSum, wrongClock,
	}
	var tl tally
	lat := judgeJobs(&tl, want, jobs)
	if tl.attempted != 6 || tl.failed != 4 || tl.failFrac() != 4.0/6 {
		t.Fatalf("attempted %d failed %d frac %g", tl.attempted, tl.failed, tl.failFrac())
	}
	if len(lat) != 2 {
		t.Fatalf("%d latencies kept, want only the 2 good jobs", len(lat))
	}
}

func TestCataloguesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, program runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}
