package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before it is reported: a tail estimate resting on fewer is mostly noise.
const minBeyond = 10

// samples is one series of measurements (durations in milliseconds, or any
// other per-operation quantity).
type samples []float64

// minSamplesFor returns the smallest sample count at which percentile p
// (0 < p < 100) has minBeyond samples beyond it.
func minSamplesFor(p float64) int {
	return int(math.Ceil(minBeyond * 100 / (100 - p)))
}

// percentile returns the p-th percentile (nearest rank) and whether it is
// reportable: at least minBeyond samples lie above its rank, which holds
// exactly when there are minSamplesFor(p) samples or more.
func (s samples) percentile(p float64) (float64, bool) {
	if len(s) == 0 || len(s) < minSamplesFor(p) {
		return 0, false
	}
	return nearestRank(s, p), true
}

// nearestRank is the nearest-rank percentile of s, whatever its length.
// The samples are not modified.
func nearestRank(s samples, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// median is the 50th percentile under the same reporting rule.
func (s samples) median() (float64, bool) { return s.percentile(50) }

// sum totals the samples.
func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// mean averages the samples; 0 for an empty series.
func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// middle is the plain median of a short series (set-up repetitions), where
// the tail-reporting rule does not apply: the value reported is the middle
// one, or the mean of the two middle ones.
func (s samples) middle() float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// tally counts operations attempted and failed. Every operation a
// workload starts is attempted; one that errors, is shed (HTTP 429) or
// produces an output that disagrees with its oracle is failed.
type tally struct {
	attempted int
	failed    int
	notes     []string // one line per failure kind, for the report
}

// ok records a successful operation.
func (t *tally) ok() { t.attempted++ }

// fail records a failed operation with its reason.
func (t *tally) fail(reason string) {
	t.attempted++
	t.failed++
	t.note(reason)
}

// note keeps the first few distinct failure reasons.
func (t *tally) note(reason string) {
	for _, n := range t.notes {
		if n == reason {
			return
		}
	}
	if len(t.notes) < 8 {
		t.notes = append(t.notes, reason)
	}
}

// failFrac is failed ÷ attempted (0 when nothing was attempted).
func (t *tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// finite reports whether every value is a finite number.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
