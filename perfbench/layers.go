package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"op2ca/internal/checkpoint"
	"op2ca/internal/cluster"
	"op2ca/internal/obs"
	"op2ca/internal/obs/analysis"
)

// ms converts a duration to milliseconds with full precision.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ledger collects per-layer timings: one sample series per layer call
// site, each sample one call timed from outside the layer. A nil ledger
// (the untraced run) only makes the calls.
type ledger struct {
	series map[string]samples
}

func newLedger() *ledger { return &ledger{series: map[string]samples{}} }

// time runs f and, when the ledger is live, records its wall time in ms.
func (l *ledger) time(name string, f func()) {
	if l == nil {
		f()
		return
	}
	t := time.Now()
	f()
	l.add(name, ms(time.Since(t)))
}

// add records one sample.
func (l *ledger) add(name string, v float64) {
	if l != nil {
		l.series[name] = append(l.series[name], v)
	}
}

// get returns a series (nil when never recorded).
func (l *ledger) get(name string) samples {
	if l == nil {
		return nil
	}
	return l.series[name]
}

// counters is a snapshot of a backend's public counters; differences of
// two snapshots give the work one stretch of execution did.
type counters struct {
	msgs, bytes  int64 // halo messages and bytes, loops and chains
	core, halo   int64 // chain iterations, owned-core and redundant-halo
	hits, misses int64 // plan cache
	retries      int64
	exchanges    uint64
}

func readCounters(b *cluster.Backend) counters {
	st := b.Stats()
	var c counters
	for _, ls := range st.Loops {
		c.msgs += ls.Msgs
		c.bytes += ls.Bytes
	}
	for _, cs := range st.Chains {
		c.msgs += cs.Msgs
		c.bytes += cs.Bytes
		c.core += cs.CoreIters
		c.halo += cs.HaloIters
	}
	c.hits, c.misses, _ = b.PlanCacheStats()
	c.retries = st.Faults.Retries
	c.exchanges = b.ExchangeSeq()
	return c
}

func (c counters) sub(o counters) counters {
	return counters{
		msgs: c.msgs - o.msgs, bytes: c.bytes - o.bytes,
		core: c.core - o.core, halo: c.halo - o.halo,
		hits: c.hits - o.hits, misses: c.misses - o.misses,
		retries: c.retries - o.retries, exchanges: c.exchanges - o.exchanges,
	}
}

func (c *counters) add(o counters) {
	c.msgs += o.msgs
	c.bytes += o.bytes
	c.core += o.core
	c.halo += o.halo
	c.hits += o.hits
	c.misses += o.misses
	c.retries += o.retries
	c.exchanges += o.exchanges
}

// mallocs reads the runtime's cumulative heap-allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// critKinds are the span kinds whose critical-path share is reported;
// the remaining kinds are zero-length markers.
var critKinds = []obs.Kind{obs.Compute, obs.Pack, obs.Send, obs.Wait, obs.Unpack,
	obs.Redundant, obs.Reduce, obs.Stage, obs.Retry, obs.Idle}

// vtTotals accumulates the virtual-time analysis of profiled backends.
type vtTotals struct {
	crit                              map[obs.Kind]float64
	late, nic, transit, retry, hidden float64
	imbalance                         samples
	makespan                          float64
}

func (v *vtTotals) add(p *analysis.Profile) {
	if p == nil {
		return
	}
	if v.crit == nil {
		v.crit = map[obs.Kind]float64{}
	}
	for k, s := range p.Path.ByKind {
		v.crit[k] += s
	}
	for _, c := range p.Comm {
		v.late += c.WaitLate
		v.nic += c.WaitNIC
		v.transit += c.WaitTransit
		v.retry += c.WaitRetry
		v.hidden += c.WaitHidden
	}
	v.imbalance = append(v.imbalance, p.Imbalance.Ratio)
	v.makespan += p.Makespan
}

// ckptTiming is one checkpoint write and restore of a backend.
type ckptTiming struct {
	writeMs, restoreMs float64
	bytes              int64
}

// measureCheckpoint writes one snapshot of b through an fsync'd generation
// ring under dir, closes b, then recovers the newest generation and
// rebuilds a backend from it with cfg, timing both halves. The rebuilt
// backend must checksum equal to b.
func measureCheckpoint(b *cluster.Backend, cfg cluster.Config, dir string) (ckptTiming, error) {
	var t ckptTiming
	ring, err := checkpoint.NewRing(checkpoint.Spec{Every: 1, Path: filepath.Join(dir, "bench.ck"), Keep: 2})
	if err != nil {
		return t, err
	}
	want := b.ChecksumDats()
	start := time.Now()
	path, err := ring.Write(func(w io.Writer) error { return b.Checkpoint(w, "bench") })
	if err != nil {
		return t, err
	}
	t.writeMs = ms(time.Since(start))
	fi, err := os.Stat(path)
	if err != nil {
		return t, err
	}
	t.bytes = fi.Size()
	b.Close()

	start = time.Now()
	st, _, _, _, err := ring.RecoverNewest()
	if err != nil {
		return t, err
	}
	rb, err := cluster.RestoreState(st, cfg)
	if err != nil {
		return t, err
	}
	t.restoreMs = ms(time.Since(start))
	defer rb.Close()
	if got := rb.ChecksumDats(); got != want {
		return t, fmt.Errorf("restored checksum %s, checkpointed %s", got, want)
	}
	return t, nil
}
