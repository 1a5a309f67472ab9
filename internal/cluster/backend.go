package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync/atomic"

	"op2ca/internal/autotune"
	"op2ca/internal/chaincfg"
	"op2ca/internal/core"
	"op2ca/internal/faults"
	"op2ca/internal/halo"
	"op2ca/internal/machine"
	"op2ca/internal/model"
	"op2ca/internal/netsim"
	"op2ca/internal/obs"
)

// Config configures a distributed back-end.
type Config struct {
	// Prog is the program (global mesh and data) to distribute.
	Prog *core.Program
	// Primary is the partitioned set; Assign maps its elements to ranks.
	Primary *core.Set
	Assign  []int32
	// NParts is the number of ranks.
	NParts int
	// Depth is the number of halo shells to build; it must cover the
	// largest halo extension of any chain executed with CA. Default 1.
	Depth int
	// MaxChainLen is the longest CA chain to support (core prefixes are
	// precomputed per chain position). Default 8.
	MaxChainLen int
	// Machine parameterises the virtual-time cost model. Default Laptop.
	Machine *machine.Machine
	// CA enables Algorithm 2 for demarcated chains; when false, chains
	// fall back to per-loop execution (the paper's baseline OP2).
	CA bool
	// Chains optionally configures per-chain halo extensions and
	// disables (the paper's Section 3.4 configuration file).
	Chains *chaincfg.Config
	// Parallel executes ranks on multiple OS threads. Results are
	// identical; only host wall time changes.
	Parallel bool
	// NoGroupedMsgs makes CA chains exchange one message per dat and
	// halo kind instead of one grouped message per neighbour (Figure 8
	// disabled). An ablation knob: isolates the message-count reduction
	// from the per-loop-exchange elimination.
	NoGroupedMsgs bool
	// Overlap switches CA chain exchanges to the overlap-capable
	// task-graph executor (see taskgraph.go): delivery splits into post
	// and complete halves, so message latencies and rendezvous handshakes
	// pipeline behind payload injection instead of serialising on the
	// sender's NIC, and the receiver's wait is charged only for the
	// fraction of L + m/B its core computation does not hide. Data
	// effects are untouched — results stay bitwise identical to
	// bulk-synchronous execution; only virtual time changes. Individual
	// chains opt in via the configuration file's "overlap" flag even when
	// this is false. Per-loop (OP2) exchanges always run
	// bulk-synchronous: they are the probe/calibration baseline, and
	// their per-dat eager messages have little pipeline to exploit.
	Overlap bool
	// GPUDirect transfers halos GPU-to-GPU without PCIe staging, but —
	// as the paper observed on Cirrus (Section 3.3) — the transfers do
	// not overlap with compute kernels, so core computation no longer
	// hides communication. Only meaningful on GPU machines.
	GPUDirect bool
	// Tracer, when non-nil, records typed spans (compute, pack, send,
	// wait, unpack, redundant, reduce, stage) on per-rank virtual-time
	// tracks as loops execute; see package obs for the exporters. A nil
	// tracer disables tracing at near-zero cost, and tracing never feeds
	// back into the virtual-time arithmetic: traced and untraced runs
	// produce bit-identical clocks and results.
	Tracer *obs.Tracer
	// Lazy defers loop execution and auto-detects chains at runtime (the
	// paper's stated future work: code-gen automation via lazy
	// evaluation). Loops queue until a synchronisation point — a global
	// reduction, an observation (GatherDat, MaxClock, Stats), an explicit
	// chain boundary, or MaxChainLen loops — then execute as a CA chain
	// when feasible, falling back to per-loop execution otherwise.
	// Requires CA.
	Lazy bool
	// NoPlanCache disables the inspect-once/execute-many execution-plan
	// cache: every chain execution re-runs ca.Inspect and rebuilds its
	// pack/unpack schedules from the halo layouts, and per-loop exchanges
	// walk the layouts instead of replaying memoised schedules. An
	// ablation and debugging knob — cached and uncached execution are
	// bit-identical.
	NoPlanCache bool
	// Faults, when non-nil, injects deterministic message faults (drops,
	// corruption, delays, stragglers) into every exchange. Lost and
	// corrupt messages are retransmitted with timeout plus exponential
	// backoff, charged in virtual time; a grouped CA exchange that
	// exhausts MaxRetries degrades (grouped -> per-dat messages ->
	// per-loop OP2 execution) instead of failing. Fault injection never
	// touches the simulated data: results stay bit-identical to the
	// fault-free run, only clocks, stats and fault counters differ.
	Faults *faults.Plan
	// MaxRetries bounds retransmissions per message. Zero selects the
	// fault plan's maxretries clause when present, else 4; negative is
	// rejected. Per-chain overrides come from the chain configuration
	// file's maxretries option.
	MaxRetries int
	// RetryTimeout is the virtual-time delay before a lost or corrupt
	// message is detected and retransmission scheduled. Zero defaults to
	// 4x the machine latency.
	RetryTimeout float64
	// RetryBackoff is the base of the exponential retransmission backoff
	// (attempt k waits RetryBackoff * 2^k beyond the timeout). Zero
	// defaults to the machine latency.
	RetryBackoff float64
	// AutoTune hands every eligible chain's execution policy to the
	// model-driven autotuner: calibrate Equations (1)-(4) from measured
	// probe windows, score per-loop OP2 against CA at every feasible halo
	// depth (grouped and ungrouped), run the predicted winner, and re-plan
	// when predictions diverge from measurements. Individual chains opt in
	// via the configuration file's "auto" flag even when this is false.
	// Requires CA. Tuning never changes results — every candidate policy
	// is bit-identical — only virtual time.
	AutoTune bool
	// Tune holds the autotuner knobs (probe window count, re-plan
	// threshold); zero values select defaults.
	Tune autotune.Config
}

// validity tracks how many halo shells of a dat currently hold owner-fresh
// values; 0 means dirty (the paper's dirty-bit generalised to depth).
type validity struct{ exec, nonexec int }

// Backend is the distributed-memory OP2 back-end (standard and CA).
type Backend struct {
	cfg     Config
	net     netsim.Network
	owners  [][]int32
	layouts []*halo.Layout
	// dats[rank][datID] is the rank-local storage of each dat.
	dats   [][][]float64
	valid  []validity
	clock  []float64
	stats  *Stats
	tracer *obs.Tracer
	// epoch is this backend's trace epoch index (see obs.Tracer.NewEpoch);
	// Profile analyses exactly this epoch when a sweep shares one tracer.
	epoch int32

	rec   *recording
	lazyQ []core.Loop

	// tunes holds per-chain autotuner state; tuneSampling points at the
	// chain whose window is currently executing with calibration sampling
	// on (see autotune.go).
	tunes        map[tuneKey]*chainTune
	tuneSampling *chainTune

	// plans is the execution-plan cache: memoised inspection results and
	// exchange schedules, keyed by chain name + structural signature
	// (joined with a NUL so steady-state lookups build the key in scratch
	// bytes without allocating). See plancache.go.
	plans             map[string]*planEntry
	planHits          int64
	planMisses        int64
	planInvalidations int64
	// stdSchedules memoises the per-loop exchange schedules per filtered
	// spec set (see stdExchange); it is bounded and outside the
	// plan-cache stats.
	stdSchedules map[string]*exchangeSchedule

	// Fault-recovery state: the per-message retransmission budget and the
	// timeout/backoff charges, resolved from Config at construction, and
	// the exchange sequence number keying deterministic fault decisions.
	maxRetries   int
	retryTimeout float64
	retryBackoff float64
	faultSeq     uint64
	// crashArmed gates the fault plan's crash clauses, one flag per clause
	// in schedule order: all true on a freshly constructed backend, all
	// false after Restore — a restored run resumes from before the crash
	// point and must not die there again (the real-world analogue: the
	// failed node was replaced). A supervisor re-arms the clauses that have
	// not fired yet via ArmCrashes, so later clauses still fire on the
	// resumed run.
	crashArmed []bool
	// watchdog is the no-progress deadline in virtual seconds (0 = off):
	// if the run's maximum virtual clock advances more than this past
	// lastProgress without an exchange completing, deliver panics with a
	// typed *HangError for the supervisor to catch. lastProgress is the
	// max clock at the end of the last completed exchange.
	watchdog     float64
	lastProgress float64
	// cancelled is the cooperative cancellation flag (see Cancel): set from
	// any goroutine, observed by deliver at the next exchange boundary,
	// which panics with a typed *CancelledError. Sticky for the lifetime of
	// the Backend instance — a cancelled run is abandoned, not resumed in
	// place; resumption happens on a fresh Backend via RestoreState.
	cancelled atomic.Bool
	// warmPlans records plan-cache keys restored from a checkpoint whose
	// entries must be rebuilt on first use but accounted as cache hits,
	// so PlanCacheStats continue exactly as in the uninterrupted run.
	warmPlans map[planKey]bool

	// pool is the persistent fork/join executor behind forEachRank, nil
	// in serial mode (or on a single-slot machine); see workerpool.go.
	pool *rankPool
	// wsc is per-worker kernel-call scratch, indexed by the worker id a
	// fork hands to its function; wsc[0] serves serial execution.
	wsc []workerScratch
	// scr is the per-Backend reusable execution scratch: every per-rank
	// phase array, key-building buffer and accounting map the hot paths
	// would otherwise allocate per execution. One fork runs at a time, so
	// a single instance serves both the standard and chain executors.
	scr execScratch
	// recScratch backs ChainBegin/ChainEnd recording without per-chain
	// allocation; rec points at it while a chain is open.
	recScratch recording
	// heCache memoises chaincfg HEOverrides slices per configured chain.
	heCache map[*chaincfg.Chain]heOverrides
	// Prebuilt fork functions: the parameters they need live in scr, so
	// steady-state dispatch creates no closures.
	fnStdRank   func(w, r int)
	fnChainPrep func(w, r int)
	fnChainExec func(w, r int)
}

// workerScratch is the per-worker reusable state of runLoopOnRank: the
// compiled argument-op table and the kernel view table. Each executor owns
// one instance (no sharing, no clearing — every entry read is written
// first by the same call), padded to keep concurrent workers off each
// other's cache lines.
type workerScratch struct {
	ops   []argOp
	views [][]float64
	_pad  [8]uint64
}

// heOverrides memoises one chain configuration's resolved halo-extension
// overrides for a given loop count.
type heOverrides struct {
	n    int
	over []int
}

// execScratch holds every reusable buffer of the steady-state execution
// paths. Fields are grouped by owner; "std" fields belong to runStandard,
// "chain" fields to runChainImpl. All are sized once (NParts, MaxChainLen)
// and reused, so cached-plan chain execution allocates nothing per
// iteration (asserted by TestChainExecZeroAlloc).
type execScratch struct {
	// runStandard per-rank phase arrays and fork parameters.
	stdCoreEnd    []int
	stdEnd        []int
	stdPost       []float64
	stdRecvLast   []float64
	stdLoop       core.Loop
	stdIndirect   bool
	stdExchanging bool
	stdSendBytes  []int64
	stdGbl        [][][]float64
	// Global-reduction scratch (prepareGlobals): per-rank argument rows
	// slicing one per-rank value array.
	gbl     [][][]float64
	gblVals [][]float64

	// runChainImpl per-rank × per-loop matrices and fork parameters.
	chainCores    [][]int
	chainHalos    [][]int
	chainExecEnds [][]int
	chainNxs      [][]nxRange
	chainPost     []float64
	chainRecvLast []float64
	chainLoops    []core.Loop
	chainHE       []int
	chainHN       []int
	chainExch     bool
	chainSend     []int64

	// Per-chain work vectors (iteration-time table, model parameters).
	g  []float64
	lp []model.LoopParams

	// Stats-accounting maps, cleared per use (clear() frees nothing).
	neigh   map[[2]int32]bool
	perRank map[int32]int

	// Key-building byte buffers: chain signatures, plan-cache keys and
	// schedule fingerprints are built here and looked up via the
	// alloc-free map[string(buf)] form.
	sigBuf []byte
	keyBuf []byte
	fpBuf  []byte

	// Clean-path delivery scratch (the faulted path allocates freely).
	arrivals []float64
	busy     []float64

	// standardNeeds and filterNeeds outputs, aliased by the execution
	// that requested them.
	needs    []exchangeSpec
	filtered []exchangeSpec

	// emptyBytes is a permanently all-zero per-rank byte-count slice,
	// aliased by exchanges with nothing to send (callers only read it).
	emptyBytes []int64
}

// recording buffers the loops of an open chain.
type recording struct {
	name  string
	loops []core.Loop
}

// New builds the distributed back-end: derives per-set ownership, constructs
// halo layouts, and scatters every dat into per-rank local storage.
func New(cfg Config) (*Backend, error) {
	if cfg.Prog == nil || cfg.Primary == nil {
		return nil, fmt.Errorf("cluster: Prog and Primary are required")
	}
	if cfg.NParts < 1 {
		return nil, fmt.Errorf("cluster: NParts %d < 1", cfg.NParts)
	}
	if cfg.Depth < 0 {
		return nil, fmt.Errorf("cluster: Depth %d < 0", cfg.Depth)
	}
	if cfg.MaxChainLen < 0 {
		return nil, fmt.Errorf("cluster: MaxChainLen %d < 0", cfg.MaxChainLen)
	}
	if len(cfg.Assign) != cfg.Primary.Size {
		return nil, fmt.Errorf("cluster: %d assignments for primary set %s of size %d",
			len(cfg.Assign), cfg.Primary.Name, cfg.Primary.Size)
	}
	for i, a := range cfg.Assign {
		if a < 0 || int(a) >= cfg.NParts {
			return nil, fmt.Errorf("cluster: Assign[%d] = %d outside [0, %d)", i, a, cfg.NParts)
		}
	}
	if cfg.Lazy && !cfg.CA {
		return nil, fmt.Errorf("cluster: Lazy requires CA (lazy chains execute with Algorithm 2)")
	}
	if cfg.AutoTune && !cfg.CA {
		return nil, fmt.Errorf("cluster: AutoTune requires CA (the tuner picks between per-loop and Algorithm 2 execution)")
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("cluster: MaxRetries %d < 0", cfg.MaxRetries)
	}
	if cfg.MaxRetries > maxRetryBudget {
		return nil, fmt.Errorf("cluster: MaxRetries %d > %d (backoff would exceed any useful virtual time)", cfg.MaxRetries, maxRetryBudget)
	}
	if cfg.Faults != nil && cfg.Faults.MaxRetries > maxRetryBudget {
		return nil, fmt.Errorf("cluster: fault plan maxretries %d > %d", cfg.Faults.MaxRetries, maxRetryBudget)
	}
	if cfg.Chains != nil {
		for _, name := range cfg.Chains.Order {
			if c := cfg.Chains.Get(name); c != nil && c.MaxRetries > maxRetryBudget {
				return nil, fmt.Errorf("cluster: chain %s maxretries %d > %d", c.Name, c.MaxRetries, maxRetryBudget)
			}
		}
	}
	if cfg.RetryTimeout < 0 || math.IsNaN(cfg.RetryTimeout) || math.IsInf(cfg.RetryTimeout, 0) {
		return nil, fmt.Errorf("cluster: RetryTimeout %g must be a non-negative, finite time", cfg.RetryTimeout)
	}
	if cfg.RetryBackoff < 0 || math.IsNaN(cfg.RetryBackoff) || math.IsInf(cfg.RetryBackoff, 0) {
		return nil, fmt.Errorf("cluster: RetryBackoff %g must be a non-negative, finite time", cfg.RetryBackoff)
	}
	if cfg.Depth == 0 {
		cfg.Depth = 1
	}
	if cfg.MaxChainLen == 0 {
		cfg.MaxChainLen = 8
	}
	if cfg.Machine == nil {
		cfg.Machine = machine.Laptop()
	}
	owners, err := halo.DeriveOwnership(cfg.Prog, cfg.Primary, cfg.Assign)
	if err != nil {
		return nil, err
	}
	b := &Backend{
		cfg: cfg,
		net: netsim.Network{Latency: cfg.Machine.Latency, Bandwidth: cfg.Machine.Bandwidth,
			EagerThreshold: cfg.Machine.EagerThreshold, Handshake: cfg.Machine.Handshake},
		owners:       owners,
		layouts:      halo.Build(cfg.Prog, owners, cfg.NParts, cfg.Depth, cfg.MaxChainLen),
		dats:         make([][][]float64, cfg.NParts),
		valid:        make([]validity, len(cfg.Prog.Dats)),
		clock:        make([]float64, cfg.NParts),
		stats:        newStats(),
		plans:        map[string]*planEntry{},
		stdSchedules: map[string]*exchangeSchedule{},
		tunes:        map[tuneKey]*chainTune{},
		warmPlans:    map[planKey]bool{},
		heCache:      map[*chaincfg.Chain]heOverrides{},
		crashArmed:   armAll(len(cfg.Faults.CrashSchedule())),
	}
	b.initScratch()
	workers := 1
	if cfg.Parallel && cfg.NParts > 1 {
		workers = runtime.GOMAXPROCS(0)
		if workers > cfg.NParts {
			workers = cfg.NParts
		}
	}
	b.installPool(workers)
	if err := b.net.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: machine %s: %v", cfg.Machine.Name, err)
	}
	b.maxRetries = cfg.MaxRetries
	if b.maxRetries == 0 {
		if cfg.Faults != nil && cfg.Faults.MaxRetries > 0 {
			b.maxRetries = cfg.Faults.MaxRetries
		} else {
			b.maxRetries = 4
		}
	}
	b.retryTimeout = cfg.RetryTimeout
	if b.retryTimeout == 0 {
		b.retryTimeout = 4 * cfg.Machine.Latency
	}
	b.retryBackoff = cfg.RetryBackoff
	if b.retryBackoff == 0 {
		b.retryBackoff = cfg.Machine.Latency
	}
	for r := range b.dats {
		b.dats[r] = make([][]float64, len(cfg.Prog.Dats))
		for _, d := range cfg.Prog.Dats {
			sl := b.layouts[r].SetL(d.Set)
			local := make([]float64, sl.Total()*d.Dim)
			for loc := 0; loc < sl.Total(); loc++ {
				g := int(sl.L2G[loc])
				copy(local[loc*d.Dim:(loc+1)*d.Dim], d.Data[g*d.Dim:(g+1)*d.Dim])
			}
			b.dats[r][d.ID] = local
		}
	}
	for i := range b.valid {
		b.valid[i] = validity{exec: cfg.Depth, nonexec: cfg.Depth}
	}
	b.tracer = cfg.Tracer
	// Each backend instance opens its own trace epoch: its virtual clock
	// starts at zero, so runs sharing one tracer (benchmark sweeps) must
	// not share a timeline.
	b.epoch = b.tracer.NewEpoch(fmt.Sprintf("%s x%d (%s)", b.Name(), cfg.NParts, cfg.Machine.Name))
	return b, nil
}

// Name implements core.Backend.
func (b *Backend) Name() string {
	if b.cfg.CA {
		return "cluster-ca"
	}
	return "cluster-op2"
}

// Stats returns the instrumentation counters, flushing any lazily queued
// loops first.
func (b *Backend) Stats() *Stats {
	b.FlushLazy()
	return b.stats
}

// Clocks returns the per-rank virtual clocks, flushing any lazily queued
// loops first.
func (b *Backend) Clocks() []float64 {
	b.FlushLazy()
	return b.clock
}

// MaxClock returns the virtual time of the slowest rank, flushing any
// lazily queued loops first.
func (b *Backend) MaxClock() float64 {
	b.FlushLazy()
	return b.maxClock()
}

// armAll builds the initial all-armed crash mask for n schedule clauses.
func armAll(n int) []bool {
	if n == 0 {
		return nil
	}
	m := make([]bool, n)
	for i := range m {
		m[i] = true
	}
	return m
}

// ArmCrashes sets the per-clause crash mask (indexed like the fault plan's
// CrashSchedule). A supervisor uses it after restoring from a snapshot to
// re-arm the clauses that have not fired yet — Restore itself disarms all of
// them, which is correct for manual -restore but would let a multi-crash
// schedule fire only its first clause under supervision. Entries beyond the
// schedule length are ignored; a nil mask disarms everything.
func (b *Backend) ArmCrashes(mask []bool) {
	n := len(b.cfg.Faults.CrashSchedule())
	b.crashArmed = make([]bool, n)
	for i := 0; i < n && i < len(mask); i++ {
		b.crashArmed[i] = mask[i]
	}
}

// ArmedCrashes returns a copy of the per-clause crash mask.
func (b *Backend) ArmedCrashes() []bool {
	out := make([]bool, len(b.crashArmed))
	copy(out, b.crashArmed)
	return out
}

// SetWatchdog sets the no-progress deadline in virtual seconds (0 disables
// it): if the maximum virtual clock advances more than deadline past the end
// of the last completed exchange, the next exchange panics with a typed
// *HangError. The progress marker resets to the current clock, so arming the
// watchdog on a restored backend does not trip it retroactively.
func (b *Backend) SetWatchdog(deadline float64) {
	b.watchdog = deadline
	b.lastProgress = b.maxClock()
}

// maxClock is MaxClock without the lazy flush, for internal accounting.
func (b *Backend) maxClock() float64 {
	m := 0.0
	for _, t := range b.clock {
		if t > m {
			m = t
		}
	}
	return m
}

// NParts returns the rank count.
func (b *Backend) NParts() int { return b.cfg.NParts }

// ChainBegin implements core.Backend: start recording a loop-chain. An
// explicit chain boundary flushes any lazily queued loops first. The
// recording reuses one Backend-owned buffer, so steady-state chain
// re-execution records without allocating.
func (b *Backend) ChainBegin(name string) {
	if b.rec != nil {
		panic(fmt.Sprintf("cluster: nested loop-chain %q inside %q", name, b.rec.name))
	}
	b.FlushLazy()
	b.recScratch.name = name
	b.recScratch.loops = b.recScratch.loops[:0]
	b.rec = &b.recScratch
}

// ChainEnd implements core.Backend: execute the recorded chain, with
// Algorithm 2 when CA is enabled and the chain is not disabled by
// configuration, else as ordinary per-loop OP2 code.
func (b *Backend) ChainEnd() {
	if b.rec == nil {
		panic("cluster: ChainEnd without ChainBegin")
	}
	rec := b.rec
	b.rec = nil

	cs := b.stats.chain(rec.name)
	cs.Executions++
	cs.noteLen(len(rec.loops))

	chainCfg := b.cfg.Chains.Get(rec.name)
	useCA := b.cfg.CA && len(rec.loops) > 1 && (chainCfg == nil || !chainCfg.Disabled)
	if !useCA {
		b.runPerLoop(rec.name, rec.loops, cs, b.maxClock())
		return
	}
	if ct := b.tuneFor(rec.name, rec.loops, chainCfg); ct != nil {
		b.runTuned(ct, rec.name, rec.loops, chainCfg, cs)
		return
	}
	b.runChain(rec.name, rec.loops, chainCfg, cs)
}

// ParLoop implements core.Backend.
func (b *Backend) ParLoop(l core.Loop) {
	if err := l.Validate(); err != nil {
		panic("cluster: " + err.Error())
	}
	if b.rec != nil {
		if l.HasGlobalReduction() {
			panic(fmt.Sprintf("cluster: loop %q with global reduction inside chain %q",
				l.Kernel.Name, b.rec.name))
		}
		b.rec.loops = append(b.rec.loops, l)
		return
	}
	if b.cfg.Lazy {
		if l.HasGlobalReduction() {
			// A global reduction is a synchronisation point: it ends any
			// implicit chain.
			b.FlushLazy()
			b.runStandard(l, "")
			return
		}
		b.lazyQ = append(b.lazyQ, l)
		if len(b.lazyQ) >= b.cfg.MaxChainLen {
			b.FlushLazy()
		}
		return
	}
	b.runStandard(l, "")
}

// FlushLazy executes any lazily queued loops: as an automatically detected
// CA chain when two or more loops are queued and their dependencies allow,
// else as ordinary per-loop code. It is a no-op outside lazy mode or when
// the queue is empty.
func (b *Backend) FlushLazy() {
	q := b.lazyQ
	if len(q) == 0 {
		return
	}
	b.lazyQ = nil
	// Every flush counts as one execution of the "lazy" chain, single-loop
	// flushes included, and the chain-length spread is tracked via
	// noteLen: auto-detected chain lengths vary from flush to flush, so a
	// single last-writer NLoop would misreport the row.
	cs := b.stats.chain("lazy")
	cs.Executions++
	cs.noteLen(len(q))
	if len(q) == 1 {
		// One queued loop: no chain to build. Run it per-loop, attributed
		// to the lazy chain exactly like a chain fallback.
		b.runPerLoop("lazy", q, cs, b.maxClock())
		return
	}
	if ct := b.tuneFor("lazy", q, b.cfg.Chains.Get("lazy")); ct != nil {
		b.runTuned(ct, "lazy", q, b.cfg.Chains.Get("lazy"), cs)
		return
	}
	b.runChainAuto("lazy", q, cs)
}

// GatherDat assembles the global values of d from the owning ranks,
// flushing any lazily queued loops first (it observes their results).
func (b *Backend) GatherDat(d *core.Dat) []float64 {
	b.FlushLazy()
	out := make([]float64, d.Set.Size*d.Dim)
	for r := 0; r < b.cfg.NParts; r++ {
		sl := b.layouts[r].SetL(d.Set)
		local := b.dats[r][d.ID]
		for loc := 0; loc < sl.NOwned; loc++ {
			g := int(sl.L2G[loc])
			copy(out[g*d.Dim:(g+1)*d.Dim], local[loc*d.Dim:(loc+1)*d.Dim])
		}
	}
	return out
}

// ChecksumDats returns an FNV-1a hash over the gathered global values of
// every declared dat, in declaration order. Two backends that executed the
// same program produce the same checksum iff their final states are
// bit-identical — the check behind the fault-injection invariant (faults
// shape virtual time, never data).
func (b *Backend) ChecksumDats() string {
	h := fnv.New64a()
	var buf [8]byte
	for _, d := range b.cfg.Prog.Dats {
		h.Write([]byte(d.Name))
		for _, v := range b.GatherDat(d) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ScatterDat pushes fresh global values of d to every rank (owned and halo
// copies), marking the dat fully valid. Use it to (re)initialise data
// between experiment phases.
func (b *Backend) ScatterDat(d *core.Dat, global []float64) {
	b.FlushLazy()
	if len(global) != d.Set.Size*d.Dim {
		panic(fmt.Sprintf("cluster: ScatterDat %s: %d values, want %d", d.Name, len(global), d.Set.Size*d.Dim))
	}
	for r := 0; r < b.cfg.NParts; r++ {
		sl := b.layouts[r].SetL(d.Set)
		local := b.dats[r][d.ID]
		for loc := 0; loc < sl.Total(); loc++ {
			g := int(sl.L2G[loc])
			copy(local[loc*d.Dim:(loc+1)*d.Dim], global[g*d.Dim:(g+1)*d.Dim])
		}
	}
	b.valid[d.ID] = validity{exec: b.cfg.Depth, nonexec: b.cfg.Depth}
}

// forEachRank runs f(w, r) for every rank r, through the persistent worker
// pool when one is installed (Parallel mode on a multi-slot machine), else
// serially on the caller's goroutine as worker 0. f must only touch state
// owned by rank r, plus per-worker scratch indexed by w. Worker panics are
// re-raised on the caller's goroutine (see rankPool.forEach), so panic
// semantics are identical in serial and parallel modes.
func (b *Backend) forEachRank(f func(w, r int)) {
	if b.pool == nil {
		for r := 0; r < b.cfg.NParts; r++ {
			f(0, r)
		}
		return
	}
	b.pool.forEach(b.cfg.NParts, f)
}

// installPool sets the fork/join executor to the given worker count (1
// removes the pool: serial dispatch) and sizes the per-worker scratch to
// match. Tests use it to force multi-worker pools on single-slot machines.
func (b *Backend) installPool(workers int) {
	// Tear down through Close: it also clears the finalizer the previous
	// pool installed, which runtime.SetFinalizer refuses to set twice.
	b.Close()
	if workers > 1 {
		b.pool = newRankPool(workers)
		// The pool's goroutines reference only the pool, so an
		// unreachable Backend can be collected; the finalizer then stops
		// the workers. Close does the same deterministically.
		runtime.SetFinalizer(b, (*Backend).finalize)
	}
	n := workers
	if n < 1 {
		n = 1
	}
	if len(b.wsc) < n {
		b.wsc = make([]workerScratch, n)
	}
}

func (b *Backend) finalize() { b.Close() }

// Close stops the worker pool's goroutines; subsequent executions run
// serially (results are identical either way). Optional — an unreachable
// Backend's pool is stopped by a finalizer — but deterministic for callers
// that construct many parallel backends.
func (b *Backend) Close() {
	if b.pool != nil {
		b.pool.close()
		b.pool = nil
		runtime.SetFinalizer(b, nil)
	}
}

// workers returns the executor count of the current dispatch setup.
func (b *Backend) workers() int {
	if b.pool == nil {
		return 1
	}
	return b.pool.workers
}

// initScratch sizes the per-Backend execution scratch from the
// configuration. Chain matrices are MaxChainLen wide; every per-rank array
// is NParts long.
func (b *Backend) initScratch() {
	n, cl := b.cfg.NParts, b.cfg.MaxChainLen
	s := &b.scr
	s.stdCoreEnd = make([]int, n)
	s.stdEnd = make([]int, n)
	s.stdPost = make([]float64, n)
	s.stdRecvLast = make([]float64, n)
	s.gbl = make([][][]float64, n)
	s.gblVals = make([][]float64, n)
	s.chainPost = make([]float64, n)
	s.chainRecvLast = make([]float64, n)
	s.chainCores = make([][]int, n)
	s.chainHalos = make([][]int, n)
	s.chainExecEnds = make([][]int, n)
	s.chainNxs = make([][]nxRange, n)
	flatI := make([]int, 3*n*cl)
	flatNx := make([]nxRange, n*cl)
	for r := 0; r < n; r++ {
		s.chainCores[r] = flatI[(3*r+0)*cl : (3*r+1)*cl]
		s.chainHalos[r] = flatI[(3*r+1)*cl : (3*r+2)*cl]
		s.chainExecEnds[r] = flatI[(3*r+2)*cl : (3*r+3)*cl]
		s.chainNxs[r] = flatNx[r*cl : (r+1)*cl]
	}
	s.g = make([]float64, cl)
	s.lp = make([]model.LoopParams, cl)
	s.neigh = map[[2]int32]bool{}
	s.perRank = map[int32]int{}
	s.busy = make([]float64, n)
	s.emptyBytes = make([]int64, n)
	b.fnStdRank = func(w, r int) { b.stdRank(w, r) }
	b.fnChainPrep = func(w, r int) { b.chainPrepRank(w, r) }
	b.fnChainExec = func(w, r int) { b.chainExecRank(w, r) }
}

// prepareGlobals returns per-rank scratch buffers for global reduction
// arguments of l (identity-initialised), or nil when l has none. The
// buffers live in Backend scratch, valid until the next call: each rank's
// per-argument rows slice one reusable value array.
func (b *Backend) prepareGlobals(l core.Loop) [][][]float64 {
	if !l.HasGlobalReduction() {
		return nil
	}
	sc := &b.scr
	n := 0
	for _, a := range l.Args {
		if a.IsGlobal() && a.Mode != core.Read {
			n += len(a.Gbl)
		}
	}
	for r := range sc.gbl {
		if cap(sc.gbl[r]) < len(l.Args) {
			sc.gbl[r] = make([][]float64, len(l.Args))
		}
		if cap(sc.gblVals[r]) < n {
			sc.gblVals[r] = make([]float64, n)
		}
		row, vals := sc.gbl[r][:len(l.Args)], sc.gblVals[r][:n]
		sc.gbl[r] = row
		for i, a := range l.Args {
			if !a.IsGlobal() || a.Mode == core.Read {
				row[i] = nil
				continue
			}
			buf := vals[:len(a.Gbl):len(a.Gbl)]
			vals = vals[len(a.Gbl):]
			identity := 0.0
			switch a.Mode {
			case core.Min:
				identity = math.Inf(1)
			case core.Max:
				identity = math.Inf(-1)
			}
			for j := range buf {
				buf[j] = identity
			}
			row[i] = buf
		}
	}
	return sc.gbl
}

// reduceGlobals combines per-rank partial reductions into the user buffers
// and returns the payload bytes reduced (for the allreduce time charge).
func (b *Backend) reduceGlobals(l core.Loop, scratch [][][]float64) int64 {
	if scratch == nil {
		return 0
	}
	var bytes int64
	for i, a := range l.Args {
		if !a.IsGlobal() || a.Mode == core.Read {
			continue
		}
		bytes += int64(len(a.Gbl) * 8)
		for r := 0; r < b.cfg.NParts; r++ {
			part := scratch[r][i]
			for j := range a.Gbl {
				switch a.Mode {
				case core.Inc:
					a.Gbl[j] += part[j]
				case core.Min:
					if part[j] < a.Gbl[j] {
						a.Gbl[j] = part[j]
					}
				case core.Max:
					if part[j] > a.Gbl[j] {
						a.Gbl[j] = part[j]
					}
				}
			}
		}
	}
	return bytes
}

// updateValidity applies OP2's dirty-bit rule after executing loop l: any
// dat the loop writes (OP_WRITE, OP_INC or OP_RW, direct or indirect) has
// stale halo copies afterwards and must be re-exchanged before its next
// halo-dependent read.
func (b *Backend) updateValidity(l core.Loop) {
	for _, a := range l.Args {
		if a.IsGlobal() || !a.Mode.Writes() {
			continue
		}
		b.valid[a.Dat.ID] = validity{}
	}
}
