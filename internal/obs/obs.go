// Package obs is the observability layer of the simulated runtime: typed
// spans recorded on per-rank virtual-time tracks by the cluster back-end,
// exported as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing) and Prometheus-style text metrics.
//
// The span taxonomy follows the per-phase breakdown the paper's evaluation
// rests on (pack, send, wait, unpack, core compute, redundant halo compute,
// reduce), plus a separate staging track for host<->device PCIe transfers
// on GPU machines (Section 3.3).
//
// A nil *Tracer is a valid, disabled tracer: every method is a no-op with
// no allocations, so the execution path is instrumented unconditionally and
// pays nearly nothing unless a trace was requested. Emission only ever
// reads the virtual-time arithmetic — it never feeds back into it — so a
// traced run and an untraced run produce bit-identical simulation results.
package obs

import (
	"cmp"
	"slices"
	"strings"
	"sync"
)

// Kind classifies a span: one phase of the loop-execution timeline of the
// paper's Algorithms 1 (per-loop exchanges) and 2 (CA chains).
type Kind uint8

const (
	// Compute is core iterations: owned work overlappable with
	// communication (Algorithm 2 lines 8-12).
	Compute Kind = iota
	// Pack is gathering export elements into send buffers.
	Pack
	// Send is one message occupying the sender's NIC (netsim serialises
	// messages per sender, so send spans on one rank abut).
	Send
	// Wait is a receiver blocked on one inbound message beyond its core
	// computation (zero-length when the message arrived early enough to
	// be fully hidden).
	Wait
	// Unpack is scattering a received grouped message into the per-dat
	// arrays (the c term of Equation (3); per-dat messages land directly
	// and have no unpack span).
	Unpack
	// Redundant is halo-region iterations after the wait: boundary owned
	// elements plus the redundantly computed halo shells CA trades for
	// messages (Algorithm 2 lines 14-18).
	Redundant
	// Reduce is a rank participating in a global allreduce.
	Reduce
	// Stage is one host<->device PCIe staging transfer (GPU machines
	// only; lives on TrackStage).
	Stage
	// Retry is one retransmission interval on the sender's track: from
	// the failed attempt's (non-)arrival, through the detection timeout
	// and exponential backoff, to the retransmission post (fault
	// injection only).
	Retry
	// Giveup marks a message that exhausted its retransmission budget;
	// the runtime degrades the surrounding exchange instead of dying.
	Giveup
	// Tune marks an autotuner decision point: the span name carries the
	// chain and the chosen policy. Zero-length — the tuner runs in the
	// inspector, off the virtual-time critical path.
	Tune
	// Checkpoint marks a state snapshot being written; the span name
	// carries the checkpoint note. Zero-length — checkpointing is host
	// I/O, off the virtual-time critical path.
	Checkpoint
	// Restore marks a backend resuming from a snapshot.
	Restore
	// Restart marks a supervised in-process restart: the span name carries
	// the failure that triggered it and the recovery source (the snapshot
	// generation restored, or "cold"). Zero-length at the restored clock.
	Restart
	// Watchdog marks a no-progress watchdog trip: the run's maximum virtual
	// clock advanced past the deadline without an exchange completing. The
	// span covers [last progress, trip time] on the supervising track.
	Watchdog
	// Idle is never emitted by the runtime: the critical-path analyzer
	// (package analysis) synthesises Idle segments for stretches of the
	// longest path not covered by any span or edge — a rank waiting on
	// causality the trace does not capture explicitly (e.g. a degradation
	// restart barrier).
	Idle

	numKinds
)

var kindNames = [numKinds]string{
	"compute", "pack", "send", "wait", "unpack", "redundant", "reduce", "stage",
	"retry", "giveup", "tune", "checkpoint", "restore", "restart", "watchdog", "idle",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Kinds lists every span kind in declaration order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Tracks within one rank's timeline.
const (
	// TrackExec is the rank's main execution track.
	TrackExec int8 = 0
	// TrackStage is the rank's PCIe staging engine (GPU machines).
	TrackStage int8 = 1
)

// Span is one interval on a rank's virtual timeline.
type Span struct {
	// Epoch groups the spans of one backend instance (one simulated
	// run); each epoch starts its virtual clock at zero.
	Epoch int32
	Rank  int32
	Track int8
	Kind  Kind
	// Name identifies the work: the kernel name for compute/redundant
	// spans, and the exchange owner (the chain name for CA chains, the
	// kernel name for per-loop exchanges) for pack/send/wait/unpack.
	Name string
	// Begin and End are virtual seconds since the epoch's clock zero.
	Begin, End float64
	// Bytes is the payload of communication spans (0 otherwise).
	Bytes int64
}

// Dur returns the span's duration in virtual seconds.
func (s Span) Dur() float64 { return s.End - s.Begin }

// EdgeKind classifies a causal edge between spans. Edges turn the flat
// per-rank span timelines into a DAG: intra-rank program order is implicit
// (spans on one rank are causally ordered by time), edges record the
// cross-rank and same-rank dependencies that are not.
type EdgeKind uint8

const (
	// EdgeMsg is one point-to-point message: transmission start on the
	// sender (Begin) to arrival at the receiver (End). Post records when
	// the sender had the message ready (pack and staging done) and Ready
	// when the receiver started waiting on it, so analysis can split wait
	// time into late-sender, NIC-serialisation and transit components.
	EdgeMsg EdgeKind = iota
	// EdgeRetry is one retransmission interval on the sender (From == To):
	// from the failed attempt's (non-)arrival through detection timeout and
	// exponential backoff to the retransmit. Retry edges lie inside their
	// message edge's [Begin, End] window and let analysis attribute the
	// retried part of a transfer separately.
	EdgeRetry
	// EdgeReduce is a global-reduction dependency: from the last rank to
	// enter the allreduce (Begin = its entry time) to each other rank's
	// exit (End). The straggler binds everyone, so the critical path runs
	// through its edge.
	EdgeReduce

	numEdgeKinds
)

var edgeKindNames = [numEdgeKinds]string{"msg", "retry", "reduce"}

func (k EdgeKind) String() string {
	if int(k) < len(edgeKindNames) {
		return edgeKindNames[k]
	}
	return "unknown"
}

// EdgeKinds lists every edge kind in declaration order.
func EdgeKinds() []EdgeKind {
	out := make([]EdgeKind, numEdgeKinds)
	for i := range out {
		out[i] = EdgeKind(i)
	}
	return out
}

// Edge is one causal dependency in an epoch's span DAG.
type Edge struct {
	Epoch int32
	Kind  EdgeKind
	// From and To are the sender and receiver ranks (equal for EdgeRetry).
	From, To int32
	// Name is the exchange owner: the chain name for CA chains, the kernel
	// name for per-loop exchanges and reductions.
	Name string
	// Post is when the dependency could first have started moving: the
	// sender's ready-to-send time for EdgeMsg (pack and staging done), the
	// straggler's entry time for EdgeReduce.
	Post float64
	// Begin and End delimit the edge's own occupancy: NIC transmission
	// start to arrival for EdgeMsg, failed-attempt arrival to retransmit
	// for EdgeRetry, straggler entry to reduction exit for EdgeReduce.
	Begin, End float64
	// Ready is when the receiver started depending on this edge (its wait
	// start for EdgeMsg, its own reduction entry for EdgeReduce).
	Ready float64
	// Bytes is the payload carried over the edge.
	Bytes int64
}

// Dur returns the edge's occupancy duration in virtual seconds.
func (e Edge) Dur() float64 { return e.End - e.Begin }

// Tracer records spans. The zero value is ready to use; a nil *Tracer is a
// disabled tracer whose methods all no-op.
type Tracer struct {
	mu     sync.Mutex
	labels []string
	spans  []Span
	edges  []Edge
}

// New returns an enabled tracer.
func New() *Tracer { return &Tracer{} }

// Enabled reports whether spans are recorded; callers may use it to skip
// preparing emission inputs entirely.
func (t *Tracer) Enabled() bool { return t != nil }

// NewEpoch opens a new span group — one simulated backend run — and makes
// it current, returning its index. The cluster back-end calls it once per
// construction, so a tracer shared across runs (e.g. a benchmark sweep)
// keeps them apart; the returned index addresses the run's spans and edges
// in later analysis. A nil tracer returns 0.
func (t *Tracer) NewEpoch(label string) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.labels = append(t.labels, label)
	return int32(len(t.labels)) - 1
}

// Emit records one span in the current epoch. On a nil tracer it returns
// immediately without allocating. Spans may be emitted in any order;
// exporters sort into a canonical, deterministic order.
func (t *Tracer) Emit(rank int32, track int8, kind Kind, name string, begin, end float64, bytes int64) {
	if t == nil {
		return
	}
	if end < begin {
		end = begin
	}
	t.mu.Lock()
	epoch := int32(len(t.labels)) - 1
	if epoch < 0 {
		epoch = 0
	}
	t.spans = append(t.spans, Span{
		Epoch: epoch, Rank: rank, Track: track, Kind: kind,
		Name: name, Begin: begin, End: end, Bytes: bytes,
	})
	t.mu.Unlock()
}

// EmitEdge records one causal edge in the current epoch (e.Epoch is
// overwritten). On a nil tracer it returns immediately. Like Emit, edge
// emission only observes the virtual-time arithmetic — it never feeds back
// into it.
func (t *Tracer) EmitEdge(e Edge) {
	if t == nil {
		return
	}
	if e.End < e.Begin {
		e.End = e.Begin
	}
	t.mu.Lock()
	epoch := int32(len(t.labels)) - 1
	if epoch < 0 {
		epoch = 0
	}
	e.Epoch = epoch
	t.edges = append(t.edges, e)
	t.mu.Unlock()
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// NumEdges returns the number of recorded edges.
func (t *Tracer) NumEdges() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.edges)
}

// Spans returns a copy of the recorded spans in canonical order: by epoch,
// rank, track, begin, end, kind, name. Because span contents are fully
// determined by the deterministic simulation, identical runs yield
// identical slices regardless of host-thread scheduling.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	slices.SortStableFunc(out, func(a, b Span) int {
		switch {
		case a.Epoch != b.Epoch:
			return cmp.Compare(a.Epoch, b.Epoch)
		case a.Rank != b.Rank:
			return cmp.Compare(a.Rank, b.Rank)
		case a.Track != b.Track:
			return cmp.Compare(a.Track, b.Track)
		case a.Begin != b.Begin:
			return cmp.Compare(a.Begin, b.Begin)
		case a.End != b.End:
			return cmp.Compare(b.End, a.End) // longer first: containment order for nesting
		case a.Kind != b.Kind:
			return cmp.Compare(a.Kind, b.Kind)
		}
		return strings.Compare(a.Name, b.Name)
	})
	return out
}

// Edges returns a copy of the recorded edges in canonical order: by epoch,
// receiver, end, begin, sender, kind, name. Determinism mirrors Spans.
func (t *Tracer) Edges() []Edge {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Edge, len(t.edges))
	copy(out, t.edges)
	t.mu.Unlock()
	slices.SortStableFunc(out, func(a, b Edge) int {
		switch {
		case a.Epoch != b.Epoch:
			return cmp.Compare(a.Epoch, b.Epoch)
		case a.To != b.To:
			return cmp.Compare(a.To, b.To)
		case a.End != b.End:
			return cmp.Compare(a.End, b.End)
		case a.Begin != b.Begin:
			return cmp.Compare(a.Begin, b.Begin)
		case a.From != b.From:
			return cmp.Compare(a.From, b.From)
		case a.Kind != b.Kind:
			return cmp.Compare(a.Kind, b.Kind)
		}
		return strings.Compare(a.Name, b.Name)
	})
	return out
}

// EpochLabel returns the label of epoch i, or a generated placeholder when
// spans were emitted before any NewEpoch call.
func (t *Tracer) EpochLabel(i int32) string {
	if t != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
		if int(i) < len(t.labels) {
			return t.labels[i]
		}
	}
	return "run"
}
