package analysis

import (
	"cmp"
	"math"
	"slices"

	"op2ca/internal/obs"
)

// Segment is one interval of the critical path on one rank's timeline.
type Segment struct {
	Rank int32
	Kind obs.Kind
	// Name is the span or exchange name the interval is attributed to
	// (empty for synthesised Idle segments).
	Name       string
	Begin, End float64
}

// Dur returns the segment's duration in virtual seconds.
func (s Segment) Dur() float64 { return s.End - s.Begin }

// PathEdge is one causal edge the critical path traversed.
type PathEdge struct {
	Kind     obs.EdgeKind
	From, To int32
	Name     string
	Bytes    int64
	// Begin and End are the edge's occupancy window (see obs.Edge).
	Begin, End float64
}

// Dur returns the edge's occupancy duration in virtual seconds.
func (e PathEdge) Dur() float64 { return e.End - e.Begin }

// CritPath is the longest virtual-time path through one epoch's span DAG.
type CritPath struct {
	// Length is the summed duration of Segments. Because the backward walk
	// tiles [0, makespan] exactly — every instant lands in a span, an edge
	// slice, or a synthesised Idle gap — Length equals the epoch's
	// makespan up to float tolerance.
	Length float64
	// Sink is the rank whose timeline ends last (where the walk starts).
	Sink int32
	// Segments is the path in forward time order; consecutive segments
	// either abut on one rank or are connected by an edge in Edges.
	Segments []Segment
	// Edges lists the traversed causal edges, longest occupancy first:
	// the top blocking dependencies of the run.
	Edges []PathEdge
	// ByKind, ByRank and ByName attribute Length (each sums to it; ByName
	// omits unnamed Idle segments).
	ByKind map[obs.Kind]float64
	ByRank map[int32]float64
	ByName map[string]float64
}

// relTol scales the time-matching tolerance of the walk: two instants
// within relTol * makespan are the same instant. The simulation's clock
// arithmetic reuses the exact values it traced, so matches are typically
// exact; the tolerance only absorbs benign float noise.
const relTol = 1e-9

// criticalPath walks the span DAG backward from the epoch's last span end,
// preferring causal edges (message arrivals, reduction stragglers) over
// same-rank program order, and synthesising Idle segments for gaps no span
// or edge explains.
func criticalPath(spans []obs.Span, edges []obs.Edge) CritPath {
	cp := CritPath{
		ByKind: map[obs.Kind]float64{},
		ByRank: map[int32]float64{},
		ByName: map[string]float64{},
	}
	if len(spans) == 0 {
		return cp
	}

	byRank := map[int32][]obs.Span{}
	for _, s := range spans {
		byRank[s.Rank] = append(byRank[s.Rank], s)
	}
	edgesTo := map[int32][]obs.Edge{}
	var retries []obs.Edge
	for _, e := range edges {
		if e.Kind == obs.EdgeRetry {
			retries = append(retries, e)
			continue
		}
		edgesTo[e.To] = append(edgesTo[e.To], e)
	}
	slices.SortStableFunc(retries, func(a, b obs.Edge) int { return cmp.Compare(a.Begin, b.Begin) })

	sink, T := spans[0].Rank, spans[0].End
	for _, s := range spans[1:] {
		if s.End > T || (s.End == T && s.Rank < sink) {
			sink, T = s.Rank, s.End
		}
	}
	tol := relTol * math.Max(T, 1)

	var segs []Segment // built backward, reversed at the end
	r, t := sink, T
	// Each step strictly decreases t, so the walk terminates; the step cap
	// is a belt-and-braces guard against a malformed hand-built DAG.
	for steps, maxSteps := 0, 4*(len(spans)+len(edges))+16; t > tol && steps < maxSteps; steps++ {
		if e, ok := bestEdge(edgesTo[r], t, tol); ok {
			segs = appendEdgeSegments(segs, e, t, retries, tol)
			cp.Edges = append(cp.Edges, PathEdge{
				Kind: e.Kind, From: e.From, To: e.To, Name: e.Name,
				Bytes: e.Bytes, Begin: e.Begin, End: e.End,
			})
			r, t = e.From, e.Begin
			continue
		}
		if s, ok := bestSpan(byRank[r], t, tol); ok {
			segs = append(segs, Segment{Rank: r, Kind: s.Kind, Name: s.Name, Begin: s.Begin, End: t})
			t = s.Begin
			continue
		}
		// Nothing ends here: the rank was idle. Fall back to the latest
		// instant before t that a span or inbound edge on r does explain.
		prev := 0.0
		for _, s := range byRank[r] {
			if s.End < t-tol && s.End > prev {
				prev = s.End
			}
		}
		for _, e := range edgesTo[r] {
			if e.End < t-tol && e.End > prev {
				prev = e.End
			}
		}
		segs = append(segs, Segment{Rank: r, Kind: obs.Idle, Begin: prev, End: t})
		t = prev
	}

	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	cp.Segments = segs
	cp.Sink = sink
	for _, s := range segs {
		d := s.Dur()
		cp.Length += d
		cp.ByKind[s.Kind] += d
		cp.ByRank[s.Rank] += d
		if s.Name != "" {
			cp.ByName[s.Name] += d
		}
	}
	slices.SortStableFunc(cp.Edges, func(a, b PathEdge) int {
		switch {
		case a.Dur() != b.Dur():
			return cmp.Compare(b.Dur(), a.Dur())
		case a.Begin != b.Begin:
			return cmp.Compare(a.Begin, b.Begin)
		}
		return cmp.Compare(a.From, b.From)
	})
	return cp
}

// bestEdge picks the causal edge into rank r ending at t: the longest one
// (earliest Begin), ties broken deterministically.
func bestEdge(candidates []obs.Edge, t, tol float64) (obs.Edge, bool) {
	var best obs.Edge
	found := false
	for _, e := range candidates {
		if math.Abs(e.End-t) > tol || e.Begin >= t-tol {
			continue
		}
		if !found || e.Begin < best.Begin ||
			(e.Begin == best.Begin && (e.From < best.From ||
				(e.From == best.From && (e.Kind < best.Kind ||
					(e.Kind == best.Kind && e.Name < best.Name))))) {
			best, found = e, true
		}
	}
	return best, found
}

// bestSpan picks the span on the current rank ending at t: the longest one
// (earliest Begin), ties broken deterministically. Zero-length spans never
// qualify (Begin must precede t).
func bestSpan(candidates []obs.Span, t, tol float64) (obs.Span, bool) {
	var best obs.Span
	found := false
	for _, s := range candidates {
		if math.Abs(s.End-t) > tol || s.Begin >= t-tol {
			continue
		}
		if !found || s.Begin < best.Begin ||
			(s.Begin == best.Begin && (s.Kind < best.Kind ||
				(s.Kind == best.Kind && s.Name < best.Name))) {
			best, found = s, true
		}
	}
	return best, found
}

// appendEdgeSegments attributes the traversed edge's window [e.Begin, upTo]
// on the sender's timeline. Message windows are sliced by the sender's
// retry edges for the same exchange, so retransmission backoff shows up as
// Retry rather than inflating Send; reduce edges attribute as Reduce.
// Segments are appended in backward (walk) order.
func appendEdgeSegments(segs []Segment, e obs.Edge, upTo float64, retries []obs.Edge, tol float64) []Segment {
	if e.Kind == obs.EdgeReduce {
		return append(segs, Segment{Rank: e.From, Kind: obs.Reduce, Name: e.Name, Begin: e.Begin, End: upTo})
	}
	var fwd []Segment
	cur := e.Begin
	for _, re := range retries {
		if re.From != e.From || re.Name != e.Name || re.End <= e.Begin+tol || re.Begin >= upTo-tol {
			continue
		}
		b, end := math.Max(re.Begin, cur), math.Min(re.End, upTo)
		if end <= b {
			continue
		}
		if b > cur {
			fwd = append(fwd, Segment{Rank: e.From, Kind: obs.Send, Name: e.Name, Begin: cur, End: b})
		}
		fwd = append(fwd, Segment{Rank: e.From, Kind: obs.Retry, Name: e.Name, Begin: b, End: end})
		cur = end
	}
	if upTo > cur {
		fwd = append(fwd, Segment{Rank: e.From, Kind: obs.Send, Name: e.Name, Begin: cur, End: upTo})
	}
	for i := len(fwd) - 1; i >= 0; i-- {
		segs = append(segs, fwd[i])
	}
	return segs
}
