// Package model implements the paper's analytic performance model for
// loop-chains (Section 3.2, Equations (1)-(4)): the runtime of standard OP2
// loops with per-loop halo exchanges, the runtime of the equivalent
// communication-avoiding chain with one grouped message per neighbour, the
// grouped message size, and the derived comparison components reported in
// Tables 2 and 5 (communication volumes, core/halo iteration splits, gain,
// communication reduction and computation increase percentages).
//
// The model consumes either hand-set parameters or counters measured by the
// cluster back-end, and machine parameters from package machine.
package model

import (
	"fmt"
	"math"
)

// LoopParams parameterises one OP2 loop for Equation (1).
type LoopParams struct {
	// G is g_l, the compute time of one iteration (seconds).
	G float64
	// CoreIters is S_l^c, iterations overlappable with communication.
	CoreIters float64
	// HaloIters is S_l^1 for standard execution (the single execute-halo
	// layer) or S_l^h for CA execution (all execute-halo levels).
	HaloIters float64
	// NDats is d_l, the dats whose halos the loop exchanges.
	NDats float64
	// Neighbours is p_l, the maximum neighbours per rank.
	Neighbours float64
	// MsgBytes is m_l^1, the maximum per-neighbour message size in bytes.
	MsgBytes float64
}

// Validate rejects parameter combinations that would silently poison every
// Equation (1)-(3) evaluation: a non-finite or negative per-iteration cost,
// or negative/non-finite counters. The autotuner calls this before scoring
// calibrated parameters; ModelReport before printing predictions.
func (p LoopParams) Validate() error {
	if p.G < 0 || math.IsNaN(p.G) || math.IsInf(p.G, 0) {
		return fmt.Errorf("model: G %g must be a non-negative, finite time", p.G)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"CoreIters", p.CoreIters}, {"HaloIters", p.HaloIters},
		{"NDats", p.NDats}, {"Neighbours", p.Neighbours}, {"MsgBytes", p.MsgBytes},
	} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("model: %s %g must be a non-negative, finite count", f.name, f.v)
		}
	}
	return nil
}

// Net holds the network parameters of Equations (1)-(3).
type Net struct {
	// L is the per-message latency (Λ for staged GPU transfers).
	L float64
	// B is the per-rank bandwidth in bytes/s.
	B float64
	// C is the per-neighbour pack/unpack cost of the grouped message
	// (the c term of Equation (3)); zero for standard loops.
	C float64
	// EagerThreshold is the eager/rendezvous protocol switch in bytes:
	// messages strictly larger pay Handshake on top of L + m/B, mirroring
	// netsim.Network.MessageTime. Zero disables the switch.
	EagerThreshold float64
	// Handshake is the extra per-message cost above EagerThreshold
	// (2·network-latency in netsim; the handshake crosses the wire even
	// when L itself is the staged-GPU Λ).
	Handshake float64
	// Overlap switches CommTime to the pipelined (post/complete) delivery
	// of netsim.Overlapped: rendezvous handshakes are
	// initiated at post time and proceed concurrently, and only the m/B
	// injection term serialises on the sender's NIC, so a k-message
	// exchange hides (k-1) latencies and handshakes behind the pipeline.
	// The executors set it per policy; it never changes MsgTime itself.
	Overlap bool
}

// MsgTime prices one m-byte point-to-point message: L + m/B, plus the
// rendezvous handshake when m exceeds the eager threshold. This is the
// model-side mirror of netsim.Network.MessageTime.
func (n Net) MsgTime(m float64) float64 {
	t := n.L + m/n.B
	if n.EagerThreshold > 0 && m > n.EagerThreshold {
		t += n.Handshake
	}
	return t
}

// CommTime prices the full communication term of an exchange in which one
// rank sends (or receives) k messages of m bytes each: the virtual time
// from the sends being posted to the last arrival. Bulk-synchronous
// delivery serialises the complete per-message cost on the NIC, k times
// MsgTime; overlapped delivery (Overlap set, mirroring
// netsim.Overlapped) serialises only the injection term, so
// latency and the rendezvous handshake are paid once: k*m/B + L
// (+ Handshake above the eager threshold). The two agree at k = 1.
func (n Net) CommTime(k, m float64) float64 {
	if k <= 0 {
		return 0
	}
	if !n.Overlap {
		return k * n.MsgTime(m)
	}
	t := k*(m/n.B) + n.L
	if n.EagerThreshold > 0 && m > n.EagerThreshold {
		t += n.Handshake
	}
	return t
}

// Validate rejects network parameters that would produce meaningless model
// times (mirrors netsim.Network.Validate): a non-positive or non-finite
// bandwidth yields Inf or negative transfer terms, and negative latency or
// pack cost invert the cost model.
func (n Net) Validate() error {
	if n.B <= 0 || math.IsNaN(n.B) || math.IsInf(n.B, 0) {
		return fmt.Errorf("model: B %g must be a positive, finite byte rate", n.B)
	}
	if n.L < 0 || math.IsNaN(n.L) || math.IsInf(n.L, 0) {
		return fmt.Errorf("model: L %g must be a non-negative, finite time", n.L)
	}
	if n.C < 0 || math.IsNaN(n.C) || math.IsInf(n.C, 0) {
		return fmt.Errorf("model: C %g must be a non-negative, finite time", n.C)
	}
	if n.EagerThreshold < 0 || math.IsNaN(n.EagerThreshold) || math.IsInf(n.EagerThreshold, 0) {
		return fmt.Errorf("model: EagerThreshold %g must be a non-negative, finite byte count", n.EagerThreshold)
	}
	if n.Handshake < 0 || math.IsNaN(n.Handshake) || math.IsInf(n.Handshake, 0) {
		return fmt.Errorf("model: Handshake %g must be a non-negative, finite time", n.Handshake)
	}
	return nil
}

// TOp2Loop is Equation (1): the runtime of one standard OP2 loop,
// MAX[g*S^c, 2*d*p*(L+m/B)] + g*S^1, with the per-message cost carrying
// the rendezvous handshake above the eager threshold and the 2*d*p message
// aggregation priced by Net.CommTime — bulk-synchronous by default, the
// pipelined overlap term (only m/B serialises) when Net.Overlap is set.
func TOp2Loop(p LoopParams, n Net) float64 {
	comm := n.CommTime(2*p.NDats*p.Neighbours, p.MsgBytes)
	t := p.G * p.CoreIters
	if comm > t {
		t = comm
	}
	return t + p.G*p.HaloIters
}

// TOp2Chain is Equation (2): the chain runtime without CA is the sum of its
// loops' Equation (1) times.
func TOp2Chain(loops []LoopParams, n Net) float64 {
	t := 0.0
	for _, l := range loops {
		t += TOp2Loop(l, n)
	}
	return t
}

// ChainParams parameterises Equation (3) for a CA-executed chain. Loops
// carry the CA iteration splits (CoreIters shrink, HaloIters cover all halo
// levels); communication happens once with the grouped message.
type ChainParams struct {
	Loops []LoopParams
	// Neighbours is p, the maximum neighbours per rank for the grouped
	// exchange.
	Neighbours float64
	// GroupedBytes is m^r, the maximum grouped message size per
	// neighbour (Equation (4)).
	GroupedBytes float64
}

// TCAChain is Equation (3): MAX[Σ g_l*S_l^c, p*(L + m^r/B + c)] + Σ g_l*S_l^h,
// with the grouped message priced so the rendezvous handshake applies once
// m^r crosses the eager threshold (the common case: grouping pushes
// per-neighbour payloads past it). The p-message aggregation goes through
// Net.CommTime: under Overlap only the injection term serialises, so p-1
// latencies and handshakes leave the communication term; the per-neighbour
// pack/unpack cost c stays per message in both modes.
func TCAChain(c ChainParams, n Net) float64 {
	coreSum, haloSum := 0.0, 0.0
	for _, l := range c.Loops {
		coreSum += l.G * l.CoreIters
		haloSum += l.G * l.HaloIters
	}
	comm := n.CommTime(c.Neighbours, c.GroupedBytes) + c.Neighbours*n.C
	t := coreSum
	if comm > t {
		t = comm
	}
	return t + haloSum
}

// DatHalo describes one dat's halo contribution to the grouped message of
// one loop, for Equation (4).
type DatHalo struct {
	// EehElems is S_d^{eeh,h_l}: export-execute elements up to the loop's
	// halo extension.
	EehElems float64
	// EnhElems is S_d^{enh,h_l}: export-non-execute elements of the
	// updated levels.
	EnhElems float64
	// ElemBytes is delta, the per-element size in bytes.
	ElemBytes float64
}

// GroupedMsgSize is Equation (4): the grouped message size m^r, summing the
// eeh and enh contributions of every halo-exchanged dat of every loop.
// Note the equation (faithfully) counts a dat once per loop that exchanges
// it; the implementation's grouped message deduplicates dats, so measured
// sizes can be smaller.
func GroupedMsgSize(loops [][]DatHalo) float64 {
	m := 0.0
	for _, dats := range loops {
		for _, d := range dats {
			m += (d.EehElems + d.EnhElems) * d.ElemBytes
		}
	}
	return m
}

// Components are the Table 2 / Table 5 model columns for one chain
// configuration.
type Components struct {
	// Op2CommBytes is Σ(2*d*p*m^1) over the chain's loops.
	Op2CommBytes float64
	// Op2CoreIters and Op2HaloIters are Σ S^c and Σ S^1.
	Op2CoreIters float64
	Op2HaloIters float64
	// CACommBytes is p*m^r.
	CACommBytes float64
	// CACoreIters and CAHaloIters are the CA splits Σ S^c and Σ S^h.
	CACoreIters float64
	CAHaloIters float64
	// GainPct is the modelled runtime reduction of CA over OP2 in
	// percent (negative when CA is slower).
	GainPct float64
	// CommReducPct is the communication-volume reduction in percent.
	CommReducPct float64
	// CompIncPct is the halo (redundant) computation increase in percent
	// of the OP2 total iterations.
	CompIncPct float64
}

// Compare evaluates both sides of the model and derives the comparison
// columns of Tables 2 and 5.
func Compare(op2 []LoopParams, ca ChainParams, n Net) Components {
	var c Components
	for _, l := range op2 {
		c.Op2CommBytes += 2 * l.NDats * l.Neighbours * l.MsgBytes
		c.Op2CoreIters += l.CoreIters
		c.Op2HaloIters += l.HaloIters
	}
	c.CACommBytes = ca.Neighbours * ca.GroupedBytes
	for _, l := range ca.Loops {
		c.CACoreIters += l.CoreIters
		c.CAHaloIters += l.HaloIters
	}
	tOp2 := TOp2Chain(op2, n)
	tCA := TCAChain(ca, n)
	if tOp2 > 0 {
		c.GainPct = (tOp2 - tCA) / tOp2 * 100
	}
	if c.Op2CommBytes > 0 {
		c.CommReducPct = (c.Op2CommBytes - c.CACommBytes) / c.Op2CommBytes * 100
	}
	op2Total := c.Op2CoreIters + c.Op2HaloIters
	caTotal := c.CACoreIters + c.CAHaloIters
	if op2Total > 0 {
		c.CompIncPct = (caTotal - op2Total) / op2Total * 100
	}
	return c
}

// Validation pairs a model prediction with a measurement of the same
// quantity. The cluster back-end accumulates one prediction per loop/chain
// execution from that execution's own measured parameters (Equations (1)
// and (3)), so every simulated run doubles as a model-validation
// experiment; see cluster.Backend.ModelReport.
type Validation struct {
	Predicted, Measured float64
}

// ErrPct returns the signed percent error of the prediction relative to
// the measurement (0 when the measurement is 0).
func (v Validation) ErrPct() float64 {
	if v.Measured == 0 {
		return 0
	}
	return (v.Predicted - v.Measured) / v.Measured * 100
}

// BreakEvenNeighbourBytes returns, for a chain whose loops are fixed, the
// grouped message size at which the modelled CA and OP2 times are equal,
// holding everything else constant. It answers the paper's question of
// when a loop-chain profits from CA: chains whose m^r stays below the
// break-even profit; chains that must ship many extra halo layers do not.
// Returns +Inf when CA wins at any message size (comm never dominates).
func BreakEvenNeighbourBytes(op2 []LoopParams, ca ChainParams, n Net) float64 {
	tOp2 := TOp2Chain(op2, n)
	coreSum, haloSum := 0.0, 0.0
	for _, l := range ca.Loops {
		coreSum += l.G * l.CoreIters
		haloSum += l.G * l.HaloIters
	}
	// CA time = MAX[coreSum, p*(L + m/B + c)] + haloSum = tOp2.
	target := tOp2 - haloSum
	if target <= coreSum {
		// Even with zero communication CA cannot reach tOp2 from above,
		// or wins regardless of message size.
		if coreSum+haloSum >= tOp2 {
			return 0
		}
	}
	if ca.Neighbours == 0 {
		return math.Inf(1)
	}
	// The communication term is piecewise in m: solve the eager branch
	// first, and if the solution lands above the threshold re-solve with
	// the rendezvous handshake included. When the two branches disagree
	// (eager solution above the threshold, rendezvous solution below it)
	// the cost jump at the threshold straddles the target, so the
	// break-even is the threshold itself. Under Overlap the term is
	// p*m/B + L (+Handshake) + p*c — latency and handshake paid once —
	// and the same two-branch inversion applies.
	invert := func(handshake float64) float64 {
		if n.Overlap {
			return (target - n.L - handshake - ca.Neighbours*n.C) * n.B / ca.Neighbours
		}
		return (target/ca.Neighbours - n.L - handshake - n.C) * n.B
	}
	m := invert(0)
	if n.EagerThreshold > 0 && m > n.EagerThreshold {
		if mr := invert(n.Handshake); mr > n.EagerThreshold {
			m = mr
		} else {
			m = n.EagerThreshold
		}
	}
	if m < 0 {
		return 0
	}
	return m
}
