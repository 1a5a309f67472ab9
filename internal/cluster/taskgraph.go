package cluster

// taskgraph.go is the overlap-capable task-graph executor for CA loop-chains.
// A bulk-synchronous chain execution (chain.go) prices its exchange as a
// serial block: every message charges the full L + m/B (+ rendezvous
// handshake) on the sender's NIC before the receiver's wait completes. The
// task-graph executor instead runs the window as a five-stage pipeline per
// exchange boundary:
//
//	pack          the sender gathers halo elements into the grouped
//	              message (the c term of Equation (3)), as before;
//	post-send     the send is posted: the rendezvous handshake starts
//	              immediately and the payload injects behind earlier
//	              injections from the same sender — only m/B serialises
//	              on the NIC (netsim.Overlapped);
//	compute-core  the core prefix (owned elements touching no halo data)
//	              runs while messages are in flight, exactly as in the
//	              bulk executor — this is the MAX term of Equation (1);
//	complete-recv the receiver's wait completes one wire latency after
//	              the last inbound injection finishes, so only the
//	              portion of L + m/B not hidden behind core compute is
//	              charged as wait;
//	compute-halo  the redundant halo region runs after the wait.
//
// Only virtual-time arithmetic changes: the data pass is the same canonical
// ascending-element-order execution as every other policy, so results are
// bitwise identical to the sequential reference. Per-loop exchanges never
// overlap — they are the probe/calibration baseline whose per-message spans
// must decompose as h*L + m/B for the network fit (calibrate.go), and their
// per-dat eager messages have little pipeline to exploit.

import "op2ca/internal/chaincfg"

// overlapFor resolves whether a chain runs the overlap executor: the
// backend-wide Config.Overlap switch, or the chain's own "overlap"
// configuration token. The autotuner layers its per-policy choice on top
// (see runTuned): a tuned chain follows the decided policy's Overlap bit.
func (b *Backend) overlapFor(c *chaincfg.Chain) bool {
	if b.cfg.Overlap {
		return true
	}
	return c != nil && c.Overlap
}
