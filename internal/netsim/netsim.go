// Package netsim is the deterministic virtual-time network model under the
// distributed back-ends. Ranks carry virtual clocks; an exchange posts
// messages at each sender's clock, serialises messages on the sender's NIC,
// charges latency L plus size/B per message, and completes a receiver's wait
// at the latest arrival. This reproduces the communication terms of the
// paper's Equations (1)-(3): per-message cost L + m/B, message-count
// multipliers, and MAX-style overlap of core computation with communication.
package netsim

import (
	"fmt"
	"math"
)

// Message is one point-to-point halo message.
type Message struct {
	From  int32
	To    int32
	Bytes int64
}

// Network holds the link parameters.
type Network struct {
	// Latency is the fixed per-message cost L.
	Latency float64
	// Bandwidth is the per-rank injection bandwidth B in bytes/s.
	Bandwidth float64
	// EagerThreshold, when positive, models MPI's eager/rendezvous
	// protocol switch: messages larger than the threshold pay the
	// Handshake surcharge for the rendezvous round trip. Zero disables
	// the distinction.
	EagerThreshold int64
	// Handshake is the rendezvous surcharge per message above the eager
	// threshold. Zero defaults to 2*Latency (the classic request/ack
	// round trip), so existing configurations price exactly as before;
	// interconnects whose rendezvous cost is not two wire latencies set
	// it explicitly, and the model.Net pricing follows the same value.
	Handshake float64
}

// HandshakeTime returns the rendezvous surcharge one message of the given
// size pays: the resolved Handshake for messages above the eager
// threshold, 0 otherwise (eager messages, or no protocol distinction).
func (n *Network) HandshakeTime(bytes int64) float64 {
	if n.EagerThreshold <= 0 || bytes <= n.EagerThreshold {
		return 0
	}
	if n.Handshake == 0 {
		return 2 * n.Latency
	}
	return n.Handshake
}

// Validate rejects parameter combinations that would silently produce
// meaningless times: a zero or negative Bandwidth yields Inf or negative
// MessageTime, and negative Latency or EagerThreshold invert the cost
// model. Callers constructing a Network from user-supplied machine
// parameters should validate before first use; Transmit also checks, so a
// bad network fails loudly at its first exchange instead of corrupting
// every downstream clock.
func (n *Network) Validate() error {
	if n.Bandwidth <= 0 || math.IsNaN(n.Bandwidth) || math.IsInf(n.Bandwidth, 0) {
		return fmt.Errorf("netsim: Bandwidth %g must be a positive, finite byte rate", n.Bandwidth)
	}
	if n.Latency < 0 || math.IsNaN(n.Latency) || math.IsInf(n.Latency, 0) {
		return fmt.Errorf("netsim: Latency %g must be a non-negative, finite time", n.Latency)
	}
	if n.EagerThreshold < 0 {
		return fmt.Errorf("netsim: EagerThreshold %d must be non-negative (0 disables)", n.EagerThreshold)
	}
	if n.Handshake < 0 || math.IsNaN(n.Handshake) || math.IsInf(n.Handshake, 0) {
		return fmt.Errorf("netsim: Handshake %g must be a non-negative, finite time (0 defaults to 2*Latency)", n.Handshake)
	}
	return nil
}

// MessageTime returns the network occupancy of one message: L + bytes/B,
// plus the rendezvous handshake for messages above the eager threshold.
func (n *Network) MessageTime(bytes int64) float64 {
	return n.Latency + float64(bytes)/n.Bandwidth + n.HandshakeTime(bytes)
}

// Mode selects how a message occupies its sender's NIC.
type Mode uint8

const (
	// Bulk is bulk-synchronous delivery: the NIC is busy for the whole
	// MessageTime (L + m/B + handshake) of each message, so a sender's
	// messages serialise back to back and arrive when the NIC frees.
	Bulk Mode = iota
	// Overlapped is the pipelined (post/complete) delivery of the
	// overlap-capable chain executor. The rendezvous handshake starts at
	// the sender's post time and only the m/B injection occupies the NIC,
	// so later messages queue behind earlier injections, not behind their
	// wire latencies or handshake round trips; the receiver sees the
	// message one wire latency after its injection ends. A sender's first
	// message therefore prices as under Bulk (equal up to floating-point
	// summation order) and each further one saves its latency and
	// handshake.
	Overlapped
)

// Verdict is the outcome of one transmission attempt. The attempt's NIC
// occupancy is multiplied by Slow, then by Delay (a verdict of 1 and 1
// multiplies by exactly 1.0, so a plan that injects nothing computes the
// clean clocks operation for operation); a Failed attempt is retransmitted
// under the Retry schedule.
type Verdict struct {
	Slow, Delay float64
	Failed      bool
}

// Judge decides attempt try (0 = the first transmission) of message i. A
// nil Judge delivers every attempt cleanly.
type Judge func(i int, m Message, try int) Verdict

// Retry is the retransmission schedule: a failed attempt is detected
// Timeout after its arrival and retransmitted Backoff*2^try later (the
// factor saturates at 2^62); a message whose attempt try >= Budget fails is
// given up.
type Retry struct {
	Timeout, Backoff float64
	Budget           int
}

// Record is one message's delivery timeline.
type Record struct {
	// Begin is when the first attempt started occupying the sender's NIC.
	Begin float64
	// InjectEnd is when the final attempt freed the NIC (Arrival under
	// Bulk, Arrival - L under Overlapped).
	InjectEnd float64
	// Arrival is the arrival of the first usable copy, or of the final
	// failed attempt for a given-up message.
	Arrival float64
	// Retries counts the message's retransmissions: its entries in
	// Delivery.Failures, which follow those of the messages before it.
	Retries int32
	// GaveUp marks a message whose final attempt failed with the retry
	// budget spent.
	GaveUp bool
}

// Failure is one failed attempt that was retransmitted.
type Failure struct {
	// Arrival is when the failed attempt arrived (or would have).
	Arrival float64
	// Retry is when the retransmission starts waiting for the NIC.
	Retry float64
}

// Delivery is caller-owned storage for one exchange's timelines. Keep one
// and pass it to every Transmit call: each call overwrites the previous
// contents and steady-state exchanges allocate nothing.
type Delivery struct {
	// Records parallels the exchange's messages.
	Records []Record
	// Failures lists every retransmitted attempt in message order, then
	// attempt order.
	Failures []Failure
	busy     []float64
}

// Transmit computes every message's delivery timeline into out. post[r] is
// the virtual time rank r posts its sends; messages from the same sender
// serialise on its NIC in slice order, each attempt starting when the NIC
// frees (and, under Overlapped, not before post + handshake). judge may
// fail attempts, which are retransmitted per retry; retransmissions do not
// re-pay the handshake.
func (n *Network) Transmit(out *Delivery, mode Mode, post []float64, msgs []Message, judge Judge, retry Retry) {
	if err := n.Validate(); err != nil {
		panic(err.Error())
	}
	busy := append(out.busy[:0], post...)
	out.busy = busy
	out.Records = out.Records[:0]
	out.Failures = out.Failures[:0]
	for i, m := range msgs {
		if int(m.From) >= len(post) || m.From < 0 {
			panic(fmt.Sprintf("netsim: message %d from invalid rank %d", i, m.From))
		}
		occ, ready, wire := n.MessageTime(m.Bytes), math.Inf(-1), 0.0
		if mode == Overlapped {
			occ, ready, wire = float64(m.Bytes)/n.Bandwidth, post[m.From]+n.HandshakeTime(m.Bytes), n.Latency
		}
		var rec Record
		start := busy[m.From]
		for try := 0; ; try++ {
			v := Verdict{Slow: 1, Delay: 1}
			if judge != nil {
				v = judge(i, m, try)
			}
			s := start
			if ready > s {
				s = ready
			}
			if try == 0 {
				rec.Begin = s
			}
			inj := s + occ*v.Slow*v.Delay
			busy[m.From] = inj
			rec.InjectEnd, rec.Arrival = inj, inj+wire
			if !v.Failed {
				break
			}
			if try >= retry.Budget {
				rec.GaveUp = true
				break
			}
			// Detection one timeout after the failed attempt, then the
			// exponential backoff; the NIC sits idle until the retransmit.
			next := rec.Arrival + retry.Timeout + retry.Backoff*backoffFactor(try)
			out.Failures = append(out.Failures, Failure{Arrival: rec.Arrival, Retry: next})
			rec.Retries++
			busy[m.From] = next
			start = next
		}
		out.Records = append(out.Records, rec)
	}
}

// backoffFactor is the exponential backoff multiplier 2^try, saturated at
// 2^62: `int64(1) << try` overflows to a *negative* factor at try >= 63,
// which would move the retransmission back in virtual time. Retry budgets
// are user-settable, so the boundary is reachable from config.
func backoffFactor(try int) float64 {
	if try >= 62 {
		return float64(int64(1) << 62)
	}
	return float64(int64(1) << uint(try))
}

// ReduceTime returns the cost of a tree allreduce of the given payload over
// nparts ranks: ceil(log2 p) message steps.
func (n *Network) ReduceTime(nparts int, bytes int64) float64 {
	if nparts <= 1 {
		return 0
	}
	steps := 0
	for p := nparts - 1; p > 0; p >>= 1 {
		steps++
	}
	return float64(steps) * n.MessageTime(bytes)
}
