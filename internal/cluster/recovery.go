package cluster

// recovery.go is the fault-tolerant delivery layer between the deterministic
// fault plan (package faults) and the virtual network (package netsim). All
// simulated transfers move data reliably — pack and unpack copy values
// unconditionally — so injected faults shape only the virtual clocks, the
// fault counters and the trace: a faulted run's results are bit-identical to
// the fault-free run by construction, exactly as a real fault-tolerant
// transport hides losses from the application.
//
// A lost or corrupt attempt is detected one RetryTimeout after its
// (non-)arrival and retransmitted after an exponential backoff
// (RetryBackoff * 2^attempt); every retransmission occupies the sender's NIC
// for another L + m/B (m/B under overlapped delivery). netsim.Transmit does
// the arithmetic; this layer supplies the verdicts and reads the records. A
// message that exhausts its budget of MaxRetries
// retransmissions is a giveup: per-loop exchanges treat it as delivered by a
// reliable transport at the final attempt's arrival, while CA chains degrade
// the whole window (see runChainImpl's degradation ladder).

import (
	"op2ca/internal/chaincfg"
	"op2ca/internal/faults"
	"op2ca/internal/netsim"
	"op2ca/internal/obs"
)

// delivery is the outcome of one exchange's message delivery.
type delivery struct {
	// recs parallels the exchange's messages (see netsim.Record). It
	// aliases Backend scratch: the next deliver call overwrites it, after
	// which only the scalars below may be read.
	recs []netsim.Record
	// giveups counts messages that exhausted the retransmission budget.
	giveups int
	// failAt is the latest final-attempt arrival among given-up messages.
	failAt float64
}

// restartTime is the virtual time the runtime learns the exchange cannot
// complete: one detection timeout after the last given-up attempt's arrival.
func (d delivery) restartTime(timeout float64) float64 { return d.failAt + timeout }

// lastArrivals writes into recvLast, per receiving rank, the latest arrival
// among its inbound messages (0 for a rank receiving nothing).
func lastArrivals(recvLast []float64, msgs []netsim.Message, recs []netsim.Record) {
	clear(recvLast)
	for i, msg := range msgs {
		if recs[i].Arrival > recvLast[msg.To] {
			recvLast[msg.To] = recs[i].Arrival
		}
	}
}

// deliver runs one exchange's messages through netsim.Transmit under the
// configured fault plan and reads the records back into the delivery, the
// run's FaultStats, the retry/giveup trace spans and the autotuner's
// calibration samples. With no plan the judge is nil; a plan that injects
// nothing judges every attempt with factors of exactly 1.0, so enabling
// fault injection with zero probabilities does not perturb a single clock
// bit. owner labels the retry/giveup trace spans (the chain or kernel
// name). overlap selects the pipelined post/complete delivery of the
// task-graph executor (see taskgraph.go) instead of bulk-synchronous NIC
// serialisation.
func (b *Backend) deliver(post []float64, msgs []netsim.Message, owner string, maxRetries int, overlap bool) delivery {
	b.scr.judgeSeq = b.exchangeGate(owner)
	mode := netsim.Bulk
	if overlap {
		mode = netsim.Overlapped
	}
	var judge netsim.Judge
	if b.cfg.Faults.Enabled() {
		judge = b.fnJudge
	}
	out := &b.scr.delivery
	b.net.Transmit(out, mode, post, msgs, judge,
		netsim.Retry{Timeout: b.retryTimeout, Backoff: b.retryBackoff, Budget: maxRetries})
	d := delivery{recs: out.Records}
	if judge == nil {
		if ct := b.tuneSampling; ct != nil && !overlap {
			// Calibration sampling: each message's own span, NIC-ready to
			// arrival. Only clean bulk deliveries feed the fit —
			// retransmission noise would poison the L/B regression, and
			// an overlapped span (m/B + L minus queueing) does not
			// decompose as h*L + m/B.
			for i, m := range msgs {
				ct.cal.AddExchange(m.Bytes, d.recs[i].Arrival-d.recs[i].Begin)
			}
		}
		return d
	}
	fs := &b.stats.Faults
	fs.Retries += int64(len(out.Failures))
	traced := b.tracer.Enabled()
	fails := out.Failures
	for i, rec := range d.recs {
		m := msgs[i]
		if traced {
			for _, f := range fails[:rec.Retries] {
				b.tracer.Emit(m.From, obs.TrackExec, obs.Retry, owner, f.Arrival, f.Retry, m.Bytes)
				// The retry edge lets the critical-path walk and the wait
				// attribution charge this stretch of the message's window
				// to retransmission rather than transit.
				b.tracer.EmitEdge(obs.Edge{
					Kind: obs.EdgeRetry, Name: owner, From: m.From, To: m.From,
					Post: f.Arrival, Begin: f.Arrival, End: f.Retry, Ready: f.Arrival, Bytes: m.Bytes,
				})
			}
		}
		fails = fails[rec.Retries:]
		if !rec.GaveUp {
			continue
		}
		fs.Giveups++
		d.giveups++
		if rec.Arrival > d.failAt {
			d.failAt = rec.Arrival
		}
		if traced {
			b.tracer.Emit(m.From, obs.TrackExec, obs.Giveup, owner,
				rec.Arrival, rec.Arrival+b.retryTimeout, m.Bytes)
		}
	}
	return d
}

// judgeAttempt is the fault plan's netsim.Judge for the exchange being
// delivered (scr.judgeSeq). It counts every delayed, dropped and corrupted
// attempt into the run's FaultStats as it judges.
func (b *Backend) judgeAttempt(i int, m netsim.Message, try int) netsim.Verdict {
	v := b.cfg.Faults.Judge(faults.Attempt{Exchange: b.scr.judgeSeq, Msg: i, Try: try, From: m.From, To: m.To})
	fs := &b.stats.Faults
	if v.Delay > 1 {
		fs.Delays++
	}
	if v.Drop {
		fs.Drops++
	} else if v.Corrupt {
		fs.Corrupts++
	}
	return netsim.Verdict{Slow: v.Slow, Delay: v.Delay, Failed: v.Failed()}
}

// exchangeGate runs the per-exchange control checks shared by the bulk and
// overlapped delivery paths — sequence numbering, cooperative cancellation,
// scheduled crashes and the no-progress watchdog — and returns the
// exchange's sequence number.
func (b *Backend) exchangeGate(owner string) uint64 {
	seq := b.faultSeq
	b.faultSeq++
	// Cooperative cancellation is observed only here, at the exchange
	// boundary — never mid-kernel or mid-pack — so every ring generation
	// written before this point is complete and restorable. An atomic load
	// keeps the clean path allocation-free and branch-cheap.
	if b.cancelled.Load() {
		panic(&CancelledError{Exchange: seq})
	}
	plan := b.cfg.Faults
	// Crash faults fire before any message arithmetic: the process dies at
	// a deterministic exchange sequence number, recoverable only by
	// restarting from a checkpoint. Each clause is gated by its own armed
	// flag: Restore disarms all of them (a manually resumed run replays the
	// pre-crash exchanges without dying again), while a supervisor re-arms
	// the clauses that have not fired yet so the rest of a multi-crash
	// schedule still fires on the resumed run.
	for i, c := range plan.CrashSchedule() {
		if seq == c.Exchange && i < len(b.crashArmed) && b.crashArmed[i] {
			b.crashArmed[i] = false
			panic(&faults.CrashError{Rank: c.Rank, Exchange: c.Exchange})
		}
	}
	// The no-progress watchdog trips when the clock has advanced past the
	// deadline since the last completed exchange — the virtual-time
	// signature of a stall (e.g. a giveup storm inflating retry backoff).
	if b.watchdog > 0 {
		now := b.maxClock()
		if now-b.lastProgress > b.watchdog {
			if b.tracer.Enabled() {
				b.tracer.Emit(0, obs.TrackExec, obs.Watchdog, owner, b.lastProgress, now, 0)
			}
			panic(&HangError{Exchange: seq, Last: b.lastProgress, Clock: now, Deadline: b.watchdog})
		}
		b.lastProgress = now
	}
	return seq
}

// maxRetryBudget bounds every user-settable retransmission budget (Config,
// fault-plan and per-chain maxretries). Well before 1000 retries the
// exponential backoff dwarfs any simulated runtime; rejecting larger values
// in cluster.New keeps the backoff arithmetic far from its try>=63
// saturation point (see netsim.Retry).
const maxRetryBudget = 1000

// maxRetriesFor resolves the per-message retransmission budget for one
// chain: the chain configuration's maxretries override when present, else
// the backend-wide budget.
func (b *Backend) maxRetriesFor(c *chaincfg.Chain) int {
	if c != nil && c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return b.maxRetries
}
