package cluster

import (
	"op2ca/internal/core"
	"op2ca/internal/model"
	"op2ca/internal/obs"
)

// runStandard executes one loop the standard OP2 way (Algorithm 1): exchange
// dirty depth-1 halos, run core iterations while messages are in flight,
// wait, then run the remaining owned and import-execute iterations.
func (b *Backend) runStandard(l core.Loop, chainName string) {
	t0 := b.maxClock()
	m := b.cfg.Machine
	indirect := l.HasIndirection()

	specs := b.filterNeeds(b.standardNeeds(l))
	res := b.stdExchange(specs)
	if ct := b.tuneSampling; ct != nil && chainName == ct.chain {
		ct.noteExchange(specs, res.sendBytes, m.PackRate)
	}

	gbl := b.prepareGlobals(l)
	g := m.IterTime(l.Kernel)
	launch := m.LaunchOverhead()

	// Per-rank phase arrays and fork parameters live in Backend scratch:
	// the fork function is prebuilt (no closure per call) and the arrays
	// are reused across executions (no allocation per call).
	sc := &b.scr
	coreEnd, end, post := sc.stdCoreEnd, sc.stdEnd, sc.stdPost
	exchanging := len(res.msgs) > 0
	sc.stdLoop, sc.stdIndirect, sc.stdExchanging = l, indirect, exchanging
	sc.stdSendBytes, sc.stdGbl = res.sendBytes, gbl
	b.forEachRank(b.fnStdRank)
	sc.stdGbl = nil

	traceKey := l.Kernel.Name
	if chainName != "" {
		traceKey = chainName + "/" + l.Kernel.Name
	}
	// Per-loop exchanges are the bottom rung of the degradation ladder:
	// messages that exhaust the retransmission budget are treated as
	// delivered by a reliable transport at the final attempt's arrival
	// (counted as giveups), and execution proceeds.
	// Always bulk delivery (never overlapped): per-loop exchanges are the
	// probe/calibration baseline, and their spans must decompose as
	// h*L + m/B for the network fit (see taskgraph.go).
	d := b.deliver(post, res.msgs, traceKey, b.maxRetries, false)
	arrivals := d.arrivals
	recvLast := sc.stdRecvLast
	clear(recvLast)
	for i, msg := range res.msgs {
		if arrivals[i] > recvLast[msg.To] {
			recvLast[msg.To] = arrivals[i]
		}
	}
	gpuDirect := b.cfg.GPUDirect && m.GPU != nil

	traced := b.tracer.Enabled()
	var inbound [][]int
	var sendStarts []float64
	if traced {
		if exchanging {
			sendStarts = sendStartTimes(post, res.msgs, arrivals)
			b.emitPackSpans(traceKey, res.sendBytes)
			b.emitSendSpans(traceKey, sendStarts, res.msgs, arrivals)
			inbound = inboundIndex(b.cfg.NParts, res.msgs)
		}
	}
	for r := 0; r < b.cfg.NParts; r++ {
		var t float64
		if gpuDirect {
			// GPUDirect transfers do not overlap with compute kernels:
			// the whole loop waits for the exchange.
			t = post[r]
			if recvLast[r] > t {
				t = recvLast[r]
			}
			if traced && exchanging {
				b.emitWaitSpans(traceKey, r, post[r], inbound[r], res.msgs, arrivals, post, sendStarts)
			}
			start := t
			t += launch + g*float64(end[r])
			if exchanging && end[r] > coreEnd[r] {
				t += launch
			}
			if traced {
				coreT := start + launch + g*float64(coreEnd[r])
				if coreEnd[r] > 0 {
					b.tracer.Emit(int32(r), obs.TrackExec, obs.Compute, l.Kernel.Name, start, coreT, 0)
				}
				if end[r] > coreEnd[r] {
					b.tracer.Emit(int32(r), obs.TrackExec, obs.Redundant, l.Kernel.Name, coreT, t, 0)
				}
			}
			b.clock[r] = t
			continue
		}
		afterCore := post[r] + launch + g*float64(coreEnd[r])
		if traced && coreEnd[r] > 0 {
			b.tracer.Emit(int32(r), obs.TrackExec, obs.Compute, l.Kernel.Name, post[r], afterCore, 0)
		}
		t = afterCore
		if recvLast[r] > 0 {
			if traced && m.GPU != nil {
				m.GPU.TraceStage(b.tracer, int32(r), traceKey+" h2d", recvLast[r], res.recvBytes[r])
			}
			if ready := recvLast[r] + m.StageTime(res.recvBytes[r]); ready > t {
				t = ready
			}
		}
		if traced && exchanging {
			b.emitWaitSpans(traceKey, r, afterCore, inbound[r], res.msgs, arrivals, post, sendStarts)
		}
		if halo := end[r] - coreEnd[r]; halo > 0 {
			haloStart := t
			if exchanging {
				t += launch // second kernel launch for the halo region
			}
			t += g * float64(halo)
			if traced {
				b.tracer.Emit(int32(r), obs.TrackExec, obs.Redundant, l.Kernel.Name, haloStart, t, 0)
			}
		}
		b.clock[r] = t
	}

	var reduceTime float64
	if bytes := b.reduceGlobals(l, gbl); bytes > 0 {
		reduceTime = b.net.ReduceTime(b.cfg.NParts, bytes)
		t := b.maxClock() + reduceTime
		if traced {
			// The last rank to enter the allreduce binds everyone: emit a
			// reduce edge from the straggler to each other rank so the
			// critical path can cross onto its timeline.
			rm := 0
			for r := 1; r < len(b.clock); r++ {
				if b.clock[r] > b.clock[rm] {
					rm = r
				}
			}
			for r := range b.clock {
				b.tracer.Emit(int32(r), obs.TrackExec, obs.Reduce, traceKey, b.clock[r], t, bytes)
				if r != rm {
					b.tracer.EmitEdge(obs.Edge{
						Kind: obs.EdgeReduce, Name: traceKey, From: int32(rm), To: int32(r),
						Post: b.clock[rm], Begin: b.clock[rm], End: t,
						Ready: b.clock[r], Bytes: bytes,
					})
				}
			}
		}
		for r := range b.clock {
			b.clock[r] = t
		}
	}

	b.updateValidity(l)
	b.recordLoopStats(l, chainName, res, coreEnd, end, t0, g, reduceTime)
}

// stdRank is runStandard's per-rank fork body: one canonical-order pass
// over the loop's full executable range (the core/halo split shapes the
// virtual-time overlap only, never the order data effects apply in — see
// runLoopOnRank), recording the split bounds and the rank's send-post
// time. Parameters arrive via Backend scratch, published before the fork.
func (b *Backend) stdRank(w, r int) {
	sc := &b.scr
	l := sc.stdLoop
	m := b.cfg.Machine
	sl := b.layouts[r].SetL(l.Set)
	e := sl.NOwned
	if sc.stdIndirect {
		e = sl.ExecEnd(1)
	}
	c := e
	if sc.stdExchanging && sl.CorePrefix(0) < e {
		c = sl.CorePrefix(0)
	}
	var gs [][]float64
	if sc.stdGbl != nil {
		gs = sc.stdGbl[r]
	}
	b.runLoopOnRank(w, r, l, 0, e, gs)
	sc.stdCoreEnd[r], sc.stdEnd[r] = c, e
	post := b.clock[r] + float64(sc.stdSendBytes[r])/m.PackRate
	if !b.cfg.GPUDirect {
		post += m.StageTime(sc.stdSendBytes[r])
	}
	sc.stdPost[r] = post
}

func (b *Backend) recordLoopStats(l core.Loop, chainName string, res exchangeResult,
	coreEnd, end []int, t0, g, reduceTime float64) {
	key := l.Kernel.Name
	if chainName != "" {
		// Loops of a chain executed per-loop (CA off or infeasible) are
		// attributed to the chain, so per-chain comparisons line up.
		key = chainName + "/" + l.Kernel.Name
	}
	ls := b.stats.loop(key)
	ls.Executions++
	ls.Msgs += int64(len(res.msgs))
	ls.DatsExchanged += int64(res.nDats)
	var execMaxMsg int64
	execMaxNeigh := 0
	neigh, perRank := b.scr.neigh, b.scr.perRank
	clear(neigh)
	clear(perRank)
	for _, msg := range res.msgs {
		ls.Bytes += msg.Bytes
		if msg.Bytes > execMaxMsg {
			execMaxMsg = msg.Bytes
		}
		if !neigh[[2]int32{msg.From, msg.To}] {
			neigh[[2]int32{msg.From, msg.To}] = true
			perRank[msg.From]++
		}
	}
	if execMaxMsg > ls.MaxMsgBytes {
		ls.MaxMsgBytes = execMaxMsg
	}
	for _, n := range perRank {
		if n > execMaxNeigh {
			execMaxNeigh = n
		}
	}
	if execMaxNeigh > ls.MaxNeighbours {
		ls.MaxNeighbours = execMaxNeigh
	}
	maxCore, maxHalo := 0, 0
	for r := range coreEnd {
		ls.CoreIters += int64(coreEnd[r])
		ls.HaloIters += int64(end[r] - coreEnd[r])
		if coreEnd[r] > maxCore {
			maxCore = coreEnd[r]
		}
		if h := end[r] - coreEnd[r]; h > maxHalo {
			maxHalo = h
		}
	}
	ls.Time += b.maxClock() - t0
	// Equation (1) prediction from this execution's measured parameters:
	// the per-execution building block of the model-vs-measured report.
	ls.Predicted += reduceTime + model.TOp2Loop(model.LoopParams{
		G: g, CoreIters: float64(maxCore), HaloIters: float64(maxHalo),
		NDats: float64(res.nDats), Neighbours: float64(execMaxNeigh),
		MsgBytes: float64(execMaxMsg),
	}, b.modelNet(0))
	if ct := b.tuneSampling; ct != nil && chainName == ct.chain {
		ct.noteLoop(l.Kernel.Name, model.LoopParams{
			CoreIters: float64(maxCore), HaloIters: float64(maxHalo),
			NDats: float64(res.nDats), Neighbours: float64(execMaxNeigh),
			MsgBytes: float64(execMaxMsg),
		}, b.maxClock()-t0-reduceTime)
	}
}

var _ core.Backend = (*Backend)(nil)
