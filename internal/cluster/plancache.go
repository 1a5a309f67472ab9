package cluster

// plancache.go is the inspect-once/execute-many half of the runtime's
// inspector/executor split. Inspection cost — Algorithm 3's halo-layer
// analysis, plan construction, and the derivation of every pack/unpack
// index — is paid once per distinct chain and amortised over the many
// executions of that chain (MG-CFD and Hydra re-execute the same handful of
// chains every multigrid cycle). A cached plan carries precomputed exchange
// schedules: flat per-(rank, neighbour) index lists and reusable message
// buffers, so the steady-state exchange path allocates nothing and never
// walks the export/import map structures.

import (
	"fmt"
	"strconv"

	"op2ca/internal/ca"
	"op2ca/internal/core"
	"op2ca/internal/halo"
	"op2ca/internal/netsim"
)

// maxSchedulesPerPlan bounds how many distinct filtered spec sets one plan
// memoises exchange schedules for. The runtime dirty state decides which
// shells an execution actually exchanges, so one plan normally sees one or
// two spec sets (the first execution after a scatter, then the steady
// state); anything beyond the bound runs through the uncached exchange path.
const maxSchedulesPerPlan = 8

// planKey identifies one chain plan: the chain name plus the structural
// signature of its loops and configured halo-extension overrides. The
// plans map itself is keyed by the two fields joined with a NUL (see
// planMapKey), so steady-state lookups build the key in reusable scratch
// bytes and allocate nothing; planKey survives as the decomposed form the
// checkpoint container stores and warmPlans is keyed by.
type planKey struct {
	chain string
	sig   string
}

// planEntry is one cached inspection result and its exchange schedules.
type planEntry struct {
	key    planKey
	mapKey string // key.chain + "\x00" + key.sig, the plans-map key
	plan   ca.Plan
	err    error
	// specs is plan.Required as exchange specs, precomputed once.
	specs []exchangeSpec
	// schedules maps a filtered spec set's fingerprint to its schedule.
	schedules map[string]*exchangeSchedule
}

// planMapKey builds the plans-map key for (name, sig) into scratch bytes.
// The chain name cannot contain NUL (names come from ChainBegin callers
// and config files), so the join is unambiguous.
func (b *Backend) planMapKey(name string, sig []byte) []byte {
	buf := append(b.scr.keyBuf[:0], name...)
	buf = append(buf, 0)
	buf = append(buf, sig...)
	b.scr.keyBuf = buf
	return buf
}

// planEntry returns the cached plan for the chain, running ca.Inspect on
// first use. It returns nil when the cache is disabled, leaving the caller
// on the uncached path. The hit path allocates nothing: signature and map
// key are built in scratch and looked up via the map[string(bytes)] form.
func (b *Backend) planEntry(name string, loops []core.Loop, overrides []int) *planEntry {
	if b.cfg.NoPlanCache {
		return nil
	}
	b.scr.sigBuf = ca.AppendChainSignature(b.scr.sigBuf[:0], loops, overrides)
	mk := b.planMapKey(name, b.scr.sigBuf)
	if e, ok := b.plans[string(mk)]; ok {
		b.planHits++
		return e
	}
	key := planKey{chain: name, sig: string(b.scr.sigBuf)}
	if b.warmPlans[key] {
		// Restored from a checkpoint: the uninterrupted run already held
		// this entry, so the rebuild is accounted as a hit — plan-cache
		// stats continue exactly where the snapshot left them. (Schedules
		// are rebuilt lazily, exactly as the original entry built them.)
		delete(b.warmPlans, key)
		b.planHits++
		return b.buildPlanEntry(key, name, loops, overrides)
	}
	b.planMisses++
	return b.buildPlanEntry(key, name, loops, overrides)
}

// buildPlanEntry inspects the chain and caches the result under key.
func (b *Backend) buildPlanEntry(key planKey, name string, loops []core.Loop, overrides []int) *planEntry {
	e := &planEntry{key: key, mapKey: key.chain + "\x00" + key.sig,
		schedules: map[string]*exchangeSchedule{}}
	e.plan, e.err = ca.Inspect(name, loops, overrides)
	if e.err == nil {
		e.specs = make([]exchangeSpec, 0, len(e.plan.Required))
		for _, r := range e.plan.Required {
			e.specs = append(e.specs, exchangeSpec{dat: r.Dat, execDepth: r.ExecDepth, nonexecDepth: r.NonexecDepth})
		}
	}
	b.plans[e.mapKey] = e
	return e
}

// PlanCacheStats reports the execution-plan cache's hit, miss and
// invalidation counts. Invalidations happen when a chain degrades under
// fault injection: the cached schedules are what failed, so the entry is
// evicted and the next execution of the chain re-inspects and repopulates.
func (b *Backend) PlanCacheStats() (hits, misses, invalidations int64) {
	return b.planHits, b.planMisses, b.planInvalidations
}

// invalidatePlan evicts one cached plan (no-op for a nil entry or an entry
// already evicted, so repeated degradations of one window count once).
func (b *Backend) invalidatePlan(e *planEntry) {
	if e == nil {
		return
	}
	if _, ok := b.plans[e.mapKey]; ok {
		delete(b.plans, e.mapKey)
		b.planInvalidations++
	}
}

// specsFor returns the plan's required exchanges as specs: the entry's
// precomputed slice when cached, a fresh derivation otherwise (nil entry).
func (e *planEntry) specsFor(plan ca.Plan) []exchangeSpec {
	if e != nil {
		return e.specs
	}
	specs := make([]exchangeSpec, 0, len(plan.Required))
	for _, r := range plan.Required {
		specs = append(specs, exchangeSpec{dat: r.Dat, execDepth: r.ExecDepth, nonexecDepth: r.NonexecDepth})
	}
	return specs
}

// appendSpecFingerprint appends a comparable key for a filtered spec set to
// dst: which dats exchange which shell depths, under which message grouping.
// The grouping joins the key because the autotuner can run the same plan
// grouped one window and ungrouped the next; their schedules differ. Callers
// pass reusable scratch so the steady-state schedule lookup allocates
// nothing.
func appendSpecFingerprint(dst []byte, specs []exchangeSpec, grouped bool) []byte {
	if grouped {
		dst = append(dst, "g;"...)
	} else {
		dst = append(dst, "u;"...)
	}
	for _, sp := range specs {
		dst = strconv.AppendInt(dst, int64(sp.dat.ID), 10)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(sp.execDepth), 10)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(sp.nonexecDepth), 10)
		dst = append(dst, ';')
	}
	return dst
}

// packSeg is one contiguous run of a sender's pack work: the elements of
// one dat exported to one neighbour, in the receiver's storage order.
type packSeg struct {
	dat    *core.Dat
	locals []int32
}

// unpackSeg is one contiguous run of a receiver's unpack work: nvals values
// landing at value offset start of the dat's local storage.
type unpackSeg struct {
	dat   *core.Dat
	start int32
	nvals int32
}

// schedMsg is one precomputed message of an exchange schedule with its
// reusable payload buffer. dat/kind/depth identify the shell of ungrouped
// messages during schedule construction; grouped messages span shells.
type schedMsg struct {
	from, to   int32
	packSegs   []packSeg
	unpackSegs []unpackSeg
	buf        []float64
	dat        *core.Dat
	kind       int8
	depth      int8
}

// exchangeSchedule is the precomputed executor state for one (plan,
// filtered spec set): flat pack/unpack index lists per (rank, neighbour)
// and reusable buffers, replacing doExchange's per-execution map walks,
// buffer growth and cursor maps.
type exchangeSchedule struct {
	msgs      []*schedMsg
	bySender  [][]*schedMsg
	byRecv    [][]*schedMsg
	netMsgs   []netsim.Message
	sendBytes []int64
	recvBytes []int64
	nDats     int
	// packFn/unpackFn are the schedule's fork bodies, built once with the
	// schedule so replays pass prebuilt functions to forEachRank and
	// allocate no closures.
	packFn   func(w, r int)
	unpackFn func(w, r int)
}

// exchangeFor runs a chain's halo exchange through the plan cache: the
// schedule for the current filtered spec set is built on first sight and
// replayed thereafter. A disabled cache runs the uncached path.
func (b *Backend) exchangeFor(entry *planEntry, specs []exchangeSpec, grouped bool) exchangeResult {
	if entry == nil {
		return b.doExchange(specs, grouped)
	}
	return b.replaySchedule(entry.schedules, maxSchedulesPerPlan, specs, grouped)
}

// replaySchedule runs an exchange through the schedule memo: the schedule
// for the filtered spec set is built on first sight and replayed
// thereafter. Spec sets beyond the memo's bound — dirty states it has not
// seen — fall back to the uncached path.
func (b *Backend) replaySchedule(memo map[string]*exchangeSchedule, bound int,
	specs []exchangeSpec, grouped bool) exchangeResult {
	if len(specs) == 0 {
		return b.doExchange(specs, grouped)
	}
	b.scr.fpBuf = appendSpecFingerprint(b.scr.fpBuf[:0], specs, grouped)
	s, ok := memo[string(b.scr.fpBuf)]
	if !ok {
		if len(memo) >= bound {
			return b.doExchange(specs, grouped)
		}
		s = b.buildSchedule(specs, grouped)
		memo[string(b.scr.fpBuf)] = s
	}
	return b.runSchedule(s)
}

// buildSchedule derives the exchange schedule for one filtered spec set,
// mirroring doExchange's pack and unpack walks exactly: message creation
// order, per-message segment order and byte counts are identical, so a
// scheduled exchange is bit-identical to an uncached one (messages, clocks,
// dats, stats and traces).
func (b *Backend) buildSchedule(specs []exchangeSpec, grouped bool) *exchangeSchedule {
	n := b.cfg.NParts
	s := &exchangeSchedule{
		bySender:  make([][]*schedMsg, n),
		byRecv:    make([][]*schedMsg, n),
		sendBytes: make([]int64, n),
		recvBytes: make([]int64, n),
		nDats:     len(specs),
	}
	for r := 0; r < n; r++ {
		byDest := map[int32]*schedMsg{}
		var msgs []*schedMsg
		for _, sp := range specs {
			sl := b.layouts[r].SetL(sp.dat.Set)
			add := func(exports [][]halo.ExportList, depth int, kind int8) {
				for d := 0; d < depth; d++ {
					for _, ex := range exports[d] {
						if len(ex.Locals) == 0 {
							continue
						}
						var m *schedMsg
						if grouped {
							m = byDest[ex.Rank]
							if m == nil {
								m = &schedMsg{from: int32(r), to: ex.Rank}
								byDest[ex.Rank] = m
								msgs = append(msgs, m)
							}
						} else {
							m = &schedMsg{from: int32(r), to: ex.Rank, dat: sp.dat, kind: kind, depth: int8(d)}
							msgs = append(msgs, m)
						}
						m.packSegs = append(m.packSegs, packSeg{dat: sp.dat, locals: ex.Locals})
					}
				}
			}
			add(sl.ExportExec, sp.execDepth, 0)
			add(sl.ExportNonexec, sp.nonexecDepth, 1)
		}
		s.bySender[r] = msgs
	}
	for r := 0; r < n; r++ {
		for _, m := range s.bySender[r] {
			nvals := 0
			for _, seg := range m.packSegs {
				nvals += len(seg.locals) * seg.dat.Dim
			}
			m.buf = make([]float64, nvals)
			bytes := int64(nvals * 8)
			s.msgs = append(s.msgs, m)
			s.netMsgs = append(s.netMsgs, netsim.Message{From: m.from, To: m.to, Bytes: bytes})
			s.sendBytes[m.from] += bytes
			s.recvBytes[m.to] += bytes
			s.byRecv[m.to] = append(s.byRecv[m.to], m)
		}
	}
	// Receiver-side unpack runs. Grouped messages walk the specs in the
	// senders' pack order with one cursor per source (the cursor advance is
	// frozen into consecutive segments); ungrouped messages land in the one
	// import range of their (dat, kind, shell, source).
	for r := 0; r < n; r++ {
		if grouped {
			bySrc := map[int32]*schedMsg{}
			for _, m := range s.byRecv[r] {
				bySrc[m.from] = m
			}
			for _, sp := range specs {
				sl := b.layouts[r].SetL(sp.dat.Set)
				dim := int32(sp.dat.Dim)
				add := func(ranges [][]halo.ImportRange, depth int) {
					for d := 0; d < depth; d++ {
						for _, rg := range ranges[d] {
							m := bySrc[rg.Rank]
							if m == nil {
								panic(fmt.Sprintf("cluster: rank %d: no scheduled message from rank %d", r, rg.Rank))
							}
							m.unpackSegs = append(m.unpackSegs, unpackSeg{
								dat: sp.dat, start: rg.Start * dim, nvals: rg.Count * dim})
						}
					}
				}
				add(sl.ImportExec, sp.execDepth)
				add(sl.ImportNonexec, sp.nonexecDepth)
			}
		} else {
			for _, m := range s.byRecv[r] {
				sl := b.layouts[r].SetL(m.dat.Set)
				ranges := sl.ImportExec
				if m.kind == 1 {
					ranges = sl.ImportNonexec
				}
				dim := int32(m.dat.Dim)
				found := false
				for _, rg := range ranges[m.depth] {
					if rg.Rank == m.from {
						m.unpackSegs = append(m.unpackSegs, unpackSeg{
							dat: m.dat, start: rg.Start * dim, nvals: rg.Count * dim})
						found = true
						break
					}
				}
				if !found {
					panic(fmt.Sprintf("cluster: rank %d: no import range for scheduled message from rank %d", r, m.from))
				}
			}
		}
	}
	for _, m := range s.msgs {
		nvals := 0
		for _, seg := range m.unpackSegs {
			nvals += int(seg.nvals)
		}
		if nvals != len(m.buf) {
			panic(fmt.Sprintf("cluster: scheduled message %d->%d unpacks %d of %d values",
				m.from, m.to, nvals, len(m.buf)))
		}
	}
	s.packFn = func(w, r int) {
		for _, m := range s.bySender[r] {
			at := 0
			for _, seg := range m.packSegs {
				local := b.dats[r][seg.dat.ID]
				dim := seg.dat.Dim
				for _, loc := range seg.locals {
					at += copy(m.buf[at:], local[int(loc)*dim:(int(loc)+1)*dim])
				}
			}
		}
	}
	s.unpackFn = func(w, r int) {
		for _, m := range s.byRecv[r] {
			at := 0
			for _, seg := range m.unpackSegs {
				copy(b.dats[r][seg.dat.ID][seg.start:seg.start+seg.nvals], m.buf[at:at+int(seg.nvals)])
				at += int(seg.nvals)
			}
		}
	}
	return s
}

// runSchedule replays one precomputed exchange: pack into the reusable
// buffers, then unpack. Steady-state executions allocate nothing.
func (b *Backend) runSchedule(s *exchangeSchedule) exchangeResult {
	res := exchangeResult{
		msgs: s.netMsgs, sendBytes: s.sendBytes, recvBytes: s.recvBytes, nDats: s.nDats,
	}
	if len(s.msgs) == 0 {
		return res
	}
	b.forEachRank(s.packFn)
	b.forEachRank(s.unpackFn)
	return res
}
