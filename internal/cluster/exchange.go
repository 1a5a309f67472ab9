package cluster

import (
	"op2ca/internal/core"
	"op2ca/internal/halo"
	"op2ca/internal/netsim"
)

// exchangeSpec asks for halo shells of one dat: execute shells 1..execDepth
// and non-execute shells 1..nonexecDepth.
type exchangeSpec struct {
	dat          *core.Dat
	execDepth    int
	nonexecDepth int
}

// sendBuf is one packed message. Standard OP2 sends one buffer per
// (dat, halo kind, shell, neighbour); the CA back-end groups everything for
// one neighbour into a single buffer (datID < 0), the paper's Figure 8.
type sendBuf struct {
	from, to int32
	datID    int32 // -1 for grouped messages
	kind     int8  // 0 execute, 1 non-execute
	depth    int8  // shell index, 0-based
	vals     []float64
}

// exchangeResult summarises one exchange: the virtual-network messages (in
// per-sender serialisation order) and per-rank byte totals.
type exchangeResult struct {
	msgs      []netsim.Message
	bufs      []*sendBuf
	sendBytes []int64
	recvBytes []int64
	nDats     int
}

// doExchange packs, "transfers" and unpacks halo data for the given specs.
// The data movement is real (receivers' halo copies are overwritten with
// owners' current values); the returned result carries what the virtual
// network needs to charge time.
func (b *Backend) doExchange(specs []exchangeSpec, grouped bool) exchangeResult {
	if len(specs) == 0 {
		// Nothing to exchange: alias the permanently-zero byte counts
		// (callers only read them), so dirty-state-clean loops allocate
		// nothing.
		return exchangeResult{sendBytes: b.scr.emptyBytes, recvBytes: b.scr.emptyBytes}
	}
	res := exchangeResult{
		sendBytes: make([]int64, b.cfg.NParts),
		recvBytes: make([]int64, b.cfg.NParts),
		nDats:     len(specs),
	}

	// Pack.
	perRank := make([][]*sendBuf, b.cfg.NParts)
	b.forEachRank(func(w, r int) {
		var bufs []*sendBuf
		byDest := map[int32]*sendBuf{}
		for _, sp := range specs {
			sl := b.layouts[r].SetL(sp.dat.Set)
			local := b.dats[r][sp.dat.ID]
			dim := sp.dat.Dim
			pack := func(exports [][]halo.ExportList, depth int, kind int8) {
				for d := 0; d < depth; d++ {
					for _, ex := range exports[d] {
						if len(ex.Locals) == 0 {
							continue
						}
						var buf *sendBuf
						if grouped {
							buf = byDest[ex.Rank]
							if buf == nil {
								buf = &sendBuf{from: int32(r), to: ex.Rank, datID: -1}
								byDest[ex.Rank] = buf
								bufs = append(bufs, buf)
							}
						} else {
							buf = &sendBuf{from: int32(r), to: ex.Rank,
								datID: int32(sp.dat.ID), kind: kind, depth: int8(d)}
							bufs = append(bufs, buf)
						}
						for _, loc := range ex.Locals {
							buf.vals = append(buf.vals, local[int(loc)*dim:(int(loc)+1)*dim]...)
						}
					}
				}
			}
			pack(sl.ExportExec, sp.execDepth, 0)
			pack(sl.ExportNonexec, sp.nonexecDepth, 1)
		}
		perRank[r] = bufs
	})
	for r := 0; r < b.cfg.NParts; r++ {
		for _, buf := range perRank[r] {
			bytes := int64(len(buf.vals) * 8)
			res.bufs = append(res.bufs, buf)
			res.msgs = append(res.msgs, netsim.Message{From: buf.from, To: buf.to, Bytes: bytes})
			res.sendBytes[buf.from] += bytes
			res.recvBytes[buf.to] += bytes
		}
	}

	// Unpack.
	inbound := make([][]*sendBuf, b.cfg.NParts)
	for _, buf := range res.bufs {
		inbound[buf.to] = append(inbound[buf.to], buf)
	}
	b.forEachRank(func(w, r int) {
		if grouped {
			b.unpackGrouped(r, specs, inbound[r])
			return
		}
		for _, buf := range inbound[r] {
			b.unpackSingle(r, buf)
		}
	})
	return res
}

// unpackSingle applies one standard per-dat message into rank r's halo.
func (b *Backend) unpackSingle(r int, buf *sendBuf) {
	d := b.cfg.Prog.Dats[buf.datID]
	sl := b.layouts[r].SetL(d.Set)
	ranges := sl.ImportExec
	if buf.kind == 1 {
		ranges = sl.ImportNonexec
	}
	for _, rg := range ranges[buf.depth] {
		if rg.Rank != buf.from {
			continue
		}
		want := int(rg.Count) * d.Dim
		if len(buf.vals) != want {
			panic(&ExchangeError{Kind: ErrSizeMismatch, Rank: r, From: buf.from,
				Dat: d.Name, Want: want, Got: len(buf.vals)})
		}
		copy(b.dats[r][d.ID][int(rg.Start)*d.Dim:], buf.vals)
		return
	}
	panic(&ExchangeError{Kind: ErrUnexpected, Rank: r, From: buf.from, Dat: d.Name})
}

// unpackGrouped applies grouped messages into rank r's halo, walking the
// specs in the exact order senders packed them.
func (b *Backend) unpackGrouped(r int, specs []exchangeSpec, inbound []*sendBuf) {
	cursor := map[int32]int{}
	bySrc := map[int32]*sendBuf{}
	for _, buf := range inbound {
		bySrc[buf.from] = buf
	}
	take := func(src int32, n int) []float64 {
		buf := bySrc[src]
		if buf == nil {
			panic(&ExchangeError{Kind: ErrMissing, Rank: r, From: src})
		}
		at := cursor[src]
		if at+n > len(buf.vals) {
			panic(&ExchangeError{Kind: ErrTruncated, Rank: r, From: src,
				Want: n, Got: len(buf.vals) - at})
		}
		cursor[src] = at + n
		return buf.vals[at : at+n]
	}
	for _, sp := range specs {
		sl := b.layouts[r].SetL(sp.dat.Set)
		local := b.dats[r][sp.dat.ID]
		dim := sp.dat.Dim
		unpack := func(ranges [][]halo.ImportRange, depth int) {
			for d := 0; d < depth; d++ {
				for _, rg := range ranges[d] {
					copy(local[int(rg.Start)*dim:], take(rg.Rank, int(rg.Count)*dim))
				}
			}
		}
		unpack(sl.ImportExec, sp.execDepth)
		unpack(sl.ImportNonexec, sp.nonexecDepth)
	}
	for src, buf := range bySrc {
		if cursor[src] != len(buf.vals) {
			panic(&ExchangeError{Kind: ErrTrailing, Rank: r, From: src,
				Got: len(buf.vals) - cursor[src]})
		}
	}
}

// filterNeeds drops the parts of the requested exchanges already satisfied
// by the current validity state and bumps validity for what will be
// exchanged. The returned slice aliases Backend scratch, valid until the
// next filterNeeds call (each execution filters once before exchanging).
func (b *Backend) filterNeeds(specs []exchangeSpec) []exchangeSpec {
	out := b.scr.filtered[:0]
	for _, sp := range specs {
		v := &b.valid[sp.dat.ID]
		needE, needN := 0, 0
		if sp.execDepth > v.exec {
			needE = sp.execDepth
		}
		if sp.nonexecDepth > v.nonexec {
			needN = sp.nonexecDepth
		}
		if needE == 0 && needN == 0 {
			continue
		}
		out = append(out, exchangeSpec{dat: sp.dat, execDepth: needE, nonexecDepth: needN})
		if needE > v.exec {
			v.exec = needE
		}
		if needN > v.nonexec {
			v.nonexec = needN
		}
	}
	b.scr.filtered = out
	return out
}

// maxStdSchedules bounds the per-loop exchange memo (stdSchedules). A
// program declares a fixed set of loops and the dirty state leaves them a
// few distinct filtered spec sets: the perfbench workloads peak at 7
// (mgcfd-steady; hydra-cold, whose cases run every Hydra proxy loop in OP2
// and CA mode) and 4 per served job (service-mixed), and
// TestStdScheduleMemoStaysSmall keeps both applications within a quarter
// of the bound. Spec sets beyond it run the uncached exchange.
const maxStdSchedules = 32

// stdExchange runs a per-loop exchange (one message per dat, halo kind and
// shell) by replaying the memoised schedule of its filtered spec set, built
// on first sight. With NoPlanCache it walks the layouts every time.
func (b *Backend) stdExchange(specs []exchangeSpec) exchangeResult {
	if b.cfg.NoPlanCache {
		return b.doExchange(specs, false)
	}
	return b.replaySchedule(b.stdSchedules, maxStdSchedules, specs, false)
}

// standardNeeds lists the depth-1 halo requirements of one standalone loop,
// OP2's per-loop dirty-bit rule: indirectly read dats need both halo kinds;
// directly read dats in indirect loops need the execute halo (their values
// are consumed by redundant halo iterations). The returned slice aliases
// Backend scratch, valid until the next call; a loop has a handful of
// arguments, so dats are deduplicated by a linear search.
func (b *Backend) standardNeeds(l core.Loop) []exchangeSpec {
	out := b.scr.needs[:0]
	if !l.HasIndirection() {
		return out
	}
	for _, a := range l.Args {
		if a.IsGlobal() {
			continue
		}
		var e, n int
		switch {
		case a.Indirect() && (a.Mode == core.Read || a.Mode == core.ReadWrite):
			e, n = 1, 1
		case !a.Indirect() && a.Mode.Reads():
			e = 1
		default:
			continue
		}
		k := 0
		for k < len(out) && out[k].dat != a.Dat {
			k++
		}
		if k == len(out) {
			out = append(out, exchangeSpec{dat: a.Dat})
		}
		out[k].execDepth = max(out[k].execDepth, e)
		out[k].nonexecDepth = max(out[k].nonexecDepth, n)
	}
	b.scr.needs = out
	return out
}
