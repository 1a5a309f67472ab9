package halo

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"op2ca/internal/core"
)

// selem addresses one element of one set during mixed-set graph traversals.
type selem struct {
	set  int32
	elem int32
}

// Build constructs the per-rank local layouts of prog for the given
// per-set ownership (from DeriveOwnership), with halo shells of the given
// depth and core prefixes supporting chains of up to maxChainLen loops.
//
// Ranks are built independently on min(GOMAXPROCS, nparts) goroutines, each
// with its own scratch, so the layouts do not depend on the worker count.
// Every ordering is produced by counting or radix sorts over the rank's own
// elements, so a rank costs time linear in its local size.
func Build(prog *core.Program, owners [][]int32, nparts, depth, maxChainLen int) []*Layout {
	if depth < 1 {
		panic(fmt.Sprintf("halo: depth %d < 1", depth))
	}
	if maxChainLen < 1 {
		panic(fmt.Sprintf("halo: maxChainLen %d < 1", maxChainLen))
	}
	if len(owners) != len(prog.Sets) {
		panic(fmt.Sprintf("halo: ownership for %d sets, program has %d", len(owners), len(prog.Sets)))
	}
	g := newGraph(prog, owners, nparts)
	layouts := make([]*Layout, nparts)
	forEachRank(nparts, func(next func() int) {
		sc := g.newScratch(maxChainLen)
		for r := next(); r < nparts; r = next() {
			layouts[r] = g.buildRank(sc, r, depth, maxChainLen)
		}
	})
	g.fillExports(layouts)
	fillNeighbours(layouts)
	return layouts
}

// forEachRank runs work on min(GOMAXPROCS, nparts) goroutines; each calls
// next to claim ranks until it returns nparts. A panic in any worker is
// re-raised on the caller's goroutine once all workers have stopped.
func forEachRank(nparts int, work func(next func() int)) {
	var claimed atomic.Int64
	next := func() int {
		if r := claimed.Add(1) - 1; r < int64(nparts) {
			return int(r)
		}
		return nparts
	}
	workers := min(runtime.GOMAXPROCS(0), nparts)
	if workers <= 1 {
		work(next)
		return
	}
	var (
		wg    sync.WaitGroup
		once  sync.Once
		fault any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					once.Do(func() { fault = p })
					claimed.Store(int64(nparts)) // stop the other workers early
				}
			}()
			work(next)
		}()
	}
	wg.Wait()
	if fault != nil {
		panic(fault)
	}
}

// graph holds the rank-independent inputs of Build, shared read-only by
// every worker except ownedLoc, whose entries each rank writes for the
// elements it owns (disjoint across ranks).
type graph struct {
	prog     *core.Program
	owners   [][]int32
	nparts   int
	rev      []reverseMap
	mapsFrom [][]*core.Map
	mapsTo   [][]*core.Map
	// byOwner[s] lists set s's elements grouped by owner rank, ascending
	// id within each group; ownedBy[s][r] is rank r's group and pos[s][e]
	// is e's index in byOwner[s], so ordering elements by pos orders them
	// by (owner, id).
	byOwner [][]int32
	ownedBy [][][]int32
	pos     [][]int32
	// boundary[s][e]: a map entry connects e to an element with a
	// different owner.
	boundary [][]bool
	// ownedLoc[s][e] is e's local index on its owner rank.
	ownedLoc [][]int32
	// keyBits[s] is the bit width of set s's element indices.
	keyBits []int
}

func newGraph(prog *core.Program, owners [][]int32, nparts int) *graph {
	nsets := len(prog.Sets)
	g := &graph{
		prog: prog, owners: owners, nparts: nparts,
		rev:      make([]reverseMap, len(prog.Maps)),
		mapsFrom: make([][]*core.Map, nsets),
		mapsTo:   make([][]*core.Map, nsets),
		byOwner:  make([][]int32, nsets),
		ownedBy:  make([][][]int32, nsets),
		pos:      make([][]int32, nsets),
		boundary: make([][]bool, nsets),
		ownedLoc: make([][]int32, nsets),
		keyBits:  make([]int, nsets),
	}
	for i, m := range prog.Maps {
		g.rev[i] = buildReverse(m)
		g.mapsFrom[m.From.ID] = append(g.mapsFrom[m.From.ID], m)
		g.mapsTo[m.To.ID] = append(g.mapsTo[m.To.ID], m)
	}
	for s, set := range prog.Sets {
		// Counting sort of the set's elements by owner, stable in id.
		start := make([]int, nparts+1)
		for _, r := range owners[s] {
			start[r+1]++
		}
		for r := 0; r < nparts; r++ {
			start[r+1] += start[r]
		}
		byOwner := make([]int32, set.Size)
		pos := make([]int32, set.Size)
		g.ownedBy[s] = make([][]int32, nparts)
		for r := range g.ownedBy[s] {
			g.ownedBy[s][r] = byOwner[start[r]:start[r]:start[r+1]]
		}
		for e, r := range owners[s] {
			pos[e] = int32(len(g.ownedBy[s][r]) + start[r])
			g.ownedBy[s][r] = append(g.ownedBy[s][r], int32(e))
		}
		g.byOwner[s], g.pos[s] = byOwner, pos
		g.boundary[s] = make([]bool, set.Size)
		g.ownedLoc[s] = make([]int32, set.Size)
		g.keyBits[s] = bits.Len(uint(set.Size))
	}
	for _, m := range prog.Maps {
		fo, to := owners[m.From.ID], owners[m.To.ID]
		bf, bt := g.boundary[m.From.ID], g.boundary[m.To.ID]
		for e := 0; e < m.From.Size; e++ {
			for _, t := range m.Targets(e) {
				if fo[e] != to[t] {
					bf[e] = true
					bt[t] = true
				}
			}
		}
	}
	return g
}

// scratch is one worker's reusable state. The per-element arrays are
// global-sized and reset after each rank through its L2G, so a rank's cost
// stays proportional to its local size.
type scratch struct {
	status [][]int8  // 0 unknown, 1 owned, 2 exec, 3 nonexec
	ilvl   [][]int32 // interior level of owned elements
	g2l    [][]int32 // global -> local index on the current rank, -1 if absent
	// execEls[s][d] / nonexecEls[s][d]: shell d+1 of set s in discovery
	// order.
	execEls, nonexecEls [][][]int32
	queue               []selem
	levels              []int32 // counting-sort buckets of interior levels
	keys, tmp           []uint64
	digits              []int32 // radix-sort buckets
}

func (g *graph) newScratch(maxChainLen int) *scratch {
	nsets := len(g.prog.Sets)
	sc := &scratch{
		status:     make([][]int8, nsets),
		ilvl:       make([][]int32, nsets),
		g2l:        make([][]int32, nsets),
		execEls:    make([][][]int32, nsets),
		nonexecEls: make([][][]int32, nsets),
		levels:     make([]int32, 2*maxChainLen+3),
		digits:     make([]int32, 1<<maxDigitBits),
	}
	for s, set := range g.prog.Sets {
		sc.status[s] = make([]int8, set.Size)
		sc.ilvl[s] = make([]int32, set.Size)
		sc.g2l[s] = make([]int32, set.Size)
		for i := range sc.g2l[s] {
			sc.g2l[s][i] = -1
		}
	}
	return sc
}

// buildRank constructs rank's layout.
func (g *graph) buildRank(sc *scratch, rank, depth, maxChainLen int) *Layout {
	prog := g.prog
	nsets := len(prog.Sets)
	status, ilvl := sc.status, sc.ilvl

	// Mark owned and seed the interior-level BFS from boundary elements.
	queue := sc.queue[:0]
	for s := 0; s < nsets; s++ {
		for _, e := range g.ownedBy[s][rank] {
			status[s][e] = 1
			if g.boundary[s][e] {
				ilvl[s][e] = 1
				queue = append(queue, selem{int32(s), e})
			}
		}
	}
	nboundary := len(queue)

	// Interior levels: union-graph BFS inward over owned elements.
	cap32 := int32(2*maxChainLen + 1)
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		next := ilvl[cur.set][cur.elem] + 1
		if next > cap32 {
			continue
		}
		for _, m := range g.mapsFrom[cur.set] {
			st, lv := status[m.To.ID], ilvl[m.To.ID]
			for _, t := range m.Targets(int(cur.elem)) {
				if st[t] == 1 && lv[t] == 0 {
					lv[t] = next
					queue = append(queue, selem{int32(m.To.ID), t})
				}
			}
		}
		for _, m := range g.mapsTo[cur.set] {
			st, lv := status[m.From.ID], ilvl[m.From.ID]
			for _, a := range g.rev[m.ID].sourcesOf(cur.elem) {
				if st[a] == 1 && lv[a] == 0 {
					lv[a] = next
					queue = append(queue, selem{int32(m.From.ID), a})
				}
			}
		}
	}
	for s := 0; s < nsets; s++ {
		for _, e := range g.ownedBy[s][rank] {
			if ilvl[s][e] == 0 {
				ilvl[s][e] = cap32 + 1
			}
		}
	}

	// Halo shells, grown outward from the boundary owned elements, which
	// still head the queue. Shell d+1's frontier is queue[lo:hi].
	execEls, nonexecEls := sc.execEls, sc.nonexecEls
	for s := 0; s < nsets; s++ {
		execEls[s] = resetShells(execEls[s], depth)
		nonexecEls[s] = resetShells(nonexecEls[s], depth)
	}
	queue = queue[:nboundary]
	nonexecFrom := func(cur selem, d int) {
		for _, m := range g.mapsFrom[cur.set] {
			st := int32(m.To.ID)
			for _, t := range m.Targets(int(cur.elem)) {
				if status[st][t] == 0 {
					status[st][t] = 3
					nonexecEls[st][d] = append(nonexecEls[st][d], t)
					queue = append(queue, selem{st, t})
				}
			}
		}
	}
	for d, lo, hi := 0, 0, nboundary; d < depth; d, lo, hi = d+1, hi, len(queue) {
		// Execute shell: foreign elements with a forward map entry into
		// the current closure (sources of frontier elements).
		for i := lo; i < hi; i++ {
			cur := queue[i]
			for _, m := range g.mapsTo[cur.set] {
				sf := int32(m.From.ID)
				for _, a := range g.rev[m.ID].sourcesOf(cur.elem) {
					if status[sf][a] == 0 {
						status[sf][a] = 2
						execEls[sf][d] = append(execEls[sf][d], a)
						queue = append(queue, selem{sf, a})
					}
				}
			}
		}
		// Non-execute shell: unseen targets of this shell's execute
		// elements (and of boundary owned elements for shell 1).
		for i, nexec := hi, len(queue); i < nexec; i++ {
			nonexecFrom(queue[i], d)
		}
		if d == 0 {
			for i := 0; i < nboundary; i++ {
				nonexecFrom(queue[i], d)
			}
		}
	}
	sc.queue = queue

	// Local numbering and per-set layouts.
	l := &Layout{
		Rank: rank, NParts: g.nparts, Depth: depth, MaxChainLen: maxChainLen,
		Sets: make([]*SetLayout, nsets),
		Maps: make([][]int32, len(prog.Maps)),
	}
	for s := range prog.Sets {
		l.Sets[s] = g.numberSet(sc, s, rank, depth, maxChainLen)
	}

	// Localized maps: rows for the executable region, -1 elsewhere.
	for mi, m := range prog.Maps {
		from := l.Sets[m.From.ID]
		g2l := sc.g2l[m.To.ID]
		vals := make([]int32, from.Total()*m.Arity)
		for loc, e := range from.L2G[:from.ExecEnd(depth)] {
			row := vals[loc*m.Arity : (loc+1)*m.Arity]
			for a, t := range m.Targets(int(e)) {
				row[a] = g2l[t]
			}
		}
		for i := from.ExecEnd(depth) * m.Arity; i < len(vals); i++ {
			vals[i] = -1
		}
		l.Maps[mi] = vals
	}

	// Reset scratch: every element the rank marked is in its L2G.
	for s, sl := range l.Sets {
		for _, e := range sl.L2G {
			status[s][e], ilvl[s][e], sc.g2l[s][e] = 0, 0, -1
		}
	}
	return l
}

// resetShells empties depth per-shell lists, keeping their storage.
func resetShells(shells [][]int32, depth int) [][]int32 {
	for len(shells) < depth {
		shells = append(shells, nil)
	}
	for d := range shells {
		shells[d] = shells[d][:0]
	}
	return shells[:depth]
}

// numberSet lays out set s on rank: owned elements by decreasing interior
// level then id, then execute and non-execute shells 1..depth, each by
// owner then id. It records the rank's local indices in sc.g2l and, for
// owned elements, in g.ownedLoc.
func (g *graph) numberSet(sc *scratch, s, rank, depth, maxChainLen int) *SetLayout {
	own := g.ownedBy[s][rank]
	execEls, nonexecEls := sc.execEls[s], sc.nonexecEls[s]
	total := len(own)
	for d := 0; d < depth; d++ {
		total += len(execEls[d]) + len(nonexecEls[d])
	}
	sl := &SetLayout{
		Set:           g.prog.Sets[s],
		NOwned:        len(own),
		L2G:           make([]int32, total),
		corePrefix:    make([]int32, maxChainLen),
		ExecStart:     make([]int32, depth+1),
		NonexecStart:  make([]int32, depth+1),
		ImportExec:    make([][]ImportRange, depth),
		ImportNonexec: make([][]ImportRange, depth),
		ExportExec:    make([][]ExportList, depth),
		ExportNonexec: make([][]ExportList, depth),
	}

	// Owned elements: own is in id order, so a stable counting sort by
	// decreasing level gives (level descending, id ascending).
	lv := sc.ilvl[s]
	at := sc.levels
	clear(at)
	for _, e := range own {
		at[lv[e]]++
	}
	n := int32(0)
	for v := len(at) - 1; v >= 0; v-- {
		at[v], n = n, n+at[v]
	}
	for _, e := range own {
		sl.L2G[at[lv[e]]] = e
		at[lv[e]]++
	}
	// at[v] is now the number of owned elements at level >= v, which is
	// the core prefix of the chain loop needing level 2(loop+1).
	for loop := range sl.corePrefix {
		sl.corePrefix[loop] = at[2*(loop+1)]
	}

	end := len(own)
	sl.ExecStart[0] = int32(end)
	for d := 0; d < depth; d++ {
		sl.ImportExec[d] = g.placeShell(sc, s, execEls[d], sl.L2G, end)
		end += len(execEls[d])
		sl.ExecStart[d+1] = int32(end)
	}
	sl.NonexecStart[0] = int32(end)
	for d := 0; d < depth; d++ {
		sl.ImportNonexec[d] = g.placeShell(sc, s, nonexecEls[d], sl.L2G, end)
		end += len(nonexecEls[d])
		sl.NonexecStart[d+1] = int32(end)
	}

	g2l, ownedLoc := sc.g2l[s], g.ownedLoc[s]
	for loc, e := range sl.L2G {
		g2l[e] = int32(loc)
	}
	for loc, e := range sl.L2G[:len(own)] {
		ownedLoc[e] = int32(loc)
	}

	// ExecOrder: the executable region's local indices by global index.
	execEnd := sl.ExecEnd(depth)
	keys := sc.keys[:0]
	for loc, e := range sl.L2G[:execEnd] {
		keys = append(keys, uint64(e)<<32|uint64(loc))
	}
	sc.radixSort(keys, g.keyBits[s])
	sl.ExecOrder = make([]int32, execEnd)
	for i, k := range keys {
		sl.ExecOrder[i] = int32(uint32(k))
	}
	sc.keys = keys
	return sl
}

// placeShell writes shell els into l2g[at:] ordered by (owner, id) and
// returns its owner-grouped import ranges (nil for an empty shell).
func (g *graph) placeShell(sc *scratch, s int, els, l2g []int32, at int) []ImportRange {
	keys := sc.keys[:0]
	for _, e := range els {
		keys = append(keys, uint64(g.pos[s][e])<<32)
	}
	sc.radixSort(keys, g.keyBits[s])
	sc.keys = keys
	var ranges []ImportRange
	for i, k := range keys {
		e := g.byOwner[s][k>>32]
		l2g[at+i] = e
		if r := g.owners[s][e]; len(ranges) == 0 || ranges[len(ranges)-1].Rank != r {
			ranges = append(ranges, ImportRange{Rank: r, Start: int32(at + i)})
		}
		ranges[len(ranges)-1].Count++
	}
	return ranges
}

// maxDigitBits caps the radix-sort digit width (4096 buckets, 16 KiB).
const maxDigitBits = 12

// radixSort sorts keys ascending by their high 32 bits, of which only the
// low keyBits may be set: a stable LSD radix sort whose digit width grows
// with len(keys), so each of its few passes costs O(len(keys)).
func (sc *scratch) radixSort(keys []uint64, keyBits int) {
	n := len(keys)
	if n < 2 {
		return
	}
	width := min(max(bits.Len(uint(n)), 4), maxDigitBits)
	if cap(sc.tmp) < n {
		sc.tmp = make([]uint64, n)
	}
	src, dst := keys, sc.tmp[:n]
	mask := uint64(1)<<width - 1
	count := sc.digits[:1<<width]
	for shift := 32; shift < 32+keyBits; shift += width {
		clear(count)
		for _, k := range src {
			count[k>>shift&mask]++
		}
		sum := int32(0)
		for i, c := range count {
			count[i], sum = sum, sum+c
		}
		for _, k := range src {
			b := k >> shift & mask
			dst[count[b]] = k
			count[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// fillExports derives each rank's export lists from every other rank's
// import ranges, preserving the importer's storage order. Importers are
// visited in ascending rank, so every export list comes out sorted by
// destination rank.
func (g *graph) fillExports(layouts []*Layout) {
	for _, l := range layouts {
		for s, sl := range l.Sets {
			for d := 0; d < l.Depth; d++ {
				for _, r := range sl.ImportExec[d] {
					src := layouts[r.Rank].Sets[s]
					src.ExportExec[d] = append(src.ExportExec[d], g.exportList(l, s, r))
				}
				for _, r := range sl.ImportNonexec[d] {
					src := layouts[r.Rank].Sets[s]
					src.ExportNonexec[d] = append(src.ExportNonexec[d], g.exportList(l, s, r))
				}
			}
		}
	}
}

// exportList is the owner-side view of import range r of l's set s.
func (g *graph) exportList(l *Layout, s int, r ImportRange) ExportList {
	sl := l.Sets[s]
	locals := make([]int32, r.Count)
	for i, e := range sl.L2G[r.Start : r.Start+r.Count] {
		if g.owners[s][e] != r.Rank {
			panic(fmt.Sprintf("halo: rank %d imports %s element %d from rank %d which does not own it",
				l.Rank, sl.Set.Name, e, r.Rank))
		}
		locals[i] = g.ownedLoc[s][e]
	}
	return ExportList{Rank: int32(l.Rank), Locals: locals}
}

// fillNeighbours lists, per rank, every rank it imports from or exports
// to, ascending.
func fillNeighbours(layouts []*Layout) {
	mark := make([]bool, len(layouts))
	for _, l := range layouts {
		for _, sl := range l.Sets {
			for d := 0; d < l.Depth; d++ {
				for _, r := range sl.ImportExec[d] {
					mark[r.Rank] = true
				}
				for _, r := range sl.ImportNonexec[d] {
					mark[r.Rank] = true
				}
				for _, e := range sl.ExportExec[d] {
					mark[e.Rank] = true
				}
				for _, e := range sl.ExportNonexec[d] {
					mark[e.Rank] = true
				}
			}
		}
		l.Neighbours = []int32{}
		for r, m := range mark {
			if m {
				l.Neighbours = append(l.Neighbours, int32(r))
				mark[r] = false
			}
		}
	}
}
