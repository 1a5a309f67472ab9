package cluster

import (
	"fmt"
	"strings"
	"testing"

	"op2ca/internal/core"
	"op2ca/internal/mesh"
	"op2ca/internal/partition"
)

// failureFixture builds a 2-rank backend with a node dat whose halo is
// dirty, ready for exchange-layer fault injection.
func failureFixture(t *testing.T) (*Backend, []exchangeSpec) {
	t.Helper()
	m := mesh.Rotor(6, 5, 4)
	p := core.NewProgram()
	nodes := p.DeclSet(m.NNodes, "nodes")
	edges := p.DeclSet(m.NEdges, "edges")
	e2n := p.DeclMap(edges, nodes, 2, m.EdgeNodes, "e2n")
	x := p.DeclDat(nodes, 1, nil, "x")
	b, err := New(Config{Prog: p, Primary: nodes,
		Assign: partition.Block(m.NNodes, 2), NParts: 2, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	_ = e2n
	specs := []exchangeSpec{{dat: x, execDepth: 1, nonexecDepth: 1}}
	return b, specs
}

// expectExchangeError runs f expecting a panic carrying a typed
// *ExchangeError of the given kind, and hands the error to check for
// field-level assertions.
func expectExchangeError(t *testing.T, kind ExchangeErrorKind, f func(), check func(*ExchangeError)) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic with *ExchangeError kind %v", kind)
		}
		e, ok := r.(*ExchangeError)
		if !ok {
			t.Fatalf("panic value %v (%T) is not a *ExchangeError", r, r)
		}
		if e.Kind != kind {
			t.Fatalf("ExchangeError kind = %v, want %v (error: %v)", e.Kind, kind, e)
		}
		if e.Error() == "" || !strings.HasPrefix(e.Error(), "cluster:") {
			t.Errorf("ExchangeError message %q should carry the cluster: prefix", e.Error())
		}
		if check != nil {
			check(e)
		}
	}()
	f()
}

// TestTruncatedGroupedMessage: a grouped message shorter than the
// importer's layout implies must be detected, not silently mis-unpacked.
func TestTruncatedGroupedMessage(t *testing.T) {
	b, specs := failureFixture(t)
	res := b.doExchange(specs, true)
	if len(res.bufs) == 0 {
		t.Fatal("fixture produced no messages")
	}
	buf := res.bufs[0]
	truncated := &sendBuf{from: buf.from, to: buf.to, datID: -1,
		vals: buf.vals[:len(buf.vals)-1]}
	expectExchangeError(t, ErrTruncated, func() {
		b.unpackGrouped(int(truncated.to), specs, []*sendBuf{truncated})
	}, func(e *ExchangeError) {
		if e.Rank != int(buf.to) || e.From != buf.from {
			t.Errorf("rank pair = (%d <- %d), want (%d <- %d)", e.Rank, e.From, buf.to, buf.from)
		}
		if e.Got >= e.Want {
			t.Errorf("truncation got %d >= want %d", e.Got, e.Want)
		}
	})
}

// TestOversizedGroupedMessage: trailing bytes mean sender and receiver
// disagree about the halo layout.
func TestOversizedGroupedMessage(t *testing.T) {
	b, specs := failureFixture(t)
	res := b.doExchange(specs, true)
	buf := res.bufs[0]
	oversized := &sendBuf{from: buf.from, to: buf.to, datID: -1,
		vals: append(append([]float64(nil), buf.vals...), 1.0)}
	expectExchangeError(t, ErrTrailing, func() {
		b.unpackGrouped(int(oversized.to), specs, []*sendBuf{oversized})
	}, func(e *ExchangeError) {
		if e.Got != 1 {
			t.Errorf("trailing values = %d, want 1", e.Got)
		}
	})
}

// TestMissingGroupedMessage: an expected neighbour that never sends.
func TestMissingGroupedMessage(t *testing.T) {
	b, specs := failureFixture(t)
	res := b.doExchange(specs, true)
	to := int(res.bufs[0].to)
	expectExchangeError(t, ErrMissing, func() {
		b.unpackGrouped(to, specs, nil)
	}, func(e *ExchangeError) {
		if e.Rank != to {
			t.Errorf("detecting rank = %d, want %d", e.Rank, to)
		}
	})
}

// TestWrongSizeSingleMessage: a per-dat message whose payload does not
// match the import range.
func TestWrongSizeSingleMessage(t *testing.T) {
	b, specs := failureFixture(t)
	res := b.doExchange(specs, false)
	if len(res.bufs) == 0 {
		t.Fatal("fixture produced no messages")
	}
	var target *sendBuf
	for _, buf := range res.bufs {
		if len(buf.vals) > 1 {
			target = buf
			break
		}
	}
	if target == nil {
		t.Skip("no multi-value message to corrupt")
	}
	bad := &sendBuf{from: target.from, to: target.to, datID: target.datID,
		kind: target.kind, depth: target.depth, vals: target.vals[:len(target.vals)-1]}
	expectExchangeError(t, ErrSizeMismatch, func() {
		b.unpackSingle(int(bad.to), bad)
	}, func(e *ExchangeError) {
		if e.Dat != "x" {
			t.Errorf("dat = %q, want x", e.Dat)
		}
		if e.Got != e.Want-1 {
			t.Errorf("got %d values, want field says %d", e.Got, e.Want)
		}
	})
}

// TestForeignSingleMessage: a message from a rank the receiver does not
// import from.
func TestForeignSingleMessage(t *testing.T) {
	b, specs := failureFixture(t)
	res := b.doExchange(specs, false)
	buf := res.bufs[0]
	foreign := &sendBuf{from: buf.to, to: buf.to, datID: buf.datID,
		kind: buf.kind, depth: buf.depth, vals: buf.vals}
	expectExchangeError(t, ErrUnexpected, func() {
		b.unpackSingle(int(foreign.to), foreign)
	}, func(e *ExchangeError) {
		if e.From != buf.to {
			t.Errorf("offending sender = %d, want %d", e.From, buf.to)
		}
	})
}

// TestBeyondHaloDereferencePanics: executing an iteration whose map row
// reaches beyond the built halo must panic with a diagnostic rather than
// corrupt memory. Localized map rows of non-execute halo elements are all
// -1, so a node loop through a node-to-node map forced into the nodes'
// non-execute region dereferences beyond the halo at its first element.
func TestBeyondHaloDereferencePanics(t *testing.T) {
	m := mesh.Rotor(6, 5, 4)
	p := core.NewProgram()
	nodes := p.DeclSet(m.NNodes, "nodes")
	edges := p.DeclSet(m.NEdges, "edges")
	p.DeclMap(edges, nodes, 2, m.EdgeNodes, "e2n")
	self := make([]int32, m.NNodes)
	for i := range self {
		self[i] = int32(i)
	}
	n2n := p.DeclMap(nodes, nodes, 1, self, "n2n")
	x := p.DeclDat(nodes, 1, nil, "x")
	b, err := New(Config{Prog: p, Primary: nodes,
		Assign: partition.Random(m.NNodes, 3, 5), NParts: 3, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	k := &core.Kernel{Name: "k", Fn: func(a [][]float64) {}}
	l := core.NewLoop(k, nodes, core.ArgDatDirect(x, core.Read), core.ArgDat(x, 0, n2n, core.Read))
	for r := 0; r < 3; r++ {
		sl := b.layouts[r].SetL(nodes)
		if sl.NNonexec(1) == 0 {
			continue
		}
		defer func() {
			rec := recover()
			if rec == nil {
				t.Fatal("expected panic for beyond-halo dereference")
			}
			want := fmt.Sprintf("cluster: rank %d loop \"k\" iteration %d dereferences element beyond halo depth (map n2n slot 0)",
				r, sl.NonexecStart[0])
			if msg, ok := rec.(string); !ok || msg != want {
				t.Fatalf("panic %v, want %q", rec, want)
			}
		}()
		b.runLoopOnRank(0, r, l, int(sl.NonexecStart[0]), int(sl.NonexecStart[1]), nil)
		return
	}
	t.Fatal("no rank with non-execute nodes in this partition")
}
