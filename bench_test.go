package op2ca

import (
	"testing"

	"op2ca/internal/bench"
	"op2ca/internal/halo"
	"op2ca/internal/hydra"
	"op2ca/internal/mesh"
	"op2ca/internal/mgcfd"
	"op2ca/internal/partition"
)

// benchConfig sizes the paper-experiment benchmarks for testing.B: small
// meshes, paper-shaped rank scaling. For full-scale reproductions run
// cmd/op2ca-bench.
func benchConfig() bench.Config {
	return bench.Config{Nodes8M: 8000, Nodes24M: 24000, RankScale: 0.004, Iters: 1, Parallel: true}
}

// Paper-experiment benchmarks: one per table and figure of the evaluation.

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table2(benchConfig())
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig10(benchConfig())
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig11(benchConfig())
	}
}

func BenchmarkTable3and4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table3and4(benchConfig())
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig12(benchConfig())
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig13(benchConfig())
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table5(benchConfig())
	}
}

// Component microbenchmarks.

func BenchmarkMeshRotor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mesh.RotorForNodes(20000)
	}
}

func BenchmarkPartitionKWay(b *testing.B) {
	m := mesh.RotorForNodes(20000)
	adj := m.NodeAdjacency()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition.KWay(adj, 16)
	}
}

func BenchmarkPartitionRIB(b *testing.B) {
	m := mesh.RotorForNodes(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition.RIB(m.Coords, 3, 16)
	}
}

func BenchmarkHaloBuildDepth1(b *testing.B) { benchHaloBuild(b, 1) }
func BenchmarkHaloBuildDepth2(b *testing.B) { benchHaloBuild(b, 2) }
func BenchmarkHaloBuildDepth4(b *testing.B) { benchHaloBuild(b, 4) }

func benchHaloBuild(b *testing.B, depth int) {
	m := mesh.RotorForNodes(20000)
	app := hydra.New(m)
	assign := partition.RIB(m.Coords, 3, 16)
	owners, err := halo.DeriveOwnership(app.Prog, app.Nodes, assign)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		halo.Build(app.Prog, owners, 16, depth, 6)
	}
}

func BenchmarkSeqParLoop(b *testing.B) {
	m := mesh.RotorForNodes(20000)
	h := mesh.NewHierarchy(m, 1, true)
	app := mgcfd.New(h)
	seq := NewSeq()
	app.Init(seq)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.Sweep(seq, app.Levels[0])
	}
}

func benchClusterIteration(b *testing.B, ca bool) {
	m := mesh.RotorForNodes(20000)
	h := mesh.NewHierarchy(m, 1, true)
	app := mgcfd.New(h)
	syn := mgcfd.NewSynthetic(app)
	cb, err := NewCluster(ClusterConfig{
		Prog: app.Prog, Primary: app.Primary,
		Assign: partition.KWay(m.NodeAdjacency(), 8), NParts: 8,
		Depth: 2, MaxChainLen: 8, CA: ca, Parallel: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	app.Init(cb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syn.Run(cb, 4, ca)
	}
}

func BenchmarkClusterChainOP2(b *testing.B) { benchClusterIteration(b, false) }
func BenchmarkClusterChainCA(b *testing.B)  { benchClusterIteration(b, true) }

// benchPlanCache measures the inspect-once/execute-many plan cache: the
// same CA chain executed many times over a small, rank-heavy decomposition
// where inspection and exchange-buffer churn dominate. With the cache on,
// steady-state executions skip ca.Inspect and reuse precomputed pack/unpack
// schedules and buffers, so allocs/op in the exchange path drop to ~zero.
func benchPlanCache(b *testing.B, noCache bool) {
	m := mesh.RotorForNodes(3000)
	h := mesh.NewHierarchy(m, 1, true)
	app := mgcfd.New(h)
	syn := mgcfd.NewSynthetic(app)
	cb, err := NewCluster(ClusterConfig{
		Prog: app.Prog, Primary: app.Primary,
		Assign: partition.KWay(m.NodeAdjacency(), 16), NParts: 16,
		Depth: 2, MaxChainLen: 8, CA: true, NoPlanCache: noCache,
	})
	if err != nil {
		b.Fatal(err)
	}
	app.Init(cb)
	// Warm: inspection and schedule builds on the first executions of the
	// measured chain, so the timed loop is the cached steady state.
	for j := 0; j < 3; j++ {
		syn.Run(cb, 1, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// 10 chained executions per op: the steady state the cache targets.
		for j := 0; j < 10; j++ {
			syn.Run(cb, 1, true)
		}
	}
}

func BenchmarkChainExecCached(b *testing.B)   { benchPlanCache(b, false) }
func BenchmarkChainExecUncached(b *testing.B) { benchPlanCache(b, true) }

// BenchmarkChainExecParallel measures wall-clock scaling of the persistent
// worker-pool rank executor: the same cached-plan CA chain workload as
// BenchmarkChainExecCached, but compute-sized and built with Parallel on,
// so `-cpu 1,4,8` sweeps the pool width (the backend sizes its pool from
// GOMAXPROCS at construction, which -cpu sets per variant). The -cpu 1
// variant dispatches serially; the ratio of its ns/op to a wider variant's
// is the host-parallel speedup CI gates on.
func BenchmarkChainExecParallel(b *testing.B) {
	m := mesh.RotorForNodes(20000)
	h := mesh.NewHierarchy(m, 1, true)
	app := mgcfd.New(h)
	syn := mgcfd.NewSynthetic(app)
	cb, err := NewCluster(ClusterConfig{
		Prog: app.Prog, Primary: app.Primary,
		Assign: partition.KWay(m.NodeAdjacency(), 16), NParts: 16,
		Depth: 2, MaxChainLen: 8, CA: true, Parallel: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cb.Close()
	app.Init(cb)
	syn.Run(cb, 4, true) // warm: inspection + schedule build on first executions
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syn.Run(cb, 4, true)
	}
}

func BenchmarkHydraIterationCA(b *testing.B) {
	m := mesh.RotorForNodes(20000)
	app := hydra.New(m)
	cb, err := NewCluster(ClusterConfig{
		Prog: app.Prog, Primary: app.Nodes,
		Assign: partition.RIB(m.Coords, 3, 8), NParts: 8,
		Depth: 2, MaxChainLen: 6, CA: true,
		Chains: hydra.MustPaperConfig(), Parallel: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	app.RunSetup(cb, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.RunIteration(cb, true)
	}
}
