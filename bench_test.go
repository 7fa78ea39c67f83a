package bbc

// One benchmark per reproduction experiment (E1–E23, see DESIGN.md), plus
// micro-benchmarks for the engine's hot paths. The experiment benches run
// the same code as cmd/bbcexp in quick mode and additionally report
// domain metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every figure/theorem measurement in one sweep.

import (
	"math/rand"
	"os"
	"testing"

	"bbc/internal/analysis"
	"bbc/internal/construct"
	"bbc/internal/core"
	"bbc/internal/dynamics"
	"bbc/internal/exper"
	"bbc/internal/graph"
	"bbc/internal/group"
	"bbc/internal/obs"
)

// benchRegistry installs a fresh obs registry for the benchmark so work
// counters (profiles, oracle evals, BFS traversals) can be reported per
// op alongside ns/op. Set BBC_BENCH_OBS=off to benchmark the
// uninstrumented nil-registry baseline instead.
func benchRegistry(b *testing.B) *obs.Registry {
	b.Helper()
	if os.Getenv("BBC_BENCH_OBS") == "off" {
		return nil
	}
	reg := obs.NewRegistry()
	prev := obs.SetGlobal(reg)
	b.Cleanup(func() { obs.SetGlobal(prev) })
	return reg
}

// benchObsMetrics is the metric set exported into benchmark output (and
// hence BENCH_*.json): work done per op, not just time per op.
var benchObsMetrics = []struct {
	m    obs.Metric
	name string
}{
	{obs.MProfilesChecked, "profiles/op"},
	{obs.MOracleBuild, "oracle-builds/op"},
	{obs.MOracleEval, "oracle-evals/op"},
	{obs.MBestExactLeaves, "exact-leaves/op"},
	{obs.MBFS, "bfs/op"},
	{obs.MDeviationChecks, "dev-checks/op"},
	{obs.MWalkSteps, "steps/op"},
}

// reportObsMetrics emits the nonzero registry counters scaled per op.
func reportObsMetrics(b *testing.B, reg *obs.Registry) {
	b.Helper()
	for _, mm := range benchObsMetrics {
		if v := reg.Get(mm.m); v > 0 {
			b.ReportMetric(float64(v)/float64(b.N), mm.name)
		}
	}
}

// benchExperiment runs one experiment per iteration and fails the bench if
// its reproduction criteria do not hold.
func benchExperiment(b *testing.B, run func(exper.Config) *exper.Report) {
	b.Helper()
	reg := benchRegistry(b)
	for i := 0; i < b.N; i++ {
		r := run(exper.Config{Quick: true})
		if !r.Pass {
			b.Fatalf("experiment %s failed:\n%s", r.ID, r)
		}
	}
	reportObsMetrics(b, reg)
}

func BenchmarkE1GadgetNoNE(b *testing.B)            { benchExperiment(b, exper.E1) }
func BenchmarkE2Reduction(b *testing.B)             { benchExperiment(b, exper.E2) }
func BenchmarkE3FractionalEquilibrium(b *testing.B) { benchExperiment(b, exper.E3) }
func BenchmarkE4Willows(b *testing.B)               { benchExperiment(b, exper.E4) }
func BenchmarkE5Fairness(b *testing.B)              { benchExperiment(b, exper.E5) }
func BenchmarkE6Diameter(b *testing.B)              { benchExperiment(b, exper.E6) }
func BenchmarkE7PoA(b *testing.B)                   { benchExperiment(b, exper.E7) }
func BenchmarkE8Cayley(b *testing.B)                { benchExperiment(b, exper.E8) }
func BenchmarkE9DenseCayley(b *testing.B)           { benchExperiment(b, exper.E9) }
func BenchmarkE10Connectivity(b *testing.B)         { benchExperiment(b, exper.E10) }
func BenchmarkE11RingPath(b *testing.B)             { benchExperiment(b, exper.E11) }
func BenchmarkE12Loop(b *testing.B)                 { benchExperiment(b, exper.E12) }
func BenchmarkE13MaxCostWalk(b *testing.B)          { benchExperiment(b, exper.E13) }
func BenchmarkE14MaxGadget(b *testing.B)            { benchExperiment(b, exper.E14) }
func BenchmarkE15MaxPoA(b *testing.B)               { benchExperiment(b, exper.E15) }
func BenchmarkE16MaxPoS(b *testing.B)               { benchExperiment(b, exper.E16) }
func BenchmarkE17BudgetConjecture(b *testing.B)     { benchExperiment(b, exper.E17) }
func BenchmarkE18BRGraphStructure(b *testing.B)     { benchExperiment(b, exper.E18) }
func BenchmarkE19SolverAblation(b *testing.B)       { benchExperiment(b, exper.E19) }
func BenchmarkE20GadgetRobustness(b *testing.B)     { benchExperiment(b, exper.E20) }
func BenchmarkE21Synchronous(b *testing.B)          { benchExperiment(b, exper.E21) }
func BenchmarkE22WillowsPadding(b *testing.B)       { benchExperiment(b, exper.E22) }
func BenchmarkE23OverlayPressure(b *testing.B)      { benchExperiment(b, exper.E23) }

// --- engine micro-benchmarks and ablations ---

// BenchmarkOracleBuild measures the cost of precomputing the candidate
// distance rows (n−1 BFS traversals with the node deleted).
func BenchmarkOracleBuild(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		b.Run(sizeName(n), func(b *testing.B) {
			spec := core.MustUniform(n, 2)
			p := dynamics.RandomStart(rand.New(rand.NewSource(1)), n, 2)
			g := p.Realize(spec)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.NewOracle(spec, g, i%n, core.SumDistances)
			}
		})
	}
}

// BenchmarkBestResponse compares the exact, greedy and swap oracles — the
// ablation DESIGN.md calls out for the best-response solver choice.
func BenchmarkBestResponse(b *testing.B) {
	const n, k = 64, 2
	spec := core.MustUniform(n, k)
	p := dynamics.RandomStart(rand.New(rand.NewSource(2)), n, k)
	g := p.Realize(spec)
	oracles := make([]*core.Oracle, n)
	for u := 0; u < n; u++ {
		oracles[u] = core.NewOracle(spec, g, u, core.SumDistances)
	}
	b.Run("exact", func(b *testing.B) {
		reg := benchRegistry(b)
		for i := 0; i < b.N; i++ {
			if _, _, err := oracles[i%n].BestExact(0); err != nil {
				b.Fatal(err)
			}
		}
		reportObsMetrics(b, reg)
	})
	b.Run("greedy", func(b *testing.B) {
		reg := benchRegistry(b)
		for i := 0; i < b.N; i++ {
			oracles[i%n].BestGreedy()
		}
		reportObsMetrics(b, reg)
	})
	b.Run("greedy-swap", func(b *testing.B) {
		reg := benchRegistry(b)
		for i := 0; i < b.N; i++ {
			s, _ := oracles[i%n].BestGreedy()
			oracles[i%n].ImproveBySwaps(s, 50)
		}
		reportObsMetrics(b, reg)
	})
}

// BenchmarkGreedyOptimalityGap reports how far greedy lands from the exact
// best response (quality ablation; the gap is reported as a metric rather
// than time).
func BenchmarkGreedyOptimalityGap(b *testing.B) {
	const n, k = 48, 3
	spec := core.MustUniform(n, k)
	rng := rand.New(rand.NewSource(3))
	var worst float64 = 1
	for i := 0; i < b.N; i++ {
		p := dynamics.RandomStart(rng, n, k)
		g := p.Realize(spec)
		u := rng.Intn(n)
		o := core.NewOracle(spec, g, u, core.SumDistances)
		_, exact, err := o.BestExact(0)
		if err != nil {
			b.Fatal(err)
		}
		_, greedy := o.BestGreedy()
		if ratio := float64(greedy) / float64(exact); ratio > worst {
			worst = ratio
		}
	}
	b.ReportMetric(worst, "worst-greedy/exact")
}

// BenchmarkStabilityCheck measures the full-profile equilibrium check on
// Willows instances (the workhorse of E4/E15/E16).
func BenchmarkStabilityCheck(b *testing.B) {
	for _, p := range []construct.WillowsParams{{K: 2, H: 2, L: 1}, {K: 2, H: 3, L: 0}} {
		w, err := construct.NewWillows(p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName(p.N()), func(b *testing.B) {
			reg := benchRegistry(b)
			defer func() { reportObsMetrics(b, reg) }()
			for i := 0; i < b.N; i++ {
				dev, err := core.FindDeviation(w.Spec, w.Profile, core.SumDistances, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if dev != nil {
					b.Fatal("willows must be stable")
				}
			}
		})
	}
}

// BenchmarkDynamicsRound measures one full round-robin round of exact best
// responses from a random start.
func BenchmarkDynamicsRound(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(sizeName(n), func(b *testing.B) {
			spec := core.MustUniform(n, 2)
			rng := rand.New(rand.NewSource(4))
			reg := benchRegistry(b)
			defer func() { reportObsMetrics(b, reg) }()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				start := dynamics.RandomStart(rng, n, 2)
				b.StartTimer()
				if _, err := dynamics.Run(spec, start, dynamics.NewRoundRobin(n),
					core.SumDistances, dynamics.Options{MaxSteps: n}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTheorem1Scan measures the serial exhaustive no-NE scan of the
// Theorem 1 gadget — the workload tracked by the BENCH_*.json perf
// trajectory (scripts/bench.sh). A full scan covers 7,529,536 pinned
// profiles; each benchmark iteration scans a fixed 50,000-profile slice so
// profiles/sec and allocs/profile extrapolate to the full run.
func BenchmarkTheorem1Scan(b *testing.B) {
	benchTheorem1Slice(b, core.EnumConfig{})
}

// BenchmarkTheorem1ScanScalar is the same slice with the bit-parallel
// multi-source BFS disabled — the ablation isolating the batch rebuild's
// contribution to the trajectory.
func BenchmarkTheorem1ScanScalar(b *testing.B) {
	benchTheorem1Slice(b, core.EnumConfig{DisableBatchBFS: true})
}

// BenchmarkTheorem1ScanQuotient layers the symmetry quotient (the
// gadget's automorphism group) on top of the batch path. Skipped orbit
// states still count as Checked, so the slice covers the same 50,000
// states — the win shows up as fewer oracle builds per op.
func BenchmarkTheorem1ScanQuotient(b *testing.B) {
	d := construct.MatchingPennies(construct.DefaultGadgetWeights())
	ss, err := core.PinnedSpace(d, 0)
	if err != nil {
		b.Fatal(err)
	}
	gens, err := core.SpecAutomorphisms(d, 512)
	if err != nil {
		b.Fatal(err)
	}
	q, err := core.NewQuotient(d, ss, gens)
	if err != nil {
		b.Fatal(err)
	}
	benchTheorem1Slice(b, core.EnumConfig{Quotient: q})
}

// benchTheorem1Slice scans 50,000-profile slices of the pinned gadget
// space, each resumed from a checkpoint at one of 8 evenly spaced odometer
// indices, so the slices sample the whole space rather than its start
// (where almost every state is canonical and the quotient skips little).
// The gadget has no equilibrium, so a checkpoint is just a cursor and the
// count of profiles before it.
func benchTheorem1Slice(b *testing.B, cfg core.EnumConfig) {
	b.Helper()
	const sliceProfiles = 50000
	d := construct.MatchingPennies(construct.DefaultGadgetWeights())
	ss, err := core.PinnedSpace(d, 0)
	if err != nil {
		b.Fatal(err)
	}
	starts := make([]*core.EnumCheckpoint, 8)
	for k := range starts {
		at := ss.Size() / uint64(len(starts)) * uint64(k)
		cp := &core.EnumCheckpoint{Cursor: make([]int, len(ss.PerNode)), Checked: at}
		for u := len(ss.PerNode) - 1; u >= 0; u-- {
			r := uint64(len(ss.PerNode[u]))
			cp.Cursor[u], at = int(at%r), at/r
		}
		starts[k] = cp
	}
	reg := benchRegistry(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := cfg
		cfg.Resume = starts[i%len(starts)]
		cfg.MaxProfiles = cfg.Resume.Checked + sliceProfiles
		res, err := core.EnumeratePureNEOpts(d, core.SumDistances, ss, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Checked != cfg.MaxProfiles || len(res.Equilibria) != 0 {
			b.Fatalf("scan slice from %d: checked %d profiles, %d equilibria", cfg.Resume.Checked, res.Checked, len(res.Equilibria))
		}
	}
	b.ReportMetric(float64(sliceProfiles)*float64(b.N)/b.Elapsed().Seconds(), "profiles/sec")
	reportObsMetrics(b, reg)
}

// BenchmarkBFSBatch compares one 64-source bit-parallel BFS against 64
// scalar traversals of the same random unit-length digraph — the raw
// speedup the oracle rebuild inherits on unit-length games.
func BenchmarkBFSBatch(b *testing.B) {
	const n = 256
	rng := rand.New(rand.NewSource(11))
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for d := 0; d < 3; d++ {
			v := rng.Intn(n)
			if v != u {
				g.AddArc(u, v, 1)
			}
		}
	}
	srcs := make([]int, graph.BatchWidth)
	for i := range srcs {
		srcs[i] = i
	}
	dist := make([]int64, graph.BatchWidth*n)
	b.Run("batch64", func(b *testing.B) {
		var bs graph.BitScratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.BFSBatchInto(dist, srcs, graph.Options{Skip: -1}, &bs)
		}
	})
	b.Run("scalar64", func(b *testing.B) {
		var gs graph.Scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, s := range srcs {
				g.BFSInto(dist[j*n:(j+1)*n], s, graph.Options{Skip: -1}, &gs)
			}
		}
	})
}

// BenchmarkCayleyCheck measures the vertex-transitive stability check that
// powers the Theorem 5 sweeps.
func BenchmarkCayleyCheck(b *testing.B) {
	ab := group.MustCyclic(30)
	for i := 0; i < b.N; i++ {
		if _, _, err := analysis.CayleyStable(ab, []int{1, 6}, core.SumDistances, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSocialCost measures whole-profile cost evaluation.
func BenchmarkSocialCost(b *testing.B) {
	w, err := construct.NewWillows(construct.WillowsParams{K: 2, H: 3, L: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SocialCost(w.Spec, w.Profile, core.SumDistances)
	}
}

func sizeName(n int) string {
	switch {
	case n < 10:
		return "n=00" + string(rune('0'+n))
	case n < 100:
		return "n=0" + itoa(n)
	default:
		return "n=" + itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
