package main

import (
	"time"

	"bbc/internal/core"
	"bbc/internal/graph"
)

// kernelProfiles is how many profiles a traced run samples for its kernel
// timings; each contributes one timing per node.
const kernelProfiles = 300

// sampleOdometer draws n profiles uniformly from the whole search space
// (every node's strategy index drawn independently), not from the start
// of the odometer, whose first profiles all share one prefix.
func sampleOdometer(b *bench, ss *core.SearchSpace, n int) []core.Profile {
	out := make([]core.Profile, n)
	for i := range out {
		p := make(core.Profile, len(ss.PerNode))
		for u, set := range ss.PerNode {
			p[u] = set[b.rng.Intn(len(set))]
		}
		out[i] = p
	}
	return out
}

// kernelSamples are per-call kernel timings in nanoseconds.
type kernelSamples struct {
	build, improve, bfs, dijkstra []float64
}

// sample times the kernels the engines spend their time in, on the
// graphs the workload's own profiles realize, along the paths the engines
// run: an oracle rebuild through EvalScratch.OracleFor after another node's
// NoteRewire invalidated it, the stability query Oracle.HasImprovement at
// the node's current cost, and — per length model — one bit-parallel
// BFSBatchInto from every node but a deleted one, or one Dijkstra.
func (k *kernelSamples) sample(spec core.Spec, agg core.Aggregation, profiles []core.Profile) {
	n := spec.N()
	es := core.NewEvalScratch()
	var (
		bs   graph.BitScratch
		gs   graph.Scratch
		dist = make([]int64, n*n)
		srcs = make([]int, 0, n)
	)
	for _, p := range profiles {
		g := p.Realize(spec)
		es.Bind(spec, g, agg)
		for u := 0; u < n; u++ {
			es.NoteRewire((u + 1) % n)
			t0 := time.Now()
			o := es.OracleFor(u)
			k.build = append(k.build, float64(time.Since(t0).Nanoseconds()))
			cur := o.Evaluate(p[u])
			t0 = time.Now()
			o.HasImprovement(cur)
			k.improve = append(k.improve, float64(time.Since(t0).Nanoseconds()))

			if spec.UnitLengths() {
				srcs = srcs[:0]
				for v := 0; v < n && len(srcs) < graph.BatchWidth; v++ {
					if v != u {
						srcs = append(srcs, v)
					}
				}
				t0 = time.Now()
				g.BFSBatchInto(dist[:len(srcs)*n], srcs, graph.Options{Skip: u}, &bs)
				k.bfs = append(k.bfs, float64(time.Since(t0).Nanoseconds()))
			} else {
				t0 = time.Now()
				g.DijkstraInto(dist[:n], u, graph.Options{Skip: -1}, &gs)
				k.dijkstra = append(k.dijkstra, float64(time.Since(t0).Nanoseconds()))
			}
		}
	}
}

// report stores the kernel per-layer metrics (0 for a kernel not sampled).
func (k *kernelSamples) report(b *bench) {
	b.layers["core.oracle_build_ns_p50"] = median(k.build)
	b.layers["core.oracle_build_ns_p99"] = percentile(k.build, 0.99)
	b.layers["core.has_improvement_ns_p50"] = median(k.improve)
	b.layers["core.has_improvement_ns_p99"] = percentile(k.improve, 0.99)
	b.layers["graph.bfs_batch_ns_p50"] = median(k.bfs)
	b.layers["graph.dijkstra_ns_p50"] = median(k.dijkstra)
	say("kernels: %d oracle builds p50 %.0f ns, %d HasImprovement p50 %.0f ns, %d BFSBatchInto p50 %.0f ns, %d Dijkstra p50 %.0f ns",
		len(k.build), median(k.build), len(k.improve), median(k.improve), len(k.bfs), median(k.bfs), len(k.dijkstra), median(k.dijkstra))
}
