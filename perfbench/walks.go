package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"time"

	"bbc/internal/core"
	"bbc/internal/dynamics"
	"bbc/internal/obs"
)

// br-walks inputs: a pool of seeded walks, cycled when a run outlasts it.
const (
	walkPool      = 32
	walkUnitN     = 40
	walkUnitK     = 2
	walkWeightedN = 28
	walkSteps     = 240 // step budget of every walk
	// walkChunk is about how much walking runs between two reference
	// samples.
	walkChunk = 300 * time.Millisecond
)

// walkInput is one walk to run: its game and its start profile.
type walkInput struct {
	spec     core.Spec
	start    core.Profile
	weighted bool
}

// walkInputs draws the walk pool from the seed: uniform (n=40, k=2) games
// from a random maximal start, and dense games with weights 0..3, costs
// and lengths 1..3 and budgets 1..4 from the empty profile.
func walkInputs(seed int64) ([]walkInput, error) {
	rng := rand.New(rand.NewSource(seed))
	unit := core.MustUniform(walkUnitN, walkUnitK)
	out := make([]walkInput, 0, 2*walkPool)
	for i := 0; i < walkPool; i++ {
		out = append(out, walkInput{spec: unit, start: dynamics.RandomStart(rng, walkUnitN, walkUnitK)})
		d, err := core.GenerateDense(rng, core.GenerateParams{
			N: walkWeightedN, MaxWeight: 3, EnsureSupport: true, MaxCost: 3, MaxLength: 3, MaxBudget: 4,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, walkInput{spec: d, start: core.NewEmptyProfile(walkWeightedN), weighted: true})
	}
	return out, nil
}

// walkHalf accumulates one half of the workload.
type walkHalf struct {
	steps, moves int
	wall         time.Duration // as measured
	pending      time.Duration // wall time of the current chunk
	chunks       []interval    // wall time per chunk
	scaled       float64       // ms, scaled to the nominal host speed
	walks        int
}

// msPer1000 is the scaled wall time per 1,000 steps.
func (h *walkHalf) msPer1000() float64 { return ratio(h.scaled*1000, float64(h.steps)) }

// endChunk closes the chunk of walking that ran from t0 to now in every
// half and takes a reference sample.
func endChunk(b *bench, t0 time.Time, halves ...*walkHalf) {
	t1 := time.Now()
	for _, h := range halves {
		if h.pending > 0 {
			h.chunks = append(h.chunks, interval{t0, t1, ms(h.pending)})
			h.pending = 0
		}
	}
	b.clock.sample()
}

// runBRWalks is the br-walks workload: round-robin exact best-response
// walks (dynamics.Run) with a fixed step budget, alternating a
// unit-length walk (primary_ms: wall time per 1,000 steps, scaled to the
// nominal host speed as calib.go describes) and a weighted one
// (secondary_ms), so oracle rebuilds and BestExact dominate — batch
// BFS on the first half, Dijkstra on the second. Every converged walk's
// final profile must pass core.IsEquilibrium; a digest of every walk's
// (steps, moves, final profile) is printed for cross-run comparison, and a
// walk repeating an earlier input must repeat its outcome.
func runBRWalks(b *bench) error {
	var inputs []walkInput
	if err := b.timeSetup(false, func() (func(), error) {
		var err error
		inputs, err = walkInputs(b.seed)
		return func() {}, err
	}); err != nil {
		return err
	}

	var (
		halves   [2]walkHalf // [unit, weighted]
		traced   [2]walkHalf // traced runs: the spanned walks, for the overhead ratio
		digest   = fnv.New64a()
		seen     = make([]string, len(inputs)) // each input's first outcome
		finals   []walkInput                   // traced runs: each walk's game with its final profile as start, for the kernel samples
		before   = b.reg.Snapshot()
		i        int
		walkTime time.Duration
		all      = []*walkHalf{&halves[0], &halves[1], &traced[0], &traced[1]}
	)
	t0 := time.Now()
	chunk0 := t0
	for ; ; i++ {
		k := i % len(inputs)
		// Runs stop only between whole passes of the pool, so every run
		// walks the same mix of inputs however fast the build is; traced
		// runs stop after an even number of passes.
		if k == 0 && i > 0 && !b.until(t0) && (!b.traced || (i/len(inputs))%2 == 0) {
			break
		}
		in := inputs[k]
		// Traced runs span every other pass, so the spanned and unspanned
		// walks cover the same inputs.
		tr := b.tr
		if (i/len(inputs))%2 == 1 {
			tr = nil
		}
		op := b.ops.attempted
		root := tr.start("br-walk", "bench", op, -1)
		sp := tr.start("dynamics.Run", "dynamics", op, root)
		w0 := time.Now()
		res, err := dynamics.Run(in.spec, in.start, dynamics.NewRoundRobin(in.spec.N()), core.SumDistances,
			dynamics.Options{MaxSteps: walkSteps})
		wall := time.Since(w0)
		tr.end(sp)
		tr.end(root)
		if err != nil {
			b.ops.fail()
			return fmt.Errorf("walk %d: %w", i, err)
		}
		b.ops.ok()
		walkTime += wall
		h := &halves[0]
		if in.weighted {
			h = &halves[1]
		}
		if b.traced && tr != nil {
			h = &traced[0]
			if in.weighted {
				h = &traced[1]
			}
		}
		h.steps += res.Steps
		h.moves += res.Moves
		h.wall += wall
		h.pending += wall
		h.walks++
		// Walks are deterministic: a repeated input must repeat its outcome.
		outcome := fmt.Sprintf("%d:%d:%s;", res.Steps, res.Moves, res.Final.Key())
		if seen[k] == "" {
			seen[k] = outcome
			digest.Write([]byte(outcome))
		} else {
			b.check(seen[k] == outcome, "walk %d repeated input %d with a different outcome", i, k)
		}
		if res.Converged {
			ok, err := core.IsEquilibrium(in.spec, res.Final, core.SumDistances)
			b.check(err == nil && ok, "walk %d converged to a profile that is not a pure NE (err %v)", i, err)
		}
		if b.traced && len(finals) < kernelProfiles/10 {
			finals = append(finals, walkInput{spec: in.spec, start: res.Final})
		}
		if time.Since(chunk0) >= walkChunk {
			endChunk(b, chunk0, all...)
			chunk0 = time.Now()
		}
	}
	endChunk(b, chunk0, all...)
	for _, h := range all {
		for _, x := range b.clock.scaled(h.chunks) {
			h.scaled += x
		}
	}
	// Counters cover every timed walk, and none of the probe walks or
	// kernel samples below.
	after := b.reg.Snapshot()
	// Untimed probe walks, one of each kind, sample the live heap at every
	// move, while the walk's oracles and scratch are alive.
	for _, in := range inputs[:2] {
		_, err := dynamics.Run(in.spec, in.start, dynamics.NewRoundRobin(in.spec.N()), core.SumDistances,
			dynamics.Options{MaxSteps: walkSteps, Journal: obs.NewJournal(heapProbeWriter{b, io.Discard}, nil)})
		if err != nil {
			return fmt.Errorf("probe walk: %w", err)
		}
	}
	unit, weighted := halves[0], halves[1]
	b.e2e[mPrimary] = unit.msPer1000()
	b.e2e[mSecondary] = weighted.msPer1000()
	say("e2e walk_steps_per_s=%.1f (%d steps, %d walks) walk_weighted_steps_per_s=%.1f (%d steps, %d walks)",
		1e6/unit.msPer1000(), unit.steps, unit.walks, 1e6/weighted.msPer1000(), weighted.steps, weighted.walks)
	say("raw wall ms per 1,000 steps: unit %.3f, weighted %.3f", ratio(ms(unit.wall)*1000, float64(unit.steps)), ratio(ms(weighted.wall)*1000, float64(weighted.steps)))
	say("walked %d whole passes of the %d-walk pool", i/len(inputs), len(inputs))
	say("walk digest %016x over the %d walks of the pool (steps, moves, final profile key)", digest.Sum64(), len(inputs))
	if !b.traced {
		return nil
	}

	steps := traced[0].steps + traced[1].steps + unit.steps + weighted.steps
	d := obs.Diff(before, after)
	perWalk := func(name string) float64 { return float64(d[name]) / float64(i) }
	b.layers["graph.bfs_batch_calls"] = perWalk("graph.bfs_batch")
	b.layers["graph.bfs_batch_waves"] = perWalk("bfs.batch_waves")
	b.layers["graph.bfs_batch_sources"] = perWalk("bfs.batch_sources")
	b.layers["graph.dijkstra_calls"] = perWalk("graph.dijkstra")
	b.layers["core.oracle_builds"] = perWalk("oracle.builds")
	b.layers["core.oracle_cache_hit_ratio"] = ratio(float64(d["oracle.cache_hits"]), float64(d["oracle.cache_hits"]+d["oracle.builds"]))
	b.layers["core.stability_checks"] = perWalk("core.stability_checks")
	b.layers["dynamics.steps"] = perWalk("dynamics.steps")
	b.layers["dynamics.move_ratio"] = ratio(float64(d["dynamics.moves"]), float64(d["dynamics.steps"]))
	b.layers["dynamics.step_ns"] = ratio(float64(walkTime.Nanoseconds()), float64(steps))
	b.layers["core.best_exact_leaves_per_step"] = ratio(float64(d["oracle.best_exact_leaves"]), float64(d["dynamics.steps"]))
	b.layers["trace_overhead_ratio"] = ratio(traced[0].msPer1000(), unit.msPer1000()) - 1
	var k kernelSamples
	for _, f := range finals {
		k.sample(f.spec, core.SumDistances, []core.Profile{f.start})
	}
	k.report(b)
	return nil
}
