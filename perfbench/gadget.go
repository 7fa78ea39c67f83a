package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bbc/internal/construct"
	"bbc/internal/core"
	"bbc/internal/obs"
	"bbc/internal/runctl"
)

// gadgetChecked is the size of the pinned Theorem 1 gadget space: the
// paper's "no pure NE in 7,529,536 pinned profiles" verdict.
const gadgetChecked = 7_529_536

// gadgetSetup is everything a pinned gadget scan needs before its first
// profile: the spec, the pinned space and, for quotiented scans, the
// automorphism group and the checkpoint fingerprint it qualifies.
type gadgetSetup struct {
	spec core.Spec
	ss   *core.SearchSpace
	quo  *core.Quotient
	fp   string
}

func newGadget(quotient bool) (*gadgetSetup, error) {
	spec := construct.MatchingPennies(construct.DefaultGadgetWeights())
	ss, err := core.PinnedSpace(spec, 0)
	if err != nil {
		return nil, err
	}
	g := &gadgetSetup{spec: spec, ss: ss, fp: core.EnumFingerprint(spec, core.SumDistances, ss)}
	if !quotient {
		return g, nil
	}
	gens, err := core.SpecAutomorphisms(spec, 512)
	if err != nil {
		return nil, fmt.Errorf("gadget automorphisms: %w", err)
	}
	if g.quo, err = core.NewQuotient(spec, ss, gens); err != nil {
		return nil, fmt.Errorf("gadget quotient: %w", err)
	}
	g.fp = g.quo.QualifyFingerprint(g.fp)
	return g, nil
}

// scanStats is what one timed scan produced.
type scanStats struct {
	wall   time.Duration
	json   []byte // the NEResult, marshaled
	saveNS []float64
	bytes  []float64
}

// scan runs one complete pinned gadget scan — parallel at Workers = nproc
// or through the serial engine — saving every OnCheckpoint snapshot
// through runctl.Store into the run's scratch directory, as
// bbcsim -enumerate -pin -checkpoint does. Spans go under parent. A probe
// scan also samples the live heap at every checkpoint.
func (g *gadgetSetup) scan(b *bench, tr *tracer, parallel bool, op int64, parent int, probe bool) (*scanStats, error) {
	st := &scanStats{}
	cfg := core.EnumConfig{Workers: b.nproc, Quotient: g.quo}
	coreSpan := -1
	store := &runctl.Store{Path: filepath.Join(b.dir, "scan.ckpt"), Retries: 2}
	cfg.OnCheckpoint = func(cp *core.EnumCheckpoint) {
		if probe {
			b.probeHeap()
		}
		env, err := runctl.NewCheckpoint("enumeration", g.fp, runctl.StatusComplete, obs.Global().Snapshot(), cp)
		if err != nil {
			b.check(false, "checkpoint envelope: %v", err)
			return
		}
		sp := tr.start("runctl.Store.Save", "runctl", op, coreSpan)
		t0 := time.Now()
		err = store.Save(env)
		st.saveNS = append(st.saveNS, float64(time.Since(t0).Nanoseconds()))
		tr.end(sp)
		b.check(err == nil, "checkpoint save: %v", err)
		if fi, err := os.Stat(store.Path); err == nil {
			st.bytes = append(st.bytes, float64(fi.Size()))
		}
	}
	name := "core.EnumeratePureNEOpts"
	if parallel {
		name = "core.EnumeratePureNEParallelOpts"
	}
	coreSpan = tr.start(name, "core", op, parent)
	t0 := time.Now()
	var (
		res *core.NEResult
		err error
	)
	if parallel {
		res, err = core.EnumeratePureNEParallelOpts(g.spec, core.SumDistances, g.ss, cfg)
	} else {
		res, err = core.EnumeratePureNEOpts(g.spec, core.SumDistances, g.ss, cfg)
	}
	st.wall = time.Since(t0)
	tr.end(coreSpan)
	if err != nil {
		return nil, err
	}
	if st.json, err = json.Marshal(res); err != nil {
		return nil, err
	}
	b.check(res.Complete && res.Checked == gadgetChecked && len(res.Equilibria) == 0,
		"gadget scan (parallel=%v): complete=%v checked=%d equilibria=%d, want a complete scan of %d profiles with none",
		parallel, res.Complete, res.Checked, len(res.Equilibria), gadgetChecked)
	return st, nil
}

// scanVariant is one kind of timed gadget scan in a run.
type scanVariant struct {
	parallel bool
	traced   bool       // spans recorded (traced runs only)
	nilReg   bool       // the registry uninstalled: the telemetry-off control
	runs     []interval // each scan's wall time as measured
	walls    []float64  // the same, scaled to the nominal host speed
}

// raw returns the measured wall times in ms.
func (v *scanVariant) raw() []float64 {
	out := make([]float64, len(v.runs))
	for i, r := range v.runs {
		out[i] = r.ms
	}
	return out
}

// runGadgetScan is the gadget-scan workload: the full quotiented pinned
// scan of the 14-node Theorem 1 gadget, alternately through the parallel
// engine at Workers = nproc (primary_ms) and the serial engine
// (secondary_ms), each checkpointing through runctl.Store. Both engines
// must return byte-identical NEResult JSON for the full space with no
// equilibrium. The seed picks which engine goes first and, in traced
// runs, the kernel sample profiles.
func runGadgetScan(b *bench) error {
	var g *gadgetSetup
	if err := b.timeSetup(false, func() (func(), error) {
		var err error
		g, err = newGadget(true)
		return func() {}, err
	}); err != nil {
		return err
	}
	say("gadget: pinned space %d profiles, quotient order %d, nproc %d", g.ss.Size(), g.quo.Order(), b.nproc)

	// The variants cycle in a fixed order; untraced runs time the two
	// engines, traced runs add the traced and registry-off controls. The
	// serial scan, under half the parallel one's time, runs twice a cycle
	// so its median rests on as many samples as the time allows.
	par := &scanVariant{parallel: true}
	ser := &scanVariant{}
	variants := []*scanVariant{par, ser, ser}
	if b.seed%2 == 0 {
		variants = []*scanVariant{ser, par, ser}
	}
	var tPar, tSer, nPar, nSer *scanVariant // traced runs only
	if b.traced {
		tPar, nPar = &scanVariant{parallel: true, traced: true}, &scanVariant{parallel: true, nilReg: true}
		tSer, nSer = &scanVariant{traced: true}, &scanVariant{nilReg: true}
		variants = append(variants, tPar, nPar, tSer, nSer)
	}

	var (
		want         []byte
		saveNS, size []float64
		counted      int
		busyWall     float64
		delta        = map[string]int64{}
	)
	t0 := time.Now()
	for cycle := 0; cycle < 2 || b.until(t0); cycle++ {
		for _, v := range variants {
			op := b.ops.attempted
			tr := b.tr
			if !v.traced {
				tr = nil
			}
			if v.nilReg {
				obs.SetGlobal(nil)
			}
			snap := b.reg.Snapshot()
			root := tr.start("gadget-scan", "bench", op, -1)
			s0 := time.Now()
			st, err := g.scan(b, tr, v.parallel, op, root, false)
			s1 := time.Now()
			tr.end(root)
			obs.SetGlobal(b.reg)
			if err != nil {
				b.ops.fail()
				return err
			}
			b.ops.ok()
			v.runs = append(v.runs, interval{s0, s1, ms(st.wall)})
			b.clock.sample()
			if want == nil {
				want = st.json
			}
			b.check(bytes.Equal(st.json, want), "gadget scan (parallel=%v) NEResult JSON differs from the first scan:\n%s\nvs\n%s", v.parallel, st.json, want)
			if v.traced {
				saveNS = append(saveNS, st.saveNS...)
				size = append(size, st.bytes...)
				counted++
				before := delta["parallel.busy_nanos"]
				for k, n := range obs.Diff(snap, b.reg.Snapshot()) {
					delta[k] += n
				}
				if v.parallel {
					busy := float64(delta["parallel.busy_nanos"]-before) / 1e6
					busyWall += ratio(busy, float64(b.nproc)*ms(st.wall))
				}
			}
		}
	}

	for _, v := range variants {
		v.walls = b.clock.scaled(v.runs)
	}

	// Untimed probe scans, one per engine, sample the live heap at every
	// checkpoint, while the scan's workers hold their state.
	for _, parallel := range []bool{true, false} {
		st, err := g.scan(b, nil, parallel, b.ops.attempted, -1, true)
		if err != nil {
			b.ops.fail()
			return err
		}
		b.ops.ok()
		b.check(bytes.Equal(st.json, want), "probe gadget scan (parallel=%v) NEResult JSON differs from the first scan", parallel)
	}
	b.e2e[mPrimary] = median(par.walls)
	b.e2e[mSecondary] = median(ser.walls)
	say("e2e scan_s=%.4f (median of %d) scan_serial_s=%.4f (median of %d) checked=%d equilibria=0",
		b.e2e[mPrimary]/1e3, len(par.walls), b.e2e[mSecondary]/1e3, len(ser.walls), gadgetChecked)
	say("result %s", want)
	say("parallel scan ms (scaled): %s", summary(par.walls))
	say("parallel scan ms (raw wall): %s", summary(par.raw()))
	say("serial scan ms (scaled): %s", summary(ser.walls))
	say("serial scan ms (raw wall): %s", summary(ser.raw()))
	if !b.traced {
		return nil
	}

	scanCounters(b, delta, counted)
	b.layers["core.scan_busy_ratio"] = busyWall / float64(len(tPar.walls))
	b.layers["core.scan_parallel_efficiency"] = ratio(median(ser.walls), float64(b.nproc)*median(par.walls))
	b.layers["runctl.checkpoint_saves"] = float64(len(saveNS)) / float64(counted)
	b.layers["runctl.checkpoint_save_ns_p50"] = median(saveNS)
	b.layers["runctl.checkpoint_save_ns_max"] = maxOf(saveNS)
	b.layers["runctl.checkpoint_bytes"] = median(size)
	b.layers["obs.registry_overhead_ratio"] = ratio(median(par.walls), median(nPar.walls)) - 1
	b.layers["obs.registry_overhead_serial_ratio"] = ratio(median(ser.walls), median(nSer.walls)) - 1
	b.layers["trace_overhead_ratio"] = ratio(median(tPar.walls), median(par.walls)) - 1

	var k kernelSamples
	k.sample(g.spec, core.SumDistances, sampleOdometer(b, g.ss, kernelProfiles))
	k.report(b)
	return nil
}

// scanCounters fills the per-layer registry counts of a scan workload,
// per operation.
func scanCounters(b *bench, delta map[string]int64, ops int) {
	perOp := func(name string) float64 { return float64(delta[name]) / float64(ops) }
	b.layers["graph.bfs_batch_calls"] = perOp("graph.bfs_batch")
	b.layers["graph.bfs_batch_waves"] = perOp("bfs.batch_waves")
	b.layers["graph.bfs_batch_sources"] = perOp("bfs.batch_sources")
	b.layers["graph.dijkstra_calls"] = perOp("graph.dijkstra")
	b.layers["core.oracle_builds"] = perOp("oracle.builds")
	b.layers["core.oracle_cache_hit_ratio"] = ratio(float64(delta["oracle.cache_hits"]), float64(delta["oracle.cache_hits"]+delta["oracle.builds"]))
	b.layers["core.stability_checks"] = perOp("core.stability_checks")
	b.layers["core.quotient_skip_ratio"] = ratio(float64(delta["quotient.skipped"]), float64(delta["core.profiles_checked"]))
}
