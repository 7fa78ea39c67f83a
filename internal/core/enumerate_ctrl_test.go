package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"bbc/internal/runctl"
)

// ctrlTestSpec returns a small non-uniform game whose full space holds a
// handful of equilibria, so resume tests can compare non-trivial results.
func ctrlTestSpec(t *testing.T) (Spec, *SearchSpace) {
	t.Helper()
	spec := MustUniform(5, 1)
	ss, err := FullSpace(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	return spec, ss
}

// mustEnumerate runs an uninterrupted scan as the ground truth.
func mustEnumerate(t *testing.T, spec Spec, ss *SearchSpace) *NEResult {
	t.Helper()
	ref, err := EnumeratePureNE(spec, SumDistances, ss, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Complete || ref.Status != runctl.StatusComplete {
		t.Fatalf("reference scan incomplete: %+v", ref)
	}
	return ref
}

// TestEnumerateCancelMidScanAndResume is the run-control contract test:
// cancelling mid-enumeration yields a partial NEResult with
// Complete==false and resume state, the partial plus the resumed run
// contain no duplicate equilibria, and the combined result is exactly
// the uninterrupted result.
func TestEnumerateCancelMidScanAndResume(t *testing.T) {
	spec, ss := ctrlTestSpec(t)
	ref := mustEnumerate(t, spec, ss)
	if ref.Checked < 100 {
		t.Fatalf("space too small for a mid-scan cancel: %d profiles", ref.Checked)
	}

	// Cancel from the first checkpoint callback, mid-scan.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var snap *EnumCheckpoint
	partial, err := EnumeratePureNEOpts(spec, SumDistances, ss, EnumConfig{
		Ctx:             ctx,
		CheckEvery:      8,
		CheckpointEvery: 64,
		OnCheckpoint: func(cp *EnumCheckpoint) {
			snap = cp
			cancel()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Complete || partial.Status != runctl.StatusCancelled {
		t.Fatalf("want cancelled partial result, got complete=%v status=%v", partial.Complete, partial.Status)
	}
	if partial.Resume == nil {
		t.Fatal("cancelled scan carries no resume state")
	}
	if snap == nil {
		t.Fatal("checkpoint callback never fired")
	}
	if partial.Checked == 0 || partial.Checked >= ref.Checked {
		t.Fatalf("implausible partial progress: %d of %d", partial.Checked, ref.Checked)
	}

	// Resume from the returned state; the combination must reproduce the
	// uninterrupted scan exactly: same count, same equilibria, same order.
	rest, err := EnumeratePureNEOpts(spec, SumDistances, ss, EnumConfig{Resume: partial.Resume})
	if err != nil {
		t.Fatal(err)
	}
	if !rest.Complete || rest.Status != runctl.StatusComplete {
		t.Fatalf("resumed scan did not complete: %+v", rest.Status)
	}
	if rest.Checked != ref.Checked {
		t.Errorf("resumed Checked = %d, want %d", rest.Checked, ref.Checked)
	}
	if !reflect.DeepEqual(rest.Equilibria, ref.Equilibria) {
		t.Errorf("resumed equilibria differ from uninterrupted scan:\n got %v\nwant %v",
			rest.Equilibria, ref.Equilibria)
	}
	seen := map[string]bool{}
	for _, eq := range rest.Equilibria {
		key, _ := json.Marshal(eq)
		if seen[string(key)] {
			t.Errorf("duplicate equilibrium after resume: %v", eq)
		}
		seen[string(key)] = true
	}
}

// TestEnumerateCheckpointRoundTripsThroughJSON pins that resume state
// survives the runctl envelope byte-identically, as the CLI persists it.
func TestEnumerateCheckpointRoundTripsThroughJSON(t *testing.T) {
	spec, ss := ctrlTestSpec(t)
	ref := mustEnumerate(t, spec, ss)
	fp := EnumFingerprint(spec, SumDistances, ss)

	partial, err := EnumeratePureNEOpts(spec, SumDistances, ss, EnumConfig{
		MaxProfiles: ref.Checked / 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Status != runctl.StatusBudget || partial.Resume == nil {
		t.Fatalf("want budget-truncated scan with resume state, got %+v", partial.Status)
	}

	env, err := runctl.NewCheckpoint("enumeration", fp, partial.Status, nil, partial.Resume)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	var loaded runctl.Checkpoint
	if err := json.Unmarshal(raw, &loaded); err != nil {
		t.Fatal(err)
	}
	var cp EnumCheckpoint
	if err := loaded.Decode("enumeration", fp, &cp); err != nil {
		t.Fatal(err)
	}

	rest, err := EnumeratePureNEOpts(spec, SumDistances, ss, EnumConfig{Resume: &cp})
	if err != nil {
		t.Fatal(err)
	}
	if rest.Checked != ref.Checked || !reflect.DeepEqual(rest.Equilibria, ref.Equilibria) {
		t.Errorf("JSON round-tripped resume diverged: checked %d/%d", rest.Checked, ref.Checked)
	}
}

// TestEnumerateParallelResume interrupts a parallel scan with a profile
// budget and resumes it from the partition checkpoint; the merged result
// must match the serial uninterrupted scan exactly.
func TestEnumerateParallelResume(t *testing.T) {
	spec, ss := ctrlTestSpec(t)
	ref := mustEnumerate(t, spec, ss)

	partial, err := EnumeratePureNEParallelOpts(spec, SumDistances, ss, EnumConfig{
		MaxProfiles: ref.Checked / 3,
		Workers:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Complete {
		t.Fatal("budgeted parallel scan reported complete")
	}
	if partial.Status != runctl.StatusBudget {
		t.Fatalf("want budget status, got %v", partial.Status)
	}
	if partial.Resume == nil {
		t.Fatal("budgeted parallel scan carries no resume state")
	}

	rest, err := EnumeratePureNEParallelOpts(spec, SumDistances, ss, EnumConfig{
		Resume:  partial.Resume,
		Workers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rest.Complete || rest.Status != runctl.StatusComplete {
		t.Fatalf("resumed parallel scan did not complete: %v", rest.Status)
	}
	if rest.Checked != ref.Checked {
		t.Errorf("resumed parallel Checked = %d, want %d", rest.Checked, ref.Checked)
	}
	if !reflect.DeepEqual(rest.Equilibria, ref.Equilibria) {
		t.Errorf("resumed parallel equilibria differ from serial reference")
	}
}

// TestEnumerateResumeAcrossEngines pins the single checkpoint shape:
// a quotiented scan is interrupted over and over, its legs alternating
// between the serial engine and the parallel one at 2 and 3 workers, and
// each leg resumes from the previous leg's checkpoint after a JSON round
// trip. Even legs stop from a mid-scan OnCheckpoint snapshot (so ranges
// still in flight are on the tested path), odd legs at a profile budget.
// The final result must be byte-identical to the plain serial scan.
func TestEnumerateResumeAcrossEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	islands, pending := 0, 0
	for trial := 0; trial < 4; trial++ {
		var (
			spec Spec
			gens [][]int
			err  error
		)
		if trial%2 == 0 {
			spec = MustUniform(4+trial/2, 1)
			gens = translationPerms(spec.N())
		} else {
			spec, _ = randomSymmetricDense(rng, 2)
			if gens, err = SpecAutomorphisms(spec, 0); err != nil {
				t.Fatal(err)
			}
		}
		ss, err := FullSpace(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		q, err := NewQuotient(spec, ss, gens)
		if err != nil {
			t.Fatal(err)
		}
		want := mustJSON(t, mustEnumerate(t, spec, ss))

		var (
			res *NEResult
			cp  *EnumCheckpoint
		)
		for leg := 0; res == nil || !res.Complete; leg++ {
			if leg > 10000 {
				t.Fatal("resume loop did not terminate")
			}
			ctx, cancel := context.WithCancel(context.Background())
			var snap *EnumCheckpoint
			cfg := EnumConfig{Ctx: ctx, CheckEvery: 4, Quotient: q, Resume: cp}
			if leg%2 == 0 {
				cfg.CheckpointEvery = 8
				cfg.OnCheckpoint = func(c *EnumCheckpoint) {
					if snap == nil {
						snap = c
						cancel()
					}
				}
			} else if cp != nil {
				cfg.MaxProfiles = cp.Checked + 24
			} else {
				cfg.MaxProfiles = 24
			}
			engine := "serial"
			if workers := leg % 3; workers == 0 {
				res, err = EnumeratePureNEOpts(spec, SumDistances, ss, cfg)
			} else {
				cfg.Workers = workers + 1
				engine = fmt.Sprintf("parallel(%d)", cfg.Workers)
				res, err = EnumeratePureNEParallelOpts(spec, SumDistances, ss, cfg)
			}
			cancel()
			if err != nil {
				t.Fatalf("trial %d leg %d (%s): %v", trial, leg, engine, err)
			}
			if res.Complete {
				break
			}
			next := res.Resume
			if snap != nil {
				next = snap
			}
			if next == nil {
				t.Fatalf("trial %d leg %d (%s): incomplete scan (%v) without resume state", trial, leg, engine, res.Status)
			}
			cp = roundTripCheckpoint(t, next)
			if len(cp.Done) > 0 {
				islands++
			}
			if len(cp.Pending) > 0 {
				pending++
			}
		}
		if got := mustJSON(t, res); got != want {
			t.Fatalf("trial %d: resumed scan diverged from the plain serial scan\n got: %s\nwant: %s", trial, got, want)
		}
	}
	t.Logf("checkpoints with done runs past the cursor: %d, with pending orbit members: %d", islands, pending)
	if islands == 0 || pending == 0 {
		t.Fatal("no leg left done runs past the cursor and pending orbit members: the cross-engine paths went untested")
	}
}

// panicSpec wraps a Spec and panics on the nth Weight call, standing in
// for a fault deep inside a worker's stability check.
type panicSpec struct {
	Spec
	calls atomic.Int64
	at    int64
}

func (p *panicSpec) Weight(u, v int) int64 {
	if p.calls.Add(1) == p.at {
		panic("injected fault")
	}
	return p.Spec.Weight(u, v)
}

// TestEnumerateParallelPanicContainment: a worker panic must surface as
// an error naming the partition, not crash the process.
func TestEnumerateParallelPanicContainment(t *testing.T) {
	base := MustUniform(5, 1)
	ss, err := FullSpace(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The oracle caches its spec-derived arrays per node, so Weight is
	// consulted only during each slot's first build: the injection point
	// must sit within the few dozen calls the workers' warm-up builds make.
	spec := &panicSpec{Spec: base, at: 10}
	_, err = EnumeratePureNEParallelOpts(spec, SumDistances, ss, EnumConfig{Workers: 2})
	if err == nil {
		t.Fatal("worker panic did not surface as an error")
	}
	var pe *runctl.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *runctl.PanicError, got %T: %v", err, err)
	}
	if !strings.Contains(pe.Label, "partition") {
		t.Errorf("panic error does not name the partition: %q", pe.Label)
	}
	if !strings.Contains(err.Error(), "injected fault") {
		t.Errorf("panic error lost the cause: %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic error carries no stack")
	}
}

// TestEnumerateBudgetIsCumulative: resuming with the same MaxProfiles
// grants only the remainder, so budget semantics do not reset across
// resume cycles.
func TestEnumerateBudgetIsCumulative(t *testing.T) {
	spec, ss := ctrlTestSpec(t)
	ref := mustEnumerate(t, spec, ss)
	budget := ref.Checked / 2

	first, err := EnumeratePureNEOpts(spec, SumDistances, ss, EnumConfig{MaxProfiles: budget})
	if err != nil {
		t.Fatal(err)
	}
	if first.Checked != budget {
		t.Fatalf("first leg checked %d, want %d", first.Checked, budget)
	}
	second, err := EnumeratePureNEOpts(spec, SumDistances, ss, EnumConfig{
		MaxProfiles: budget,
		Resume:      first.Resume,
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.Checked != budget {
		t.Errorf("resumed leg with spent budget checked %d profiles, want no further progress (still %d)",
			second.Checked, budget)
	}
	if second.Status != runctl.StatusBudget || second.Complete {
		t.Errorf("spent budget must report budget truncation, got %v", second.Status)
	}
}

// TestEnumerateHugeMaxProfiles: a MaxProfiles of 2^63 or more (it comes
// from -max-profiles and serve's max_profiles) is an unbounded budget,
// not an exhausted one, in both entry points.
func TestEnumerateHugeMaxProfiles(t *testing.T) {
	spec := MustUniform(4, 1)
	ss, err := FullSpace(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Size() != 256 {
		t.Fatalf("test premise: space holds %d profiles, want 256", ss.Size())
	}
	for _, max := range []uint64{1 << 63, math.MaxUint64} {
		serial, err := EnumeratePureNEOpts(spec, SumDistances, ss, EnumConfig{MaxProfiles: max})
		if err != nil {
			t.Fatal(err)
		}
		par, err := EnumeratePureNEParallelOpts(spec, SumDistances, ss, EnumConfig{MaxProfiles: max, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for name, res := range map[string]*NEResult{"serial": serial, "parallel": par} {
			if res.Checked != 256 || !res.Complete || res.Status != runctl.StatusComplete {
				t.Errorf("%s MaxProfiles=%d: checked %d, complete %v, status %v; want a complete scan of 256",
					name, max, res.Checked, res.Complete, res.Status)
			}
		}
	}
}

// TestEnumerateResumeRejectsImpossibleChecked: a checkpoint's checked
// count must equal the profiles its cursor and done runs cover; a larger
// claim would report a complete scan that checked nothing.
func TestEnumerateResumeRejectsImpossibleChecked(t *testing.T) {
	spec := MustUniform(4, 1)
	ss, err := FullSpace(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, cp := range map[string]*EnumCheckpoint{
		"past the space":       {Cursor: make([]int, 4), Checked: ss.Size() + 5},
		"more than the cursor": {Cursor: []int{0, 1, 0, 0}, Checked: 17},
		"done run overlaps":    {Cursor: []int{0, 1, 0, 0}, Checked: 20, Done: [][2]uint64{{16, 20}}},
		"done run past end":    {Cursor: []int{0, 1, 0, 0}, Checked: 16 + 250, Done: [][2]uint64{{50, 300}}},
	} {
		if _, err := EnumeratePureNEOpts(spec, SumDistances, ss, EnumConfig{Resume: cp}); err == nil {
			t.Errorf("%s: serial scan accepted the checkpoint", name)
		}
		if _, err := EnumeratePureNEParallelOpts(spec, SumDistances, ss, EnumConfig{Resume: cp, Workers: 2}); err == nil {
			t.Errorf("%s: parallel scan accepted the checkpoint", name)
		}
	}
	ok := &EnumCheckpoint{Cursor: []int{0, 1, 0, 0}, Checked: 20, Done: [][2]uint64{{17, 21}}}
	res, err := EnumeratePureNEOpts(spec, SumDistances, ss, EnumConfig{Resume: ok})
	if err != nil {
		t.Fatalf("valid checkpoint with a done run rejected: %v", err)
	}
	if res.Checked != ss.Size() || !res.Complete {
		t.Errorf("resume from a done run: checked %d of %d, complete %v", res.Checked, ss.Size(), res.Complete)
	}
}

// TestParallelCheckpointCadence: a parallel scan snapshots every
// CheckpointEvery profiles each worker checks (not once per range), each
// snapshot stays O(workers) in checked runs, never moves backwards, and
// resumes to the uninterrupted result.
func TestParallelCheckpointCadence(t *testing.T) {
	spec, ss := ctrlTestSpec(t)
	ref := mustEnumerate(t, spec, ss)
	const every, workers = 100, 3
	var snaps []*EnumCheckpoint
	res, err := EnumeratePureNEParallelOpts(spec, SumDistances, ss, EnumConfig{
		Workers:         workers,
		CheckpointEvery: every,
		OnCheckpoint:    func(cp *EnumCheckpoint) { snaps = append(snaps, cp) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Checked != ref.Checked {
		t.Fatalf("checkpointed scan: checked %d of %d, complete %v", res.Checked, ref.Checked, res.Complete)
	}
	if n, want := uint64(len(snaps)), ref.Checked/every; n+workers < want || n > want {
		t.Errorf("%d checkpoints for %d profiles at every %d, want about %d", n, ref.Checked, every, want)
	}
	var last uint64
	for i, cp := range snaps {
		if len(cp.Done) > workers {
			t.Errorf("checkpoint %d carries %d done runs, more than the %d workers", i, len(cp.Done), workers)
		}
		if cp.Checked < last {
			t.Errorf("checkpoint %d went backwards: %d after %d", i, cp.Checked, last)
		}
		last = cp.Checked
	}
	t.Logf("%d checkpoints; mid snapshot: checked %d, %d done runs", len(snaps), snaps[len(snaps)/2].Checked, len(snaps[len(snaps)/2].Done))
	mid := roundTripCheckpoint(t, snaps[len(snaps)/2])
	rest, err := EnumeratePureNEOpts(spec, SumDistances, ss, EnumConfig{Resume: mid})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, rest), mustJSON(t, ref); got != want {
		t.Errorf("resume from a mid-scan parallel snapshot diverged\n got: %s\nwant: %s", got, want)
	}
}
