package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bbc/internal/core"
	"bbc/internal/obs"
	"bbc/internal/runctl"
	"bbc/internal/serve"
)

// testSpec is the standard fleet test game: uniform(4,1) has a 3-wide
// pivot axis (node 0's strategies {1},{2},{3}) and a known equilibrium
// set, small enough that every chaos schedule finishes fast.
func testSpec(t *testing.T) core.Spec {
	t.Helper()
	spec, err := core.NewUniform(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// reference runs the single-box scan the fleet result must match byte
// for byte.
func reference(t *testing.T, spec core.Spec) *core.NEResult {
	t.Helper()
	ss, err := core.FullSpace(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.EnumeratePureNE(spec, core.SumDistances, ss, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checked == 0 || len(res.Equilibria) == 0 {
		t.Fatalf("degenerate reference: %+v", res)
	}
	return res
}

// startWorker runs a real bbcserved core behind an httptest listener.
func startWorker(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	if cfg.Reg == nil {
		cfg.Reg = obs.NewRegistry()
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Drain()
	})
	return s, hs
}

// mustMatch asserts the fleet result marshals byte-identical to the
// single-box reference — the paper-grade determinism contract.
func mustMatch(t *testing.T, got, want *core.NEResult) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Errorf("fleet result != single-box reference:\n got %s\nwant %s", g, w)
	}
}

func TestFleetMergesToSingleBoxReference(t *testing.T) {
	spec := testSpec(t)
	_, w1 := startWorker(t, serve.Config{})
	_, w2 := startWorker(t, serve.Config{})

	reg := obs.NewRegistry()
	res, err := Run(context.Background(), Config{
		Spec:    spec,
		Workers: []string{w1.URL, w2.URL},
		Shards:  3,
		Reg:     reg,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.NE.Complete || res.ShardsDone != res.Shards || res.Shards != 3 {
		t.Fatalf("run did not complete: %+v", res)
	}
	mustMatch(t, res.NE, reference(t, spec))
	if got := reg.Get(obs.MFleetShardsDone); got != 3 {
		t.Errorf("fleet.shards_done = %d, want 3", got)
	}
	if got := reg.Get(obs.MFleetLeases); got < 3 {
		t.Errorf("fleet.leases = %d, want >= 3", got)
	}
}

// TestPlanShards covers the shard planner: near-equal contiguous cover
// of the pivot axis, clamping to the partition count, and the trivial
// single shard for a space with no pivot.
func TestPlanShards(t *testing.T) {
	ss := &core.SearchSpace{PerNode: [][]core.Strategy{
		make([]core.Strategy, 1),
		make([]core.Strategy, 7),
		make([]core.Strategy, 2),
	}}
	for _, tc := range []struct {
		workers, requested, want int
	}{
		{workers: 2, requested: 0, want: 7}, // 4×2 clamped to 7 partitions
		{workers: 1, requested: 3, want: 3},
		{workers: 1, requested: 100, want: 7},
	} {
		plan := planShards(ss, tc.workers, tc.requested)
		if len(plan) != tc.want {
			t.Errorf("planShards(workers=%d, requested=%d) = %d shards, want %d",
				tc.workers, tc.requested, len(plan), tc.want)
			continue
		}
		// Contiguous ascending cover of [0, 7).
		at := 0
		for i, sh := range plan {
			if sh.Index != i || sh.Lo != at || sh.Hi <= sh.Lo {
				t.Errorf("shard %d = [%d, %d) at offset %d: not a contiguous cover", i, sh.Lo, sh.Hi, at)
			}
			at = sh.Hi
		}
		if at != 7 {
			t.Errorf("plan covers [0, %d), want [0, 7)", at)
		}
	}

	// No pivot — a single-profile space — is one trivial shard.
	single := &core.SearchSpace{PerNode: [][]core.Strategy{
		make([]core.Strategy, 1),
		make([]core.Strategy, 1),
	}}
	plan := planShards(single, 4, 0)
	if len(plan) != 1 || plan[0].Lo != 0 || plan[0].Hi != 1 {
		t.Errorf("no-pivot plan = %+v, want one [0, 1) shard", plan)
	}
}

// TestFleetDrainingWorkerReleasesLeases is satellite re-lease coverage:
// one worker drains before the run, its agent's readiness gate (503)
// releases every lease it grabs as backpressure — counted throttled,
// not a worker fault, and never burning the shard's attempt budget —
// and the healthy worker finishes the whole scan.
func TestFleetDrainingWorkerReleasesLeases(t *testing.T) {
	spec := testSpec(t)
	dead, deadURL := startWorker(t, serve.Config{})
	dead.Drain()
	_, live := startWorker(t, serve.Config{})

	reg := obs.NewRegistry()
	res, err := Run(context.Background(), Config{
		Spec:    spec,
		Workers: []string{deadURL.URL, live.URL},
		Shards:  3,
		Backoff: runctl.Backoff{Base: time.Millisecond},
		Reg:     reg,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.NE.Complete {
		t.Fatalf("run did not complete: %+v", res)
	}
	mustMatch(t, res.NE, reference(t, spec))
	if got := reg.Get(obs.MFleetReleases); got < 1 {
		t.Errorf("fleet.releases = %d, want >= 1 (draining worker must give leases back)", got)
	}
	if got := reg.Get(obs.MFleetThrottled); got < 1 {
		t.Errorf("fleet.throttled = %d, want >= 1 (a draining 503 is backpressure)", got)
	}
	if got := reg.Get(obs.MFleetWorkerFaults); got != 0 {
		t.Errorf("fleet.worker_faults = %d, want 0 (backpressure is not a fault)", got)
	}
}

// TestFleetDuplicateCompletionIsIdempotent is satellite 4: the same
// shard completed twice merges once, the duplicate is counted in
// fleet.duplicate_results, and the merged output is unchanged.
func TestFleetDuplicateCompletionIsIdempotent(t *testing.T) {
	spec := testSpec(t)
	ss, err := core.FullSpace(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan := planShards(ss, 1, 2)
	reg := obs.NewRegistry()
	tbl := newTable(plan, time.Minute, 8, reg, nil)

	res := &shardResult{Fingerprint: "fp-0", Checked: 7}
	if !tbl.complete(plan[0], "w1", res) {
		t.Fatal("first completion must apply")
	}
	if tbl.complete(plan[0], "w2", res) {
		t.Error("second completion must be dropped")
	}
	if got := reg.Get(obs.MFleetDuplicates); got != 1 {
		t.Errorf("fleet.duplicate_results = %d, want 1", got)
	}
	if got := reg.Get(obs.MFleetShardsDone); got != 1 {
		t.Errorf("fleet.shards_done = %d, want 1 (duplicate must not double-count)", got)
	}
	ne, done := tbl.merged(runctl.StatusComplete)
	if done != 1 || ne.Checked != 7 {
		t.Errorf("merged (done=%d, checked=%d), want (1, 7) — duplicate applied twice?", done, ne.Checked)
	}
	if tbl.fatalErr() != nil {
		t.Errorf("identical duplicate must not be fatal: %v", tbl.fatalErr())
	}

	// A diverging duplicate is corruption, not a race: fatal.
	tbl.complete(plan[0], "w3", &shardResult{Fingerprint: "fp-0", Checked: 9})
	if tbl.fatalErr() == nil {
		t.Error("diverging duplicate must be fatal")
	}
}

// TestFleetResume: a run with one shard already merged in its
// lease-table checkpoint only scans the rest, and the final result is
// still byte-identical to the reference.
func TestFleetResume(t *testing.T) {
	spec := testSpec(t)
	ss, err := core.FullSpace(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	plan := planShards(ss, 1, shards)
	fp := fmt.Sprintf("%s+fleet[%d]", core.EnumFingerprint(spec, core.SumDistances, ss), len(plan))

	// Compute shard 0's genuine result by slicing the pivot axis the way
	// a worker would, then persist it as a one-shard-done checkpoint.
	shardSS, err := core.FullSpace(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	pivot := shardSS.Pivot()
	shardSS.PerNode[pivot] = shardSS.PerNode[pivot][plan[0].Lo:plan[0].Hi]
	shard0, err := core.EnumeratePureNE(spec, core.SumDistances, shardSS, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := &leaseTableSnapshot{Shards: make([]shardSnapshot, shards)}
	for i, sh := range plan {
		snap.Shards[i] = shardSnapshot{Index: sh.Index, Lo: sh.Lo, Hi: sh.Hi}
	}
	snap.Shards[0].Done = true
	snap.Shards[0].Attempts = 1
	snap.Shards[0].Result = &shardResult{
		Fingerprint: "fp-shard-0",
		Checked:     shard0.Checked,
		Equilibria:  shard0.Equilibria,
	}
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	env, err := runctl.NewCheckpoint(leaseCheckpointKind, fp, runctl.StatusCancelled, nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	store := &runctl.Store{Path: ckpt}
	if err := store.Save(env); err != nil {
		t.Fatal(err)
	}

	_, w := startWorker(t, serve.Config{})
	reg := obs.NewRegistry()
	res, err := Run(context.Background(), Config{
		Spec:           spec,
		Workers:        []string{w.URL},
		Shards:         shards,
		CheckpointPath: ckpt,
		Resume:         true,
		Reg:            reg,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.NE.Complete || res.ShardsDone != shards {
		t.Fatalf("resumed run did not complete: %+v", res)
	}
	mustMatch(t, res.NE, reference(t, spec))
	// The restored shard was merged from the checkpoint, not re-scanned.
	if got := reg.Get(obs.MFleetShardsDone); got != shards-1 {
		t.Errorf("fleet.shards_done = %d, want %d (shard 0 came from the checkpoint)", got, shards-1)
	}
	// A completed run removes its lease table: stale leases must not
	// confuse a rerun.
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("lease checkpoint still present after a complete run (stat err=%v)", err)
	}
}

// TestFleetResumeRejectsForeignCheckpoint: a lease table persisted for a
// different shard split must refuse to resume.
func TestFleetResumeRejectsForeignCheckpoint(t *testing.T) {
	spec := testSpec(t)
	ss, err := core.FullSpace(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	fp := fmt.Sprintf("%s+fleet[%d]", core.EnumFingerprint(spec, core.SumDistances, ss), 2)
	snap := &leaseTableSnapshot{Shards: []shardSnapshot{{Index: 0, Lo: 0, Hi: 2}, {Index: 1, Lo: 2, Hi: 3}}}
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	env, err := runctl.NewCheckpoint(leaseCheckpointKind, fp, runctl.StatusCancelled, nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&runctl.Store{Path: ckpt}).Save(env); err != nil {
		t.Fatal(err)
	}

	_, w := startWorker(t, serve.Config{})
	// Same game, different shard count: the fleet-qualified fingerprint
	// must not match, and the resume must fail loudly rather than merge
	// ranges that mean something else.
	_, err = Run(context.Background(), Config{
		Spec:           spec,
		Workers:        []string{w.URL},
		Shards:         3,
		CheckpointPath: ckpt,
		Resume:         true,
		Reg:            obs.NewRegistry(),
	})
	if err == nil {
		t.Fatal("resume from a different shard split must fail")
	}
}

// TestFleetCancelReturnsPartial: a cancelled run returns what it merged
// with Complete false and a cancelled status, and checkpoints the rest.
func TestFleetCancelReturnsPartial(t *testing.T) {
	spec := testSpec(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any lease: nothing merges
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	_, w := startWorker(t, serve.Config{})
	res, err := Run(ctx, Config{
		Spec:           spec,
		Workers:        []string{w.URL},
		Shards:         2,
		CheckpointPath: ckpt,
		Reg:            obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.NE.Complete || res.ShardsDone != 0 {
		t.Fatalf("cancelled run reported progress it cannot have made: %+v", res)
	}
	if res.NE.Status != runctl.StatusCancelled {
		t.Errorf("status = %v, want cancelled", res.NE.Status)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Errorf("interrupted run must leave a lease checkpoint: %v", err)
	}
}

// TestPlanShardsClampedToPivot: the shard count a CLI shows as its
// progress total is the plan Run executes, so a space with fewer pivot
// partitions than 4×workers reports the clamped count, not 4×workers.
func TestPlanShardsClampedToPivot(t *testing.T) {
	spec, err := core.NewUniform(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := core.FullSpace(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	parts := len(ss.PerNode[ss.Pivot()])
	workers := []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}
	if parts >= 4*len(workers) {
		t.Fatalf("test space has %d pivot partitions; want fewer than %d", parts, 4*len(workers))
	}
	s, err := Plan(Config{Spec: spec, Workers: workers, Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Shards(); got != parts {
		t.Fatalf("Plan().Shards() = %d, want the %d pivot partitions", got, parts)
	}
}
