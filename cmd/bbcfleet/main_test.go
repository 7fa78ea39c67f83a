package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bbc/internal/cli"
	"bbc/internal/core"
	"bbc/internal/obs"
	"bbc/internal/runctl"
	"bbc/internal/serve"
)

// startWorker runs a real serve core behind an httptest listener.
func startWorker(t *testing.T) string {
	t.Helper()
	s, err := serve.New(serve.Config{Workers: 1, DataDir: t.TempDir(), Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Drain()
	})
	return hs.URL
}

func runFleet(t *testing.T, o options) (*result, runctl.Status) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	o.stdout, o.stderr = &stdout, &stderr
	status, err := run(context.Background(), o)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	var out result
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("stdout is not one JSON object: %v\n%s", err, stdout.String())
	}
	return &out, status
}

func TestFleetCLIMatchesSingleBox(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)

	spec, err := core.NewUniform(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := core.FullSpace(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.EnumeratePureNE(spec, core.SumDistances, ss, 0)
	if err != nil {
		t.Fatal(err)
	}

	journal := filepath.Join(t.TempDir(), "run.jsonl")
	out, status := runFleet(t, options{
		n: 4, k: 1, agg: "sum",
		workers:  w1 + " , " + w2 + "/", // whitespace and trailing slash are tolerated
		shards:   3,
		leaseTTL: 10 * time.Second,
		poll:     5 * time.Millisecond,
		jsonOut:  true,
		Flags:    cli.Flags{Journal: journal},
	})
	if status != runctl.StatusComplete {
		t.Errorf("status = %v, want complete (exit 0)", status)
	}
	if !out.Complete || out.Workers != 2 || out.Shards != 3 || out.ShardsDone != 3 {
		t.Fatalf("unexpected run shape: %+v", out)
	}

	// The deterministic projection the CI smoke test byte-compares.
	got, _ := json.Marshal(struct {
		Checked    uint64         `json:"checked"`
		Equilibria []core.Profile `json:"equilibria"`
	}{out.Checked, out.Equilibria})
	want, _ := json.Marshal(struct {
		Checked    uint64         `json:"checked"`
		Equilibria []core.Profile `json:"equilibria"`
	}{ref.Checked, ref.Equilibria})
	if !bytes.Equal(got, want) {
		t.Errorf("fleet merge != single-box scan:\n got %s\nwant %s", got, want)
	}

	// The journal must tell the lease story: every shard leased, the
	// final merge recorded.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var leases, merges int
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var rec struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		switch rec.Type {
		case "lease":
			leases++
		case "merge":
			merges++
		}
	}
	if leases < 3 || merges != 1 {
		t.Errorf("journal has %d lease and %d merge records, want >= 3 and exactly 1", leases, merges)
	}
}

func TestFleetCLILoadSpecFile(t *testing.T) {
	w := startWorker(t)
	game := filepath.Join(t.TempDir(), "game.json")
	if err := os.WriteFile(game, []byte(`{"kind":"uniform","n":4,"k":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _ := runFleet(t, options{
		load: game, agg: "sum", workers: w, shards: 2,
		leaseTTL: 10 * time.Second, poll: 5 * time.Millisecond, jsonOut: true,
	})
	if !out.Complete || out.N != 4 {
		t.Fatalf("unexpected result from -load run: %+v", out)
	}
}

func TestFleetCLIUsageErrors(t *testing.T) {
	for name, o := range map[string]options{
		"no workers":          {n: 4, k: 1, agg: "sum"},
		"exclusive ckpt":      {n: 4, k: 1, agg: "sum", workers: "http://x", Flags: cli.Flags{Checkpoint: "a", Resume: "b"}},
		"unknown aggregation": {n: 4, k: 1, agg: "median", workers: "http://x"},
	} {
		o.stdout, o.stderr = &bytes.Buffer{}, &bytes.Buffer{}
		if _, err := run(context.Background(), o); err == nil {
			t.Errorf("%s: run accepted bad options", name)
		}
	}
}
