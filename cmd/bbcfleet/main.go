// Command bbcfleet coordinates a fault-tolerant sharded pure-NE scan
// across a fleet of bbcserved workers and merges the shard results into
// output byte-identical to a single-box scan.
//
// Usage:
//
//	bbcfleet -workers http://host1:8371,http://host2:8371
//	         [-load game.json | -n 6 -k 1] [-agg sum|max] [-pin]
//	         [-shards 0] [-lease-ttl 30s] [-solve-workers 0] [-poll 100ms]
//	         [-max-attempts 8] [-tail] [-json] [-timeout 0]
//	         [-checkpoint fleet.ckpt | -resume fleet.ckpt]
//	         [-journal run.jsonl] [-trace run.trace.json]
//	         [-progress] [-pprof :6060]
//
// The odometer space is split along the pivot axis into contiguous
// shard leases. Each lease is granted to a worker under a TTL deadline,
// dispatched over the bbcserved HTTP/JSON job API through a retrying
// client (jittered exponential backoff, Retry-After honored), and
// returned to pending when the worker fails or the deadline expires —
// a killed worker costs the fleet at most one lease TTL. Duplicate
// completions from re-lease races are verified and dropped, never
// merged twice. Concatenating shard results in range order reproduces
// the serial odometer order exactly, so a complete run's equilibria
// list and checked count are byte-identical to `bbcsim -enumerate` on
// the same game, whatever subset of workers failed along the way.
//
// Run control mirrors bbcsim: SIGINT/SIGTERM end the run gracefully
// with partial results (Complete: false and a status naming the
// reason), -timeout bounds wall time, and -checkpoint persists the
// lease table (atomic write-fsync-rename, previous generation kept) so
// -resume continues with every merged shard intact. Exit codes: 0
// complete, 1 error, 2 usage, 3 deadline truncation, 4 unrecoverable
// checkpoint corruption, 130 interrupted by signal.
//
// Output contract: stdout carries only the final result — a text
// summary, or with -json a single JSON object whose "checked" and
// "equilibria" fields are the deterministic merge (project those two
// for byte-comparison; the surrounding object also carries run
// metadata and counters). Diagnostics go to stderr.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"bbc/internal/cli"
	"bbc/internal/core"
	"bbc/internal/fleet"
	"bbc/internal/obs"
	"bbc/internal/runctl"
)

// options collects every flag; run consumes it so tests can drive the
// command without a process boundary.
type options struct {
	n, k         int
	load         string
	agg          string
	pin          bool
	workers      string
	shards       int
	leaseTTL     time.Duration
	solveWorkers int
	poll         time.Duration
	maxAttempts  int
	apiKey       string
	tail         bool
	jsonOut      bool
	cli.Flags

	stdout, stderr io.Writer
}

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

// cliMain is the whole command behind a testable seam.
func cliMain(args []string, stdout, stderr io.Writer) int {
	o := options{stdout: stdout, stderr: stderr}
	fs := cli.NewFlagSet("bbcfleet", stderr, &o.Flags, cli.RunControl)
	fs.IntVar(&o.n, "n", 6, "number of players (uniform game; ignored with -load)")
	fs.IntVar(&o.k, "k", 1, "per-player link budget (uniform game; ignored with -load)")
	fs.StringVar(&o.load, "load", "", "load a game spec or core.Instance JSON file instead of -n/-k")
	fs.StringVar(&o.agg, "agg", "sum", "cost aggregation: sum or max")
	fs.BoolVar(&o.pin, "pin", false, "scan the soundly pinned search space (unit-length games)")
	fs.StringVar(&o.workers, "workers", "", "comma-separated bbcserved base URLs (required)")
	fs.IntVar(&o.shards, "shards", 0, "shard leases to split the space into (0 = 4 per worker)")
	fs.DurationVar(&o.leaseTTL, "lease-ttl", 30*time.Second, "lease deadline without a heartbeat before a shard is re-leased")
	fs.IntVar(&o.solveWorkers, "solve-workers", 0, "per-shard solver parallelism on each worker (0 = serial)")
	fs.DurationVar(&o.poll, "poll", 100*time.Millisecond, "job status poll period (each poll heartbeats the lease)")
	fs.IntVar(&o.maxAttempts, "max-attempts", 0, "lease grants per shard before the run fails (0 = 8)")
	fs.StringVar(&o.apiKey, "api-key", "", "X-API-Key identifying this fleet to worker admission control")
	fs.BoolVar(&o.tail, "tail", false, "stream worker job events into the journal over SSE")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the result as one JSON object on stdout")
	return cli.Main(fs, args, "", func(ctx context.Context) (runctl.Status, int, error) {
		status, err := run(ctx, o)
		return status, 0, err
	})
}

// result is the machine-readable run outcome. Checked and Equilibria
// are the deterministic merge; everything else is run metadata.
type result struct {
	N          int              `json:"n"`
	Agg        string           `json:"agg"`
	Space      string           `json:"space"`
	SpaceSize  uint64           `json:"space_size"`
	Pivot      int              `json:"pivot"`
	Workers    int              `json:"workers"`
	Shards     int              `json:"shards"`
	ShardsDone int              `json:"shards_done"`
	Checked    uint64           `json:"checked"`
	Equilibria []core.Profile   `json:"equilibria"`
	Complete   bool             `json:"complete"`
	Status     string           `json:"status"`
	Counters   map[string]int64 `json:"counters,omitempty"`
}

// run executes one fleet scan according to the options.
func run(ctx context.Context, o options) (runctl.Status, error) {
	var workers []string
	for _, w := range strings.Split(o.workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			workers = append(workers, strings.TrimRight(w, "/"))
		}
	}
	if len(workers) == 0 {
		return runctl.StatusComplete, fmt.Errorf("at least one -workers URL is required")
	}
	if o.Checkpoint != "" && o.Resume != "" {
		return runctl.StatusComplete, fmt.Errorf("-checkpoint and -resume are exclusive; -resume keeps persisting to its path")
	}

	spec, err := loadSpec(o)
	if err != nil {
		return runctl.StatusComplete, err
	}

	return o.Start(ctx, "bbcfleet", o.stderr, func(ctx context.Context, rt *cli.Run) (runctl.Status, error) {
		return scan(ctx, o, spec, workers, rt)
	})
}

// scan plans and runs the fleet scan, journals its outcome and prints
// the result.
func scan(ctx context.Context, o options, spec core.Spec, workers []string, rt *cli.Run) (runctl.Status, error) {
	cfg := fleet.Config{
		Spec:           spec,
		Agg:            o.agg,
		Pin:            o.pin,
		Workers:        workers,
		Shards:         o.shards,
		LeaseTTL:       o.leaseTTL,
		PollEvery:      o.poll,
		SolveWorkers:   o.solveWorkers,
		MaxAttempts:    o.maxAttempts,
		APIKey:         o.apiKey,
		CheckpointPath: o.Checkpoint,
		Tail:           o.tail,
		Reg:            rt.Reg,
		Journal:        rt.Journal,
	}
	if o.Resume != "" {
		cfg.CheckpointPath = o.Resume
		cfg.Resume = true
	}
	plan, err := fleet.Plan(cfg)
	if err != nil {
		return runctl.StatusComplete, err
	}
	var prog *obs.Progress
	if o.Progress {
		prog = obs.StartProgress(o.stderr, "shards", uint64(plan.Shards()),
			obs.MetricReader(rt.Reg, obs.MFleetShardsDone), time.Second)
	}
	res, err := plan.Run(ctx)
	prog.Stop()
	if err != nil {
		return runctl.StatusComplete, err
	}

	out := &result{
		N:          spec.N(),
		Agg:        o.agg,
		Space:      res.Space,
		SpaceSize:  res.SpaceSize,
		Pivot:      res.Pivot,
		Workers:    len(workers),
		Shards:     res.Shards,
		ShardsDone: res.ShardsDone,
		Checked:    res.NE.Checked,
		Equilibria: res.NE.Equilibria,
		Complete:   res.NE.Complete,
		Status:     res.NE.Status.String(),
		Counters:   rt.Reg.Snapshot(),
	}
	rt.Journal.RunStatus(out.Status, out.Complete, map[string]any{
		"mode": "fleet", "shards": out.Shards, "shards_done": out.ShardsDone,
		"checked": out.Checked, "equilibria": len(out.Equilibria),
	})
	if o.jsonOut {
		enc := json.NewEncoder(o.stdout)
		enc.SetIndent("", "  ")
		return res.NE.Status, enc.Encode(out)
	}
	report(o.stdout, out)
	return res.NE.Status, nil
}

// loadSpec reads the game: a -load file holding either a bare spec or a
// core.Instance (whose profile is ignored — the fleet scans the whole
// space), or the -n/-k uniform game.
func loadSpec(o options) (core.Spec, error) {
	if o.load == "" {
		return core.NewUniform(o.n, o.k)
	}
	data, err := os.ReadFile(o.load)
	if err != nil {
		return nil, err
	}
	var inst core.Instance
	if err := json.Unmarshal(data, &inst); err == nil && inst.Spec != nil {
		return inst.Spec, nil
	}
	return core.UnmarshalSpec(data)
}

// report prints the human-readable fleet summary.
func report(w io.Writer, out *result) {
	fmt.Fprintf(w, "(n=%d, %s cost, %s space of %d profiles, pivot node %d)\n",
		out.N, out.Agg, out.Space, out.SpaceSize, out.Pivot)
	fmt.Fprintf(w, "fleet: %d workers, %d shards, %d merged\n", out.Workers, out.Shards, out.ShardsDone)
	fmt.Fprintf(w, "checked %d profiles, found %d pure Nash equilibria\n", out.Checked, len(out.Equilibria))
	if out.Complete {
		fmt.Fprintln(w, "run complete: merge is byte-identical to a single-box scan")
	} else {
		fmt.Fprintf(w, "run ended early (status %s): partial merge of %d/%d shards\n",
			out.Status, out.ShardsDone, out.Shards)
	}
}
