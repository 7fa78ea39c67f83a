// Command bbcsweep runs resumable parameter-grid sweeps over the BBC
// engines: every (workload, dist, agg, n, k, trial) tuple in the cross
// product of the comma-separated axis flags runs through the enumeration
// scanner, the best-response walker or the exact PoA/PoS pipeline, and
// emits one CSV row (stdout, or -csv FILE) plus, with -jsonl, one JSON
// record — verdicts, work counters, wall time, latency quantiles.
//
// Usage:
//
//	bbcsweep -n 4,5 -k 1,2 [-dist uniform,nonuniform] [-agg sum,max]
//	         [-workload enumerate,dynamics,experiment] [-trials 2]
//	         [-max-profiles 1048576] [-max-steps 0] [-seed 0]
//	         [-csv rows.csv] [-jsonl rows.jsonl] [-deterministic]
//	         [-checkpoint sweep.ckpt] [-resume sweep.ckpt] [-timeout 10m]
//	         [-journal run.jsonl] [-progress] [-trace trace.json] [-pprof :6060]
//
// Run control: SIGINT/SIGTERM stop the sweep gracefully — the running
// tuple observes the cancellation, its partial result is dropped, rows
// emitted so far stand, and the journal receives a final run_status
// record. -checkpoint persists every completed tuple (atomic,
// checksummed write-fsync-rename, previous generation kept at
// <path>.prev); -resume replays completed tuples byte-identically and
// runs only the rest — output files are rewritten from the start, so a
// resumed -deterministic sweep's CSV/JSONL are byte-identical to an
// uninterrupted run's. Exit codes: 0 full pass, 1 tuple failure or
// error, 2 usage, 3 deadline truncation, 4 unrecoverable checkpoint
// corruption, 130 interrupted by signal.
//
// Output contract: stdout carries only CSV rows (suppressed when -csv
// redirects them to a file); diagnostics and progress go to stderr.
// -deterministic masks the volatile timing fields (wall_ms, latency
// quantiles, *_nanos counters) so identical grids produce byte-identical
// files — the mode CI diffs run under.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"bbc/internal/cli"
	"bbc/internal/obs"
	"bbc/internal/runctl"
	"bbc/internal/sweep"
)

// options collects every flag; run consumes it so tests can drive the
// command without a process boundary.
type options struct {
	workloads, dists, aggs string
	ns, ks                 string
	trials                 int
	maxProfiles            uint64
	maxSteps               int
	seed                   int64

	csvPath, jsonlPath string
	deterministic      bool
	cli.Flags

	stdout, stderr io.Writer
}

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

// cliMain is the whole command behind a testable seam: the e2e tests
// re-exec the test binary into it to exercise real signals and kill -9.
func cliMain(args []string, stdout, stderr io.Writer) int {
	o := options{stdout: stdout, stderr: stderr}
	fs := cli.NewFlagSet("bbcsweep", stderr, &o.Flags, cli.RunControl)
	fs.StringVar(&o.workloads, "workload", "enumerate", "comma-separated workloads: enumerate, dynamics, experiment")
	fs.StringVar(&o.dists, "dist", "uniform", "comma-separated length distributions: uniform, nonuniform")
	fs.StringVar(&o.aggs, "agg", "sum", "comma-separated aggregations: sum, max")
	fs.StringVar(&o.ns, "n", "", "comma-separated player counts (required)")
	fs.StringVar(&o.ks, "k", "", "comma-separated budgets (required)")
	fs.IntVar(&o.trials, "trials", 1, "trials per grid point (the trial index seeds each tuple's RNG)")
	fs.Uint64Var(&o.maxProfiles, "max-profiles", 0, "profile budget per enumeration/optimum scan (0 = 1048576)")
	fs.IntVar(&o.maxSteps, "max-steps", 0, "step budget per best-response walk (0 = 10·n²)")
	fs.Int64Var(&o.seed, "seed", 0, "base seed offsetting every tuple's RNG stream")
	fs.StringVar(&o.csvPath, "csv", "", "write CSV rows to this file instead of stdout")
	fs.StringVar(&o.jsonlPath, "jsonl", "", "additionally write one JSON record per tuple to this file")
	fs.BoolVar(&o.deterministic, "deterministic", false, "mask volatile timing fields so identical grids emit byte-identical files")
	return cli.Main(fs, args, "tuple", func(ctx context.Context) (runctl.Status, int, error) {
		return run(ctx, o)
	})
}

// parseGrid turns the axis flags into a validated sweep.Config.
func parseGrid(o options) (sweep.Config, error) {
	cfg := sweep.Config{
		Workloads:   splitList(o.workloads),
		Dists:       splitList(o.dists),
		Aggs:        splitList(o.aggs),
		Trials:      o.trials,
		MaxProfiles: o.maxProfiles,
		MaxSteps:    o.maxSteps,
		Seed:        o.seed,
	}
	var err error
	if cfg.Ns, err = parseInts(o.ns); err != nil {
		return cfg, fmt.Errorf("%w: -n: %v", cli.ErrUsage, err)
	}
	if cfg.Ks, err = parseInts(o.ks); err != nil {
		return cfg, fmt.Errorf("%w: -k: %v", cli.ErrUsage, err)
	}
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("%w: %v", cli.ErrUsage, err)
	}
	return cfg, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("at least one value is required")
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// run executes the sweep under run control and reports how it ended plus
// the number of failing tuples.
func run(ctx context.Context, o options) (runctl.Status, int, error) {
	cfg, err := parseGrid(o)
	if err != nil {
		return runctl.StatusComplete, 0, err
	}
	fp := cfg.Fingerprint()
	failures := 0
	status, err := o.Start(ctx, "bbcsweep", o.stderr, func(ctx context.Context, rt *cli.Run) (runctl.Status, error) {
		var cp sweep.Checkpoint
		from, err := rt.LoadResume(sweep.CheckpointKind, fp, &cp)
		if err != nil {
			return runctl.StatusComplete, err
		}
		done := cp.Results
		if done == nil {
			done = map[int]*sweep.Result{}
		}
		if from != "" {
			fmt.Fprintf(o.stderr, "bbcsweep: resuming grid from %s (%d of %d tuples already done)\n",
				from, len(done), len(cfg.Tuples()))
		}
		var status runctl.Status
		status, failures, err = runSweep(ctx, o, cfg, fp, done, rt)
		return status, err
	})
	return status, failures, err
}

// runSweep drives the grid: output sinks are (re)created from the start
// — resume rewrites, never appends, so the merged files are identical to
// an uninterrupted run's — and every fresh tuple is checkpointed before
// the next starts.
func runSweep(ctx context.Context, o options, cfg sweep.Config, fp string, done map[int]*sweep.Result, rt *cli.Run) (runctl.Status, int, error) {
	var csv *obs.CSVWriter
	if o.csvPath != "" {
		f, err := obs.CreateCSVFile(nil, o.csvPath, sweep.Columns...)
		if err != nil {
			return runctl.StatusComplete, 0, err
		}
		csv = f
	} else {
		csv = obs.NewCSVWriter(o.stdout, sweep.Columns...)
	}
	defer csv.Close()
	var jsonl *obs.JSONLWriter
	if o.jsonlPath != "" {
		j, err := obs.CreateJSONLFile(nil, o.jsonlPath)
		if err != nil {
			return runctl.StatusComplete, 0, err
		}
		jsonl = j
	}
	defer jsonl.Close()

	tuples := cfg.Tuples()
	emitted := 0
	var prog *obs.Progress
	if o.Progress {
		progRead := func() uint64 { return uint64(emitted) }
		prog = obs.StartProgress(o.stderr, "tuples", uint64(len(tuples)), progRead, time.Second)
	}
	defer prog.Stop()

	// save persists the completed-tuple set. A failure degrades
	// gracefully: the sweep keeps running on in-memory state (losing
	// resumability, not rows), and the next completed tuple retries from
	// scratch.
	save := func(done map[int]*sweep.Result) {
		err := rt.Save(sweep.CheckpointKind, fp, runctl.StatusFromContext(ctx),
			&sweep.Checkpoint{Results: done}, map[string]any{"completed": len(done)})
		if err != nil {
			fmt.Fprintf(o.stderr, "bbcsweep: checkpoint save failed (sweep continues): %v\n", err)
		}
	}

	sum, err := sweep.Run(cfg, sweep.RunConfig{
		Ctx:  ctx,
		Done: done,
		Save: save,
		OnResult: func(r *sweep.Result, resumed bool) {
			csv.Record(r.CSVRecord(o.deterministic)...)
			jsonl.Record(r.Masked(o.deterministic))
			emitted++
			rt.Journal.Event("tuple", map[string]any{
				"index":   r.Index,
				"verdict": r.Verdict,
				"pass":    r.Pass,
				"wall_ms": r.WallMS,
				"resumed": resumed,
			})
		},
	})
	if err != nil {
		return runctl.StatusComplete, 0, fmt.Errorf("%w: %v", cli.ErrUsage, err)
	}
	rt.Journal.RunStatus(sum.Status.String(), sum.Status.Complete(), map[string]any{
		"completed": sum.Completed,
		"total":     sum.Total,
		"failures":  sum.Failures,
		"resumed":   sum.Resumed,
	})
	if cerr := csv.Close(); cerr != nil {
		return sum.Status, sum.Failures, cerr
	}
	if jerr := jsonl.Close(); jerr != nil {
		return sum.Status, sum.Failures, jerr
	}
	fmt.Fprintf(o.stderr, "bbcsweep: %d/%d tuples (%d resumed, %d failed), status %s\n",
		sum.Completed, sum.Total, sum.Resumed, sum.Failures, sum.Status)
	return sum.Status, sum.Failures, nil
}
