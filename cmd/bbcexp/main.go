// Command bbcexp runs the paper-reproduction experiment suite (E1–E23,
// indexed in DESIGN.md) and prints the measured tables and findings that
// EXPERIMENTS.md records.
//
// Usage:
//
//	bbcexp [-quick] [-only E4,E12] [-json] [-timeout 0]
//	       [-checkpoint suite.ckpt] [-resume suite.ckpt]
//	       [-journal suite.jsonl] [-progress] [-pprof :6060]
//
// -quick skips the multi-minute exhaustive scans; -only restricts the run
// to a comma-separated list of experiment ids.
//
// Run control: SIGINT/SIGTERM stop the suite gracefully — the running
// experiment observes the cancellation (long scans and ensembles return
// partial, failing reports instead of hanging), no further experiments
// are scheduled, the reports collected so far are printed, and the
// journal receives a final run_status record. -timeout bounds the whole
// suite's wall time the same way. -checkpoint persists every completed
// experiment report (atomic, checksummed write-fsync-rename after each
// experiment, keeping the previous good snapshot as <path>.prev);
// -resume replays those reports and runs only the remaining
// experiments, quarantining a corrupt primary to <path>.corrupt and
// falling back to the previous generation automatically. Exit codes: 0
// full pass, 1 experiment failure or error, 2 usage, 3 deadline
// truncation, 4 unrecoverable checkpoint corruption, 130 interrupted by
// signal.
//
// Output contract: stdout carries only the experiment reports (text, or
// a JSON array with -json); progress lines and diagnostics go to stderr,
// so stdout stays machine-parseable.
//
// Observability: every report includes its wall time and the solver
// counter deltas it caused (oracle builds, BFS traversals, profiles
// checked, ...), so suite runs double as perf baselines. -journal
// additionally writes one JSONL "experiment" record per report plus
// "checkpoint" and final "run_status" records, -progress prints
// completion/ETA lines to stderr, and -pprof serves net/http/pprof and
// the counter registry (expvar "bbc_counters") while the suite runs.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"bbc/internal/cli"
	"bbc/internal/exper"
	"bbc/internal/obs"
	"bbc/internal/runctl"
)

// suiteCheckpointKind names the bbcexp snapshot schema inside the
// runctl.Checkpoint envelope.
const suiteCheckpointKind = "suite"

// suiteCheckpoint is the experiment-granular resume state: every
// completed experiment's full report, keyed by id.
type suiteCheckpoint struct {
	Reports map[string]*exper.Report `json:"reports"`
}

// options collects every flag; run consumes it so tests can drive the
// command without a process boundary.
type options struct {
	quick   bool
	only    string
	jsonOut bool
	cli.Flags

	stdout, stderr io.Writer
}

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

// cliMain is the whole command behind a testable seam.
func cliMain(args []string, stdout, stderr io.Writer) int {
	o := options{stdout: stdout, stderr: stderr}
	fs := cli.NewFlagSet("bbcexp", stderr, &o.Flags, cli.RunControl)
	fs.BoolVar(&o.quick, "quick", false, "skip the multi-minute exhaustive scans")
	fs.StringVar(&o.only, "only", "", "comma-separated experiment ids to run (default: all)")
	fs.BoolVar(&o.jsonOut, "json", false, "emit machine-readable JSON instead of text")
	return cli.Main(fs, args, "experiment", func(ctx context.Context) (runctl.Status, int, error) {
		return run(ctx, o)
	})
}

// run executes the selected experiments under run control and reports
// how the suite ended plus the number of failing experiments.
func run(ctx context.Context, o options) (runctl.Status, int, error) {
	suite, err := selectSuite(o.only)
	if err != nil {
		return runctl.StatusComplete, 0, err
	}
	fp := suiteFingerprint(o.quick, suite)
	failures := 0
	status, err := o.Start(ctx, "bbcexp", o.stderr, func(ctx context.Context, rt *cli.Run) (runctl.Status, error) {
		var cp suiteCheckpoint
		from, err := rt.LoadResume(suiteCheckpointKind, fp, &cp)
		if err != nil {
			return runctl.StatusComplete, err
		}
		done := cp.Reports
		if done == nil {
			done = map[string]*exper.Report{}
		}
		if from != "" {
			fmt.Fprintf(o.stderr, "bbcexp: resuming suite from %s (%d of %d experiments already done)\n",
				from, len(done), len(suite))
		}
		var status runctl.Status
		status, failures, err = runSuite(ctx, o, suite, done, fp, rt)
		return status, err
	})
	return status, failures, err
}

// runSuite drives the experiment loop: replayed reports come from the
// resume snapshot, fresh ones run under ctx, and each completion is
// checkpointed before the next experiment starts.
func runSuite(ctx context.Context, o options, suite []exper.Experiment, done map[string]*exper.Report, fp string, rt *cli.Run) (runctl.Status, int, error) {
	var completed atomic.Int64
	var prog *obs.Progress
	if o.Progress {
		prog = obs.StartProgress(o.stderr, "experiments", uint64(len(suite)),
			func() uint64 { return uint64(completed.Load()) }, time.Second)
	}
	defer prog.Stop()

	// save persists the completed-report set. A failure degrades
	// gracefully: the suite keeps running on in-memory state (losing
	// resumability, not results), and the next completed experiment
	// retries from scratch.
	save := func() {
		err := rt.Save(suiteCheckpointKind, fp, runctl.StatusFromContext(ctx),
			&suiteCheckpoint{Reports: done}, map[string]any{"completed": len(done)})
		if err != nil {
			fmt.Fprintf(o.stderr, "bbcexp: checkpoint save failed (suite continues): %v\n", err)
		}
	}

	cfg := exper.Config{Quick: o.quick, Ctx: ctx}
	selected := []*exper.Report{} // non-nil: an interrupted run still emits [] on stdout
	failures := 0
	interrupted := false
	for _, e := range suite {
		if cfg.Interrupted() {
			interrupted = true
			break
		}
		r, resumed := done[e.ID], true
		if r == nil {
			r, resumed = exper.Instrumented(e.Run, cfg), false
			// An experiment cut short by cancellation reports a partial
			// failure; keep it out of the snapshot so a resumed suite
			// re-runs it in full.
			if !cfg.Interrupted() {
				done[e.ID] = r
				save()
			}
		}
		completed.Add(1)
		selected = append(selected, r)
		rt.Journal.Event("experiment", map[string]any{
			"id":       r.ID,
			"title":    r.Title,
			"pass":     r.Pass,
			"wall_ms":  r.WallMS,
			"counters": r.Counters,
			"resumed":  resumed,
		})
		if !o.jsonOut {
			fmt.Fprint(o.stdout, r)
			fmt.Fprintln(o.stdout)
		}
		if !r.Pass {
			failures++
		}
	}

	status := runctl.StatusComplete
	if interrupted || cfg.Interrupted() {
		status = runctl.StatusFromContext(ctx)
		if status == runctl.StatusComplete {
			status = runctl.StatusCancelled
		}
	}
	rt.Journal.RunStatus(status.String(), status.Complete(), map[string]any{
		"completed": len(selected),
		"total":     len(suite),
		"failures":  failures,
	})
	if o.jsonOut {
		enc := json.NewEncoder(o.stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(selected); err != nil {
			return status, failures, err
		}
	}
	return status, failures, nil
}

// selectSuite resolves -only against the full suite, rejecting unknown
// ids.
func selectSuite(only string) ([]exper.Experiment, error) {
	wanted := map[string]bool{}
	if only != "" {
		for _, id := range strings.Split(only, ",") {
			wanted[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	// Track the full selection and the not-yet-seen ids separately:
	// deleting matches from the selection set while iterating would turn
	// "all requested ids seen" into "run everything after them".
	all := len(wanted) == 0
	var suite []exper.Experiment
	for _, e := range exper.Suite() {
		if all || wanted[e.ID] {
			suite = append(suite, e)
			delete(wanted, e.ID)
		}
	}
	if len(wanted) > 0 {
		var unknown []string
		for id := range wanted {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("%w: unknown experiment id(s): %s", cli.ErrUsage, strings.Join(unknown, ", "))
	}
	return suite, nil
}

// suiteFingerprint ties a suite checkpoint to the experiment selection
// and quick mode that produced it, so reports are never replayed into a
// differently-configured run.
func suiteFingerprint(quick bool, suite []exper.Experiment) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "quick=%v;", quick)
	for _, e := range suite {
		fmt.Fprintf(h, "%s;", e.ID)
	}
	return fmt.Sprintf("suite-%016x", h.Sum64())
}
