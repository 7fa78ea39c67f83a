// Command bbcsim runs a best-response walk — or, with -enumerate, an
// exhaustive pure-Nash-equilibrium scan — on a BBC game and reports the
// outcome with full run control: cancellation, deadlines, work budgets
// and checkpoint/resume.
//
// Usage:
//
//	bbcsim -n 12 -k 2 [-agg sum|max] [-sched round-robin|max-cost-first|random]
//	       [-start empty|random] [-seed 1] [-steps 0] [-print-moves] [-json]
//	       [-timeout 0] [-journal run.jsonl] [-trace run.trace.json]
//	       [-progress] [-pprof :6060]
//	bbcsim -enumerate [-load game.json | -n 6 -k 1] [-pin] [-parallel 0]
//	       [-quotient] [-batch-bfs=false] [-max-ne 0] [-max-profiles 0]
//	       [-timeout 30s] [-checkpoint run.ckpt] [-resume run.ckpt] [-json]
//
// Run control: SIGINT/SIGTERM cancel the run gracefully — partial
// results are reported (Complete: false plus a status naming the
// reason), the journal receives a final run_status record, and when
// -checkpoint is set a resumable snapshot is flushed. -timeout bounds
// wall time; -max-profiles (enumeration) and -steps (walks) bound work;
// both truncate with status "budget". Exit codes: 0 complete, 1 error,
// 2 usage, 3 budget/deadline truncation, 4 unrecoverable checkpoint
// corruption, 130 interrupted by signal.
//
// Checkpoint/resume: -checkpoint writes a versioned, checksummed JSON
// snapshot (atomic write-fsync-rename) periodically and on every early
// stop, keeping the previous good snapshot as <path>.prev. -resume
// continues from one: a corrupt primary is quarantined to
// <path>.corrupt and the previous generation is used automatically;
// only when no generation is loadable does the run fail (exit 4). A
// resumed enumeration checks exactly the profiles the uninterrupted run
// would have and returns identical equilibria in identical order. Serial
// (-parallel 1) and parallel scans write the same checkpoint shape, so
// either resumes the other's snapshot.
//
// Output contract: stdout carries only the final run result — the text
// summary, or a single JSON object with -json — so it stays
// machine-parseable. Move lines (-print-moves), progress/ETA lines
// (-progress) and all diagnostics go to stderr.
//
// Observability: -journal writes a JSONL run journal (one "move" record
// per rewiring step plus "summary", "checkpoint" and a final
// "run_status" record, each with wall time and solver counter
// snapshots), -trace records solver spans and writes them as a Chrome
// trace-event JSON file on exit (load it in Perfetto or
// chrome://tracing), -progress prints a throttled rate/ETA line to
// stderr, and -pprof serves net/http/pprof, the counter registry
// (expvar "bbc_counters") and a Prometheus /metrics endpoint at the
// given address while the run is live.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"time"

	"bbc/internal/analysis"
	"bbc/internal/core"
	"bbc/internal/dynamics"
	"bbc/internal/obs"
	"bbc/internal/runctl"
)

// options collects every flag; run consumes it so tests can drive the
// command without a process boundary.
type options struct {
	n, k       int
	agg        string
	sched      string
	start      string
	load       string
	seed       int64
	steps      int
	printMoves bool
	jsonOut    bool
	journal    string
	trace      string
	progress   bool
	pprof      string

	enumerate   bool
	pin         bool
	quotient    bool
	batchBFS    bool
	parallel    int
	maxNE       int
	maxProfiles uint64
	timeout     time.Duration
	checkpoint  string
	resume      string

	stdout, stderr io.Writer
}

func main() {
	var o options
	flag.IntVar(&o.n, "n", 12, "number of players")
	flag.IntVar(&o.k, "k", 2, "per-player link budget")
	flag.StringVar(&o.agg, "agg", "sum", "cost aggregation: sum or max")
	flag.StringVar(&o.sched, "sched", "round-robin", "scheduler: round-robin, max-cost-first or random")
	flag.StringVar(&o.start, "start", "empty", "starting profile: empty or random")
	flag.StringVar(&o.load, "load", "", "load a core.Instance JSON file (e.g. from bbcgen) instead of -n/-k/-start")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.IntVar(&o.steps, "steps", 0, "max walk steps, a work budget (0 = 10·n²)")
	flag.BoolVar(&o.printMoves, "print-moves", false, "print every move to stderr")
	flag.BoolVar(&o.jsonOut, "json", false, "emit the result as one JSON object on stdout")
	flag.StringVar(&o.journal, "journal", "", "write a JSONL run journal to this file")
	flag.StringVar(&o.trace, "trace", "", "write a Chrome trace-event JSON file of solver spans to this file")
	flag.BoolVar(&o.progress, "progress", false, "print progress/ETA to stderr")
	flag.StringVar(&o.pprof, "pprof", "", "serve pprof/expvar at this address (e.g. :6060)")
	flag.BoolVar(&o.enumerate, "enumerate", false, "exhaustively enumerate pure Nash equilibria instead of walking")
	flag.BoolVar(&o.pin, "pin", false, "enumerate over the soundly pinned search space (unit-length games)")
	flag.BoolVar(&o.quotient, "quotient", false, "skip profiles equivalent under the game's symmetry group (output is unchanged)")
	flag.BoolVar(&o.batchBFS, "batch-bfs", true, "rebuild distance oracles with bit-parallel multi-source BFS on unit-length games")
	flag.IntVar(&o.parallel, "parallel", 0, "enumeration workers (0 = NumCPU, 1 = serial with fine-grained checkpoints)")
	flag.IntVar(&o.maxNE, "max-ne", 0, "stop after this many equilibria (0 = all)")
	flag.Uint64Var(&o.maxProfiles, "max-profiles", 0, "profile budget for enumeration; truncates with status budget (0 = unbounded)")
	flag.DurationVar(&o.timeout, "timeout", 0, "wall-time budget, e.g. 30s; truncates with status deadline (0 = none)")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "write a resumable snapshot to this file (enumerate mode)")
	flag.StringVar(&o.resume, "resume", "", "resume an enumeration from this snapshot file")
	flag.Parse()
	o.stdout, o.stderr = os.Stdout, os.Stderr

	ctx, signalled, stopSignals := runctl.SignalContext(context.Background())
	status, err := run(ctx, o)
	stopSignals()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bbcsim: %v\n", err)
		os.Exit(runctl.ExitCodeForError(err))
	}
	if sig := signalled(); sig != nil {
		fmt.Fprintf(os.Stderr, "bbcsim: interrupted by %v; partial results flushed\n", sig)
	}
	os.Exit(runctl.ExitCode(status))
}

// run executes one walk or enumeration according to the options and
// reports how the run ended.
func run(ctx context.Context, o options) (runctl.Status, error) {
	agg, err := parseAgg(o.agg)
	if err != nil {
		return runctl.StatusComplete, err
	}
	if !o.enumerate && (o.checkpoint != "" || o.resume != "") {
		return runctl.StatusComplete, fmt.Errorf("-checkpoint/-resume apply to -enumerate runs")
	}
	ctx, cancelTimeout := runctl.WithDeadline(ctx, o.timeout)
	defer cancelTimeout()
	rng := rand.New(rand.NewSource(o.seed))

	var (
		spec      core.Spec
		p         core.Profile
		startName string
	)
	if o.load != "" {
		data, err := os.ReadFile(o.load)
		if err != nil {
			return runctl.StatusComplete, err
		}
		var inst core.Instance
		if err := json.Unmarshal(data, &inst); err != nil {
			return runctl.StatusComplete, err
		}
		spec, p, startName = inst.Spec, inst.Profile, "loaded:"+o.load
	} else {
		uni, err := core.NewUniform(o.n, o.k)
		if err != nil {
			return runctl.StatusComplete, err
		}
		spec = uni
		startName = o.start
		switch o.start {
		case "empty":
			p = core.NewEmptyProfile(o.n)
		case "random":
			p = dynamics.RandomStart(rng, o.n, o.k)
		default:
			return runctl.StatusComplete, fmt.Errorf("unknown start %q", o.start)
		}
	}

	rt, err := obs.StartCLIConfig(obs.CLIConfig{
		Name:    "bbcsim",
		Journal: o.journal,
		// A resumed run continues the interrupted run's journal instead of
		// truncating it: its records survive, sequence numbers continue.
		AppendJournal: o.resume != "",
		Trace:         o.trace,
		Pprof:         o.pprof,
		Stderr:        o.stderr,
	})
	if err != nil {
		return runctl.StatusComplete, err
	}
	if o.enumerate {
		status, err := runEnumerate(ctx, o, spec, agg, rt)
		if cerr := rt.Close(); err == nil && cerr != nil {
			err = cerr
		}
		return status, err
	}
	status, err := runWalk(ctx, o, spec, p, agg, startName, rng, rt)
	if cerr := rt.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return status, err
}

// runWalk executes the best-response walk mode.
func runWalk(ctx context.Context, o options, spec core.Spec, p core.Profile, agg core.Aggregation, startName string, rng *rand.Rand, rt *obs.Runtime) (runctl.Status, error) {
	n := spec.N()
	sched, err := parseScheduler(o.sched, n, agg, rng)
	if err != nil {
		return runctl.StatusComplete, err
	}
	var prog *obs.Progress
	if o.progress {
		maxSteps := o.steps
		if maxSteps <= 0 {
			maxSteps = 10 * n * n
		}
		prog = obs.StartProgress(o.stderr, "walk", uint64(maxSteps),
			obs.MetricReader(rt.Reg, obs.MWalkSteps), time.Second)
	}
	res, err := dynamics.Run(spec, p, sched, agg, dynamics.Options{
		Ctx:         ctx,
		MaxSteps:    o.steps,
		DetectLoops: o.sched != "random",
		Trace:       o.printMoves,
		Journal:     rt.Journal,
	})
	prog.Stop()
	if err != nil {
		return runctl.StatusComplete, err
	}

	out := summarize(res, spec, o, startName, rt.Reg)
	rt.Journal.Event("summary", map[string]any{
		"n":                 out.N,
		"agg":               out.Agg,
		"scheduler":         out.Scheduler,
		"start":             out.Start,
		"seed":              out.Seed,
		"steps":             out.Steps,
		"moves":             out.Moves,
		"outcome":           out.Outcome,
		"connectivity_step": out.ConnectivityStep,
		"social_cost":       out.SocialCost,
	})
	rt.Journal.RunStatus(res.Status.String(), out.Complete, map[string]any{
		"mode":  "walk",
		"steps": out.Steps,
	})

	if o.printMoves {
		for _, rec := range res.Trace {
			if rec.Moved {
				fmt.Fprintf(o.stderr, "step %4d: node %d rewires %v -> %v (cost %d -> %d)\n",
					rec.Step, rec.Node, rec.From, rec.To, rec.CostBefore, rec.CostAfter)
			}
		}
	}
	if o.jsonOut {
		enc := json.NewEncoder(o.stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return res.Status, err
		}
		return walkExitStatus(res), nil
	}
	report(o.stdout, res, out, n)
	return walkExitStatus(res), nil
}

// walkExitStatus maps a walk result to the process exit status: budget
// exhaustion ("exhausted" walks) is an expected outcome for walks that
// need not converge, so only cancellation and deadlines are non-zero.
func walkExitStatus(res *dynamics.Result) runctl.Status {
	if res.Status == runctl.StatusBudget {
		return runctl.StatusComplete
	}
	return res.Status
}

// result is the machine-readable run outcome (-json, and mirrored by the
// journal's summary record).
type result struct {
	N                 int              `json:"n"`
	Agg               string           `json:"agg"`
	Scheduler         string           `json:"scheduler"`
	Start             string           `json:"start"`
	Seed              int64            `json:"seed"`
	Steps             int              `json:"steps"`
	Moves             int              `json:"moves"`
	Outcome           string           `json:"outcome"` // converged | loop | exhausted | cancelled | deadline
	Status            string           `json:"status"`  // complete | cancelled | deadline | budget
	Complete          bool             `json:"complete"`
	LoopLength        int              `json:"loop_length,omitempty"`
	LoopMoves         int              `json:"loop_moves,omitempty"`
	ConnectivityStep  int              `json:"connectivity_step"`
	MinCost           int64            `json:"min_cost"`
	MaxCost           int64            `json:"max_cost"`
	FairnessRatio     float64          `json:"fairness_ratio"`
	Diameter          int64            `json:"diameter"`
	StronglyConnected bool             `json:"strongly_connected"`
	SocialCost        int64            `json:"social_cost"`
	Counters          map[string]int64 `json:"counters,omitempty"`
}

func summarize(res *dynamics.Result, spec core.Spec, o options, startName string, reg *obs.Registry) *result {
	agg, _ := parseAgg(o.agg)
	out := &result{
		N:                spec.N(),
		Agg:              o.agg,
		Scheduler:        o.sched,
		Start:            startName,
		Seed:             o.seed,
		Steps:            res.Steps,
		Moves:            res.Moves,
		Status:           res.Status.String(),
		Complete:         res.Status != runctl.StatusCancelled && res.Status != runctl.StatusDeadline,
		ConnectivityStep: res.ConnectivityStep,
		SocialCost:       core.SocialCost(spec, res.Final, agg),
	}
	switch {
	case res.Converged:
		out.Outcome = "converged"
	case res.Loop != nil:
		out.Outcome = "loop"
		out.LoopLength = res.Loop.Length
		out.LoopMoves = len(res.Loop.Moves)
	case res.Status == runctl.StatusCancelled:
		out.Outcome = "cancelled"
	case res.Status == runctl.StatusDeadline:
		out.Outcome = "deadline"
	default:
		out.Outcome = "exhausted"
	}
	fair := analysis.MeasureFairness(spec, res.Final, agg)
	out.MinCost, out.MaxCost, out.FairnessRatio = fair.Min, fair.Max, fair.Ratio
	if math.IsInf(out.FairnessRatio, 0) {
		out.FairnessRatio = -1 // JSON has no Inf; -1 marks "min cost is zero"
	}
	d := analysis.MeasureDiameter(spec, res.Final)
	out.Diameter, out.StronglyConnected = d.Diameter, d.StronglyConnected
	out.Counters = reg.Snapshot()
	return out
}

func parseAgg(name string) (core.Aggregation, error) {
	switch name {
	case "sum":
		return core.SumDistances, nil
	case "max":
		return core.MaxDistance, nil
	default:
		return 0, fmt.Errorf("unknown aggregation %q", name)
	}
}

func parseScheduler(name string, n int, agg core.Aggregation, rng *rand.Rand) (dynamics.Scheduler, error) {
	switch name {
	case "round-robin":
		return dynamics.NewRoundRobin(n), nil
	case "max-cost-first":
		return &dynamics.MaxCostFirst{Agg: agg}, nil
	case "random":
		return &dynamics.RandomScheduler{Rng: rng}, nil
	default:
		return nil, fmt.Errorf("unknown scheduler %q", name)
	}
}

// report prints the human-readable walk summary.
func report(w io.Writer, res *dynamics.Result, out *result, n int) {
	fmt.Fprintf(w, "(n=%d, %s cost, %s walk from %s, seed %d)\n",
		n, out.Agg, out.Scheduler, out.Start, out.Seed)
	fmt.Fprintf(w, "steps: %d, moves: %d\n", res.Steps, res.Moves)
	switch out.Outcome {
	case "converged":
		fmt.Fprintln(w, "outcome: converged to a pure Nash equilibrium")
	case "loop":
		fmt.Fprintf(w, "outcome: certified best-response loop (%d moves over %d steps)\n",
			out.LoopMoves, out.LoopLength)
	case "cancelled":
		fmt.Fprintln(w, "outcome: interrupted (partial result)")
	case "deadline":
		fmt.Fprintln(w, "outcome: wall-time budget exhausted (partial result)")
	default:
		fmt.Fprintln(w, "outcome: step budget exhausted without convergence or loop")
	}
	if res.ConnectivityStep >= 0 {
		fmt.Fprintf(w, "strong connectivity reached at step %d (n² = %d)\n", res.ConnectivityStep, n*n)
	} else {
		fmt.Fprintln(w, "strong connectivity never reached")
	}
	fmt.Fprintf(w, "final costs: min=%d max=%d ratio=%.3f\n", out.MinCost, out.MaxCost, out.FairnessRatio)
	fmt.Fprintf(w, "final graph: diameter=%d stronglyConnected=%v socialCost=%d\n",
		out.Diameter, out.StronglyConnected, out.SocialCost)
}
