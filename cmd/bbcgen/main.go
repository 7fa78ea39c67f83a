// Command bbcgen generates BBC game instances as JSON (readable by the
// core.Instance format), for scripting experiments outside this
// repository.
//
// Usage:
//
//	bbcgen -kind uniform -n 12 -k 2 > game.json
//	bbcgen -kind random -n 10 -max-weight 4 -max-budget 3 -seed 7 > game.json
//	bbcgen -kind willows -k 2 -h 2 -l 1 > willows.json
//	bbcgen -kind gadget > gadget.json
//
// The emitted instance carries a profile: empty for uniform/random, the
// stable construction profile for willows, and the (L,L) intended state
// for the gadget.
//
// Output contract: stdout carries only the instance JSON; progress lines
// and diagnostics go to stderr. The shared observability flags are
// -journal out.jsonl (one "generate" record per run), -progress
// (completion line on stderr) and -pprof addr (pprof + expvar counters).
//
// Run control: a SIGINT/SIGTERM before the instance JSON is written
// suppresses the (possibly torn) output, flushes a final run_status
// journal record and exits 130; after the output is written the run is
// complete and exits 0.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"bbc/internal/cli"
	"bbc/internal/construct"
	"bbc/internal/core"
	"bbc/internal/runctl"
)

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

// cliMain is the whole command behind a testable seam.
func cliMain(args []string, stdout, stderr io.Writer) int {
	var f cli.Flags
	fs := cli.NewFlagSet("bbcgen", stderr, &f, cli.Obs)
	var (
		kind      = fs.String("kind", "uniform", "instance kind: uniform, random, willows or gadget")
		n         = fs.Int("n", 10, "players (uniform, random)")
		k         = fs.Int("k", 2, "budget (uniform) / tree count (willows)")
		h         = fs.Int("h", 2, "tree height (willows)")
		l         = fs.Int("l", 1, "tail length (willows)")
		maxWeight = fs.Int64("max-weight", 3, "random: weights drawn from 0..max-weight")
		maxCost   = fs.Int64("max-cost", 0, "random: link costs drawn from 1..max-cost (0 = uniform)")
		maxLength = fs.Int64("max-length", 0, "random: lengths drawn from 1..max-length (0 = uniform)")
		maxBudget = fs.Int64("max-budget", 2, "random: budgets drawn from 1..max-budget")
		seed      = fs.Int64("seed", 1, "random seed")
	)
	return cli.Main(fs, args, "", func(ctx context.Context) (runctl.Status, int, error) {
		status, err := f.Start(ctx, "bbcgen", stderr, func(ctx context.Context, rt *cli.Run) (runctl.Status, error) {
			start := time.Now()
			inst, err := generate(*kind, *n, *k, *h, *l, *maxWeight, *maxCost, *maxLength, *maxBudget, *seed)
			if err != nil {
				return runctl.StatusComplete, err
			}
			rt.Journal.Event("generate", map[string]any{
				"kind": *kind, "n": inst.Spec.N(), "seed": *seed,
				"wall_ms": float64(time.Since(start).Microseconds()) / 1000,
			})
			status := runctl.StatusFromContext(ctx)
			rt.Journal.RunStatus(status.String(), status.Complete(), map[string]any{"kind": *kind})
			if !status.Complete() {
				fmt.Fprintln(stderr, "bbcgen: interrupted before output; no instance written")
				return status, nil
			}
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(inst); err != nil {
				return status, err
			}
			if f.Progress {
				fmt.Fprintf(stderr, "bbc: generate %s n=%d done in %s\n",
					*kind, inst.Spec.N(), time.Since(start).Round(time.Millisecond))
			}
			return status, nil
		})
		return status, 0, err
	})
}

func generate(kind string, n, k, h, l int, maxWeight, maxCost, maxLength, maxBudget, seed int64) (*core.Instance, error) {
	switch kind {
	case "uniform":
		spec, err := core.NewUniform(n, k)
		if err != nil {
			return nil, err
		}
		return &core.Instance{Spec: spec, Profile: core.NewEmptyProfile(n)}, nil
	case "random":
		rng := rand.New(rand.NewSource(seed))
		spec, err := core.GenerateDense(rng, core.GenerateParams{
			N:             n,
			MaxWeight:     maxWeight,
			EnsureSupport: maxWeight > 0,
			MaxCost:       maxCost,
			MaxLength:     maxLength,
			MaxBudget:     maxBudget,
		})
		if err != nil {
			return nil, err
		}
		return &core.Instance{Spec: spec, Profile: core.NewEmptyProfile(n)}, nil
	case "willows":
		w, err := construct.NewWillows(construct.WillowsParams{K: k, H: h, L: l})
		if err != nil {
			return nil, err
		}
		return &core.Instance{Spec: w.Spec, Profile: w.Profile}, nil
	case "gadget":
		d := construct.MatchingPennies(construct.DefaultGadgetWeights())
		return &core.Instance{Spec: d, Profile: construct.IntendedGadgetProfile(true, true)}, nil
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
}
