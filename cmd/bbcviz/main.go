// Command bbcviz renders the paper's constructions as Graphviz DOT, for
// figures analogous to the paper's Figures 1, 3, 4 and 6.
//
// Usage:
//
//	bbcviz -what willows -k 2 -h 2 -l 1 > willows.dot
//	bbcviz -what gadget > gadget.dot
//	bbcviz -what figure4 > figure4.dot
//	bbcviz -what maxpoa -k 3 -l 3 > maxpoa.dot
//	bbcviz -what ringpath -ring 8 -path 4 > ringpath.dot
//
// Output contract: stdout carries only the DOT document; progress lines
// and diagnostics go to stderr. The shared observability flags are
// -journal out.jsonl (one "render" record per run), -progress
// (completion line on stderr) and -pprof addr (pprof + expvar counters).
//
// Run control: a SIGINT/SIGTERM before the DOT document is written
// suppresses the (possibly torn) output, flushes a final run_status
// journal record and exits 130; after the output is written the run is
// complete and exits 0.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"bbc/internal/cli"
	"bbc/internal/construct"
	"bbc/internal/runctl"
)

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

// cliMain is the whole command behind a testable seam.
func cliMain(args []string, stdout, stderr io.Writer) int {
	var f cli.Flags
	fs := cli.NewFlagSet("bbcviz", stderr, &f, cli.Obs)
	var (
		what = fs.String("what", "willows", "construction: willows, gadget, figure4, maxpoa or ringpath")
		k    = fs.Int("k", 2, "budget / tree count (willows, maxpoa)")
		h    = fs.Int("h", 2, "tree height (willows)")
		l    = fs.Int("l", 1, "tail length (willows, maxpoa)")
		ring = fs.Int("ring", 8, "ring size (ringpath)")
		path = fs.Int("path", 4, "path size (ringpath)")
	)
	return cli.Main(fs, args, "", func(ctx context.Context) (runctl.Status, int, error) {
		status, err := f.Start(ctx, "bbcviz", stderr, func(ctx context.Context, rt *cli.Run) (runctl.Status, error) {
			start := time.Now()
			dot, err := render(*what, *k, *h, *l, *ring, *path)
			if err != nil {
				return runctl.StatusComplete, err
			}
			rt.Journal.Event("render", map[string]any{
				"what": *what, "bytes": len(dot),
				"wall_ms": float64(time.Since(start).Microseconds()) / 1000,
			})
			status := runctl.StatusFromContext(ctx)
			rt.Journal.RunStatus(status.String(), status.Complete(), map[string]any{"what": *what})
			if !status.Complete() {
				fmt.Fprintln(stderr, "bbcviz: interrupted before output; no document written")
				return status, nil
			}
			if _, err := io.WriteString(stdout, dot); err != nil {
				return status, err
			}
			if f.Progress {
				fmt.Fprintf(stderr, "bbc: render %s done in %s\n", *what, time.Since(start).Round(time.Millisecond))
			}
			return status, nil
		})
		return status, 0, err
	})
}

func render(what string, k, h, l, ring, path int) (string, error) {
	switch what {
	case "willows":
		w, err := construct.NewWillows(construct.WillowsParams{K: k, H: h, L: l})
		if err != nil {
			return "", err
		}
		labels := make(map[int]string, len(w.Roots))
		for i, r := range w.Roots {
			labels[r] = fmt.Sprintf("r%d", i+1)
		}
		return w.Profile.Realize(w.Spec).DOT("willows", labels), nil
	case "gadget":
		d := construct.MatchingPennies(construct.DefaultGadgetWeights())
		p := construct.IntendedGadgetProfile(true, true)
		return p.Realize(d).DOT("gadget", construct.GadgetLabels()), nil
	case "figure4":
		spec, p := construct.Figure4Start()
		return p.Realize(spec).DOT("figure4", nil), nil
	case "maxpoa":
		m, err := construct.NewMaxPoA(construct.MaxPoAParams{K: k, L: l})
		if err != nil {
			return "", err
		}
		labels := map[int]string{m.Root: "r"}
		return m.Profile.Realize(m.Spec).DOT("maxpoa", labels), nil
	case "ringpath":
		spec, p, err := construct.RingPath(ring, path)
		if err != nil {
			return "", err
		}
		return p.Realize(spec).DOT("ringpath", map[int]string{0: "T"}), nil
	default:
		return "", fmt.Errorf("unknown construction %q", what)
	}
}
