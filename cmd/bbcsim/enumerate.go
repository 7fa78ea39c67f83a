package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"bbc/internal/cli"
	"bbc/internal/core"
	"bbc/internal/group"
	"bbc/internal/obs"
	"bbc/internal/runctl"
)

// enumCheckpointKind names the bbcsim enumeration snapshot schema inside
// the runctl.Checkpoint envelope.
const enumCheckpointKind = "enumeration"

// enumResult is the machine-readable enumeration outcome (-json).
type enumResult struct {
	N          int              `json:"n"`
	Agg        string           `json:"agg"`
	Space      string           `json:"space"` // full | pinned
	SpaceSize  uint64           `json:"space_size"`
	Workers    int              `json:"workers"`
	Checked    uint64           `json:"checked"`
	Status     string           `json:"status"` // complete | cancelled | deadline | budget
	Complete   bool             `json:"complete"`
	Quotient   int              `json:"quotient_order,omitempty"`
	Equilibria []core.Profile   `json:"equilibria"`
	Counters   map[string]int64 `json:"counters,omitempty"`
}

// runEnumerate executes the exhaustive pure-NE scan mode with run
// control: the scan honors ctx (signals, -timeout), the -max-ne and
// -max-profiles budgets, and persists/consumes -checkpoint/-resume
// snapshots so an interrupted scan can continue without re-checking any
// profile.
func runEnumerate(ctx context.Context, o options, spec core.Spec, agg core.Aggregation, rt *cli.Run) (runctl.Status, error) {
	var (
		ss        *core.SearchSpace
		spaceName = "full"
		err       error
	)
	if o.pin {
		spaceName = "pinned"
		ss, err = core.PinnedSpace(spec, 0)
	} else {
		ss, err = core.FullSpace(spec, 0)
	}
	if err != nil {
		return runctl.StatusComplete, err
	}
	fp := core.EnumFingerprint(spec, agg, ss)

	var quo *core.Quotient
	if o.quotient {
		gens, err := quotientPerms(spec)
		if err != nil {
			return runctl.StatusComplete, fmt.Errorf("-quotient: %w", err)
		}
		if quo, err = core.NewQuotient(spec, ss, gens); err != nil {
			return runctl.StatusComplete, fmt.Errorf("-quotient: %w", err)
		}
		// A quotiented cursor skips states a plain scan would visit, so its
		// checkpoints are only exchangeable with scans under the same group:
		// the fingerprint gains a group qualifier.
		fp = quo.QualifyFingerprint(fp)
		fmt.Fprintf(o.stderr, "bbcsim: quotienting the scan by a symmetry group of order %d\n", quo.Order())
	}

	var resume *core.EnumCheckpoint
	var cp core.EnumCheckpoint
	from, err := rt.LoadResume(enumCheckpointKind, fp, &cp)
	if err != nil {
		return runctl.StatusComplete, err
	}
	if from != "" {
		resume = &cp
		fmt.Fprintf(o.stderr, "bbcsim: resuming enumeration from %s (%d profiles already checked)\n",
			from, cp.Checked)
	}

	// save persists a snapshot atomically — with generation rotation and
	// bounded retry for transient errors — and journals the event; scan
	// progress is never lost to a torn write, and the previous good
	// snapshot survives as .prev until the new one is published.
	save := func(cp *core.EnumCheckpoint, status runctl.Status) error {
		if cp == nil {
			return nil
		}
		return rt.Save(enumCheckpointKind, fp, status, cp, map[string]any{"checked": cp.Checked})
	}

	var prog *obs.Progress
	if o.Progress {
		prog = obs.StartProgress(o.stderr, "enumerate", ss.Size(),
			obs.MetricReader(rt.Reg, obs.MProfilesChecked), time.Second)
	}
	cfg := core.EnumConfig{
		Ctx:             ctx,
		MaxEquilibria:   o.maxNE,
		MaxProfiles:     o.maxProfiles,
		Resume:          resume,
		Workers:         o.parallel,
		Quotient:        quo,
		DisableBatchBFS: !o.batchBFS,
		OnCheckpoint: func(cp *core.EnumCheckpoint) {
			// Mid-run snapshot: the run has not ended, so the envelope
			// records the control state at save time. A failed save
			// degrades gracefully — the failure is journaled and the scan
			// keeps computing; the next interval retries from scratch.
			if err := save(cp, runctl.StatusFromContext(ctx)); err != nil {
				fmt.Fprintf(o.stderr, "bbcsim: checkpoint save failed (scan continues): %v\n", err)
			}
		},
	}
	var res *core.NEResult
	if o.parallel == 1 {
		res, err = core.EnumeratePureNEOpts(spec, agg, ss, cfg)
	} else {
		res, err = core.EnumeratePureNEParallelOpts(spec, agg, ss, cfg)
	}
	prog.Stop()
	if err != nil {
		return runctl.StatusComplete, err
	}
	// Final snapshot: on any early stop with work left, leave a resumable
	// checkpoint carrying the definitive stop status. A failure here must
	// not swallow the computed result — the summary still prints and the
	// error surfaces afterwards.
	var finalSaveErr error
	if res.Resume != nil {
		if finalSaveErr = save(res.Resume, res.Status); finalSaveErr != nil {
			finalSaveErr = fmt.Errorf("final checkpoint: %w", finalSaveErr)
			fmt.Fprintf(o.stderr, "bbcsim: %v (results follow, but the run cannot be resumed)\n", finalSaveErr)
		}
	}

	out := &enumResult{
		N:          spec.N(),
		Agg:        o.agg,
		Space:      spaceName,
		SpaceSize:  ss.Size(),
		Workers:    o.parallel,
		Checked:    res.Checked,
		Status:     res.Status.String(),
		Complete:   res.Complete,
		Equilibria: res.Equilibria,
		Counters:   rt.Reg.Snapshot(),
	}
	if quo != nil {
		out.Quotient = quo.Order()
	}
	rt.Journal.Event("summary", map[string]any{
		"n":          out.N,
		"agg":        out.Agg,
		"space":      out.Space,
		"space_size": out.SpaceSize,
		"checked":    out.Checked,
		"equilibria": len(out.Equilibria),
	})
	rt.Journal.RunStatus(out.Status, out.Complete, map[string]any{
		"mode":    "enumerate",
		"checked": out.Checked,
	})

	if o.jsonOut {
		enc := json.NewEncoder(o.stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return res.Status, err
		}
		return enumExitStatus(o, res), finalSaveErr
	}
	reportEnum(o.stdout, out, res)
	return enumExitStatus(o, res), finalSaveErr
}

// quotientPerms derives the symmetry generators backing -quotient. The
// uniform game's full automorphism group is Sₙ — far past any useful
// closure — so it gets the structural cyclic translations u ↦ u+t plus
// the reflection u ↦ −u (the dihedral group, order 2n). Every other spec
// is searched for its automorphisms, with a cap that rejects groups too
// large to quotient profitably.
func quotientPerms(spec core.Spec) ([][]int, error) {
	if _, ok := spec.(*core.Uniform); ok {
		z := group.MustCyclic(spec.N())
		gens := group.Translations(z)
		return append(gens, group.Negation(z)), nil
	}
	return core.SpecAutomorphisms(spec, 512)
}

// enumExitStatus maps a scan result to the process exit status. Hitting
// the caller's own -max-ne cap after finding the asked-for equilibria is
// a successful run; every other early stop is a truncation.
func enumExitStatus(o options, res *core.NEResult) runctl.Status {
	if res.Status == runctl.StatusBudget && o.maxNE > 0 && len(res.Equilibria) >= o.maxNE {
		return runctl.StatusComplete
	}
	return res.Status
}

// reportEnum prints the human-readable enumeration summary.
func reportEnum(w io.Writer, out *enumResult, res *core.NEResult) {
	fmt.Fprintf(w, "(n=%d, %s cost, %s space of %d profiles, workers=%d)\n",
		out.N, out.Agg, out.Space, out.SpaceSize, out.Workers)
	fmt.Fprintf(w, "checked: %d profiles, equilibria found: %d\n", out.Checked, len(out.Equilibria))
	switch {
	case out.Complete:
		fmt.Fprintln(w, "outcome: complete scan")
	case res.Status == runctl.StatusCancelled:
		fmt.Fprintln(w, "outcome: interrupted (partial result; resume with -resume)")
	case res.Status == runctl.StatusDeadline:
		fmt.Fprintln(w, "outcome: wall-time budget exhausted (partial result; resume with -resume)")
	default:
		fmt.Fprintln(w, "outcome: work budget exhausted (partial result)")
	}
	for i, eq := range out.Equilibria {
		if i == 5 {
			fmt.Fprintf(w, "  ... %d more\n", len(out.Equilibria)-5)
			break
		}
		fmt.Fprintf(w, "  NE %d: %v\n", i, eq)
	}
}
