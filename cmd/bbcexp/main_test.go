package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"bbc/internal/cli"
	"bbc/internal/exper"
	"bbc/internal/runctl"
)

// expOptions returns a baseline option set running a small quick-mode
// selection into in-memory buffers.
func expOptions() (options, *bytes.Buffer, *bytes.Buffer) {
	var stdout, stderr bytes.Buffer
	return options{
		quick: true, only: "E8,E20", jsonOut: true,
		stdout: &stdout, stderr: &stderr,
	}, &stdout, &stderr
}

func decodeReports(t *testing.T, stdout *bytes.Buffer) []*exper.Report {
	t.Helper()
	var reports []*exper.Report
	if err := json.Unmarshal(stdout.Bytes(), &reports); err != nil {
		t.Fatalf("stdout is not valid JSON: %v\n%s", err, stdout.String())
	}
	return reports
}

// TestSuiteCheckpointResume: a completed suite leaves a checkpoint with
// every report; a resumed run replays them without re-running and prints
// the same reports.
func TestSuiteCheckpointResume(t *testing.T) {
	ckpt := t.TempDir() + "/suite.ckpt"
	o, stdout, _ := expOptions()
	o.Checkpoint = ckpt
	status, failures, err := run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if status != runctl.StatusComplete || failures != 0 {
		t.Fatalf("suite run: status=%v failures=%d", status, failures)
	}
	ref := decodeReports(t, stdout)
	if len(ref) != 2 {
		t.Fatalf("want 2 reports, got %d", len(ref))
	}

	env, err := runctl.Load(ckpt)
	if err != nil {
		t.Fatalf("suite left no valid checkpoint: %v", err)
	}
	if env.Kind != "suite" {
		t.Errorf("checkpoint kind = %q, want suite", env.Kind)
	}

	o2, stdout2, stderr2 := expOptions()
	o2.Resume = ckpt
	status, failures, err = run(context.Background(), o2)
	if err != nil {
		t.Fatal(err)
	}
	if status != runctl.StatusComplete || failures != 0 {
		t.Fatalf("resumed suite: status=%v failures=%d", status, failures)
	}
	if !strings.Contains(stderr2.String(), "resuming suite") {
		t.Errorf("resume note missing from stderr:\n%s", stderr2.String())
	}
	resumed := decodeReports(t, stdout2)
	refJSON, _ := json.Marshal(ref)
	resJSON, _ := json.Marshal(resumed)
	if !bytes.Equal(refJSON, resJSON) {
		t.Errorf("replayed reports differ from the original run")
	}
}

// TestSuiteResumeRejectsDifferentSelection: the fingerprint ties a
// checkpoint to its -only selection and quick mode.
func TestSuiteResumeRejectsDifferentSelection(t *testing.T) {
	ckpt := t.TempDir() + "/suite.ckpt"
	o, _, _ := expOptions()
	o.only, o.Checkpoint = "E20", ckpt
	if _, _, err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	o2, _, _ := expOptions()
	o2.only, o2.Resume = "E8", ckpt
	if _, _, err := run(context.Background(), o2); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("want fingerprint mismatch error, got %v", err)
	}
}

// TestSuiteCancelledBeforeStart: a pre-cancelled context schedules no
// experiments and reports an interrupted, failure-free partial run.
func TestSuiteCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o, stdout, _ := expOptions()
	status, failures, err := run(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if status != runctl.StatusCancelled || runctl.ExitCode(status) != runctl.ExitInterrupted {
		t.Fatalf("want cancelled status (exit %d), got %v", runctl.ExitInterrupted, status)
	}
	if failures != 0 {
		t.Errorf("cancelled run reported %d failures", failures)
	}
	if reports := decodeReports(t, stdout); len(reports) != 0 {
		t.Errorf("cancelled run still produced %d reports", len(reports))
	}
}

// TestSuiteUnknownIDIsUsageError pins the exit-2 classification.
func TestSuiteUnknownIDIsUsageError(t *testing.T) {
	o, _, _ := expOptions()
	o.only = "E99"
	_, _, err := run(context.Background(), o)
	if err == nil || !errors.Is(err, cli.ErrUsage) {
		t.Fatalf("want usage error for unknown id, got %v", err)
	}
}
