package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"bbc/internal/runctl"
)

// enumOptions returns a baseline enumerate-mode option set for a small
// uniform game.
func enumOptions(n, k int) (options, *bytes.Buffer, *bytes.Buffer) {
	o, stdout, stderr := testOptions(n, k)
	o.enumerate, o.jsonOut, o.parallel = true, true, 1
	return o, stdout, stderr
}

func decodeEnum(t *testing.T, stdout *bytes.Buffer) *enumResult {
	t.Helper()
	var out enumResult
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("stdout is not valid JSON: %v\n%s", err, stdout.String())
	}
	return &out
}

// TestEnumerateCLIComplete pins the happy path: a full scan reports
// status complete and exits 0.
func TestEnumerateCLIComplete(t *testing.T) {
	o, stdout, _ := enumOptions(5, 1)
	status, err := run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if status != runctl.StatusComplete {
		t.Fatalf("want complete status (exit 0), got %v (exit %d)", status, runctl.ExitCode(status))
	}
	out := decodeEnum(t, stdout)
	if !out.Complete || out.Status != "complete" || out.Checked != out.SpaceSize {
		t.Errorf("implausible complete scan: %+v", out)
	}
}

// TestEnumerateCLIBudgetCheckpointResume is the end-to-end run-control
// contract: a -max-profiles interrupted run exits with the budget code
// and leaves a valid checkpoint, and -resume from it reproduces the
// uninterrupted equilibria byte-identically.
func TestEnumerateCLIBudgetCheckpointResume(t *testing.T) {
	// Ground truth: one uninterrupted scan.
	oRef, refOut, _ := enumOptions(5, 1)
	if _, err := run(context.Background(), oRef); err != nil {
		t.Fatal(err)
	}
	ref := decodeEnum(t, refOut)

	ckpt := t.TempDir() + "/enum.ckpt"
	o, stdout, _ := enumOptions(5, 1)
	o.maxProfiles, o.Checkpoint = ref.Checked/2, ckpt
	status, err := run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if status != runctl.StatusBudget || runctl.ExitCode(status) != runctl.ExitBudget {
		t.Fatalf("budget-truncated run: want exit %d, got status %v", runctl.ExitBudget, status)
	}
	partial := decodeEnum(t, stdout)
	if partial.Complete || partial.Status != "budget" {
		t.Fatalf("want partial budget result, got %+v", partial)
	}
	env, err := runctl.Load(ckpt)
	if err != nil {
		t.Fatalf("interrupted run left no valid checkpoint: %v", err)
	}
	if env.Kind != "enumeration" || env.Status != runctl.StatusBudget {
		t.Errorf("checkpoint envelope: kind=%q status=%v", env.Kind, env.Status)
	}

	// Resume to completion and compare byte-identically.
	o2, stdout2, _ := enumOptions(5, 1)
	o2.Resume = ckpt
	status, err = run(context.Background(), o2)
	if err != nil {
		t.Fatal(err)
	}
	if status != runctl.StatusComplete {
		t.Fatalf("resumed run did not complete: %v", status)
	}
	resumed := decodeEnum(t, stdout2)
	refEq, _ := json.Marshal(ref.Equilibria)
	resEq, _ := json.Marshal(resumed.Equilibria)
	if !bytes.Equal(refEq, resEq) {
		t.Errorf("resumed equilibria not byte-identical:\n got %s\nwant %s", resEq, refEq)
	}
	if resumed.Checked != ref.Checked {
		t.Errorf("resumed checked %d profiles, want %d", resumed.Checked, ref.Checked)
	}
}

// TestEnumerateCLIResumeRejectsWrongGame: a checkpoint from one game
// must not resume a scan of another.
func TestEnumerateCLIResumeRejectsWrongGame(t *testing.T) {
	ckpt := t.TempDir() + "/enum.ckpt"
	o, _, _ := enumOptions(5, 1)
	o.maxProfiles, o.Checkpoint = 10, ckpt
	if _, err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	o2, _, _ := enumOptions(6, 1)
	o2.Resume = ckpt
	if _, err := run(context.Background(), o2); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("want fingerprint mismatch error, got %v", err)
	}
}

// TestEnumerateCLIDeadline: an expired -timeout yields a deadline
// partial result and the truncation exit code.
func TestEnumerateCLIDeadline(t *testing.T) {
	o, stdout, _ := enumOptions(7, 2) // large enough to outlive a tiny deadline
	o.Timeout = time.Nanosecond
	status, err := run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if status != runctl.StatusDeadline || runctl.ExitCode(status) != runctl.ExitBudget {
		t.Fatalf("want deadline status (exit %d), got %v", runctl.ExitBudget, status)
	}
	out := decodeEnum(t, stdout)
	if out.Complete || out.Status != "deadline" {
		t.Errorf("want deadline partial result, got %+v", out)
	}
}

// TestEnumerateCLIJournalRunStatus: enumerate-mode journals end with a
// run_status record carrying the scan outcome.
func TestEnumerateCLIJournalRunStatus(t *testing.T) {
	path := t.TempDir() + "/enum.jsonl"
	o, _, _ := enumOptions(5, 1)
	o.Journal = path
	if _, err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var last map[string]any
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last["type"] != "run_status" {
		t.Errorf("journal must end with run_status, got %v", last["type"])
	}
}

// TestEnumerateCLIQuotientAndScalarMatch pins the CLI differential
// contract: -quotient and -batch-bfs=false are pure performance switches
// — checked counts, equilibria bytes, and completion status all match the
// default scan exactly.
func TestEnumerateCLIQuotientAndScalarMatch(t *testing.T) {
	oRef, refOut, _ := enumOptions(5, 1)
	if _, err := run(context.Background(), oRef); err != nil {
		t.Fatal(err)
	}
	ref := decodeEnum(t, refOut)
	refEq, _ := json.Marshal(ref.Equilibria)

	for _, tc := range []struct {
		name string
		mod  func(o *options)
	}{
		{"quotient", func(o *options) { o.quotient = true }},
		{"quotient-parallel", func(o *options) { o.quotient = true; o.parallel = 3 }},
		{"scalar-bfs", func(o *options) { o.batchBFS = false }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, stdout, stderr := enumOptions(5, 1)
			tc.mod(&o)
			status, err := run(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			if status != runctl.StatusComplete {
				t.Fatalf("want complete, got %v", status)
			}
			out := decodeEnum(t, stdout)
			gotEq, _ := json.Marshal(out.Equilibria)
			if !bytes.Equal(gotEq, refEq) {
				t.Errorf("equilibria diverged:\n got %s\nwant %s", gotEq, refEq)
			}
			if out.Checked != ref.Checked || !out.Complete {
				t.Errorf("checked=%d complete=%v, want checked=%d complete=true", out.Checked, out.Complete, ref.Checked)
			}
			if o.quotient {
				if out.Quotient < 2 {
					t.Errorf("quotient_order=%d, want >= 2", out.Quotient)
				}
				if !strings.Contains(stderr.String(), "symmetry group of order") {
					t.Errorf("missing group-order note on stderr:\n%s", stderr.String())
				}
			}
		})
	}
}

// TestEnumerateCLIQuotientCheckpointIncompatible pins the fingerprint
// qualifier: a plain scan's checkpoint must not resume a quotiented scan
// (the cursors mean different things), and vice versa.
func TestEnumerateCLIQuotientCheckpointIncompatible(t *testing.T) {
	ckpt := t.TempDir() + "/enum.ckpt"
	o, _, _ := enumOptions(5, 1)
	o.maxProfiles, o.Checkpoint = 10, ckpt
	if _, err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	o2, _, _ := enumOptions(5, 1)
	o2.Resume, o2.quotient = ckpt, true
	if _, err := run(context.Background(), o2); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("quotient run accepted a plain checkpoint: %v", err)
	}
}

// TestEnumerateCLIQuotientResume runs the quotiented scan through a
// budget interruption and a -resume leg, demanding the uninterrupted
// equilibria byte-identically.
func TestEnumerateCLIQuotientResume(t *testing.T) {
	oRef, refOut, _ := enumOptions(5, 1)
	if _, err := run(context.Background(), oRef); err != nil {
		t.Fatal(err)
	}
	ref := decodeEnum(t, refOut)

	ckpt := t.TempDir() + "/enum.ckpt"
	o, _, _ := enumOptions(5, 1)
	o.quotient, o.maxProfiles, o.Checkpoint = true, ref.Checked/2, ckpt
	if status, err := run(context.Background(), o); err != nil || status != runctl.StatusBudget {
		t.Fatalf("interrupted leg: status=%v err=%v", status, err)
	}
	o2, stdout2, _ := enumOptions(5, 1)
	o2.quotient, o2.Resume = true, ckpt
	if status, err := run(context.Background(), o2); err != nil || status != runctl.StatusComplete {
		t.Fatalf("resumed leg: status=%v err=%v", status, err)
	}
	resumed := decodeEnum(t, stdout2)
	refEq, _ := json.Marshal(ref.Equilibria)
	resEq, _ := json.Marshal(resumed.Equilibria)
	if !bytes.Equal(refEq, resEq) {
		t.Errorf("resumed quotient equilibria not byte-identical:\n got %s\nwant %s", resEq, refEq)
	}
	if resumed.Checked != ref.Checked {
		t.Errorf("resumed checked %d, want %d", resumed.Checked, ref.Checked)
	}
}

// TestWalkModeRejectsCheckpointFlags pins the usage contract:
// -checkpoint/-resume apply to -enumerate runs only.
func TestWalkModeRejectsCheckpointFlags(t *testing.T) {
	o, _, _ := testOptions(5, 1)
	o.Checkpoint = "x.ckpt"
	if _, err := run(context.Background(), o); err == nil {
		t.Fatal("walk mode accepted -checkpoint")
	}
}
