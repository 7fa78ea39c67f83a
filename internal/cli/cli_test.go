package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bbc/internal/runctl"
)

// TestExitCodeTable pins the whole exit-code table every command shares.
func TestExitCodeTable(t *testing.T) {
	var stderr bytes.Buffer
	helpErr := Parse(NewFlagSet("t", &stderr, &Flags{}, RunControl), []string{"-help"})
	badFlagErr := Parse(NewFlagSet("t", &stderr, &Flags{}, RunControl), []string{"-frobnicate"})
	corrupt := &runctl.CorruptError{Path: "x.ckpt", Reason: "checksum mismatch"}
	for _, tc := range []struct {
		name     string
		status   runctl.Status
		failures int
		err      error
		want     int
	}{
		{"complete", runctl.StatusComplete, 0, nil, runctl.ExitOK},
		{"help", runctl.StatusComplete, 0, helpErr, runctl.ExitOK},
		{"unknown flag", runctl.StatusComplete, 0, badFlagErr, runctl.ExitUsage},
		{"wrapped usage", runctl.StatusComplete, 0, fmt.Errorf("%w: unknown id E99", ErrUsage), runctl.ExitUsage},
		{"corrupt", runctl.StatusComplete, 0, fmt.Errorf("resume: %w", corrupt), runctl.ExitCorrupt},
		{"error", runctl.StatusComplete, 0, errors.New("boom"), runctl.ExitError},
		{"error beats status", runctl.StatusDeadline, 0, errors.New("boom"), runctl.ExitError},
		{"failures", runctl.StatusComplete, 2, nil, runctl.ExitError},
		{"failures beat status", runctl.StatusCancelled, 1, nil, runctl.ExitError},
		{"budget", runctl.StatusBudget, 0, nil, runctl.ExitBudget},
		{"deadline", runctl.StatusDeadline, 0, nil, runctl.ExitBudget},
		{"cancelled", runctl.StatusCancelled, 0, nil, runctl.ExitInterrupted},
	} {
		if got := ExitCode(tc.status, tc.failures, tc.err); got != tc.want {
			t.Errorf("%s: ExitCode(%v, %d, %v) = %d, want %d", tc.name, tc.status, tc.failures, tc.err, got, tc.want)
		}
	}
}

// TestMainReportsOutcome: Main maps the body's outcome through the
// table and names the command on stderr; -help never runs the body.
func TestMainReportsOutcome(t *testing.T) {
	for _, tc := range []struct {
		name     string
		args     []string
		status   runctl.Status
		failures int
		err      error
		want     int
		stderr   string
	}{
		{"help", []string{"-help"}, 0, 0, nil, runctl.ExitOK, "-checkpoint"},
		{"usage", []string{"-nope"}, 0, 0, nil, runctl.ExitUsage, "not defined"},
		{"error", nil, 0, 0, errors.New("boom"), runctl.ExitError, "t: boom"},
		{"failures", nil, 0, 3, nil, runctl.ExitError, "t: 3 tuple(s) failed"},
		{"budget", nil, runctl.StatusBudget, 0, nil, runctl.ExitBudget, ""},
	} {
		var stderr bytes.Buffer
		var f Flags
		ran := false
		code := Main(NewFlagSet("t", &stderr, &f, RunControl), tc.args, "tuple",
			func(context.Context) (runctl.Status, int, error) {
				ran = true
				return tc.status, tc.failures, tc.err
			})
		if code != tc.want {
			t.Errorf("%s: exit %d, want %d (stderr %q)", tc.name, code, tc.want, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: stderr %q lacks %q", tc.name, stderr.String(), tc.stderr)
		}
		if parsed := tc.args == nil; ran != parsed {
			t.Errorf("%s: body ran = %v, want %v", tc.name, ran, parsed)
		}
	}
}

// TestStartFlushesOnError: a failing body still gets its journal closed
// and its trace written, and a -timeout reaches the body's context.
func TestStartFlushesOnError(t *testing.T) {
	dir := t.TempDir()
	f := Flags{
		Journal: filepath.Join(dir, "run.jsonl"),
		Trace:   filepath.Join(dir, "run.trace.json"),
		Timeout: 1 << 40,
	}
	var stderr bytes.Buffer
	_, err := f.Start(context.Background(), "t", &stderr, func(ctx context.Context, r *Run) (runctl.Status, error) {
		if _, ok := ctx.Deadline(); !ok {
			t.Error("-timeout did not set a deadline on the body's context")
		}
		r.Journal.Event("work", nil)
		return runctl.StatusComplete, errors.New("boom")
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("Start returned %v, want the body's error", err)
	}
	data, err := os.ReadFile(f.Trace)
	if err != nil {
		t.Fatalf("failed run left no trace: %v", err)
	}
	if !json.Valid(data) {
		t.Fatalf("trace is not JSON: %s", data)
	}
	if j, err := os.ReadFile(f.Journal); err != nil || !bytes.Contains(j, []byte(`"work"`)) {
		t.Fatalf("journal not flushed: %q, %v", j, err)
	}
}

// TestSaveAndLoadResume: a saved snapshot resumes under its fingerprint
// and is refused under another; with -resume unset nothing is loaded.
func TestSaveAndLoadResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "s.ckpt")
	type payload struct{ N int }
	var stderr bytes.Buffer
	_, err := Flags{Checkpoint: ckpt}.Start(context.Background(), "t", &stderr, func(_ context.Context, r *Run) (runctl.Status, error) {
		if from, err := r.LoadResume("k", "fp", &payload{}); from != "" || err != nil {
			t.Errorf("LoadResume without -resume = %q, %v", from, err)
		}
		return runctl.StatusComplete, r.Save("k", "fp", runctl.StatusComplete, payload{N: 7}, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Flags{Resume: ckpt}.Start(context.Background(), "t", &stderr, func(_ context.Context, r *Run) (runctl.Status, error) {
		var p payload
		from, err := r.LoadResume("k", "fp", &p)
		if err != nil || from != ckpt || p.N != 7 {
			t.Errorf("LoadResume = %q, %+v, %v; want %q, N=7", from, p, err, ckpt)
		}
		if _, err := r.LoadResume("k", "other", &p); err == nil || !strings.Contains(err.Error(), "fingerprint") {
			t.Errorf("fingerprint mismatch not refused: %v", err)
		}
		return runctl.StatusComplete, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
