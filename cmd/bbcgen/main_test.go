package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bbc/internal/core"
	"bbc/internal/runctl"
)

func TestGenerateKindsRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		kind string
	}{
		{name: "uniform", kind: "uniform"},
		{name: "random", kind: "random"},
		{name: "willows", kind: "willows"},
		{name: "gadget", kind: "gadget"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			inst, err := generate(tt.kind, 8, 2, 2, 1, 3, 0, 0, 2, 7)
			if err != nil {
				t.Fatal(err)
			}
			if err := inst.Profile.Validate(inst.Spec); err != nil {
				t.Fatalf("generated profile infeasible: %v", err)
			}
			data, err := json.Marshal(inst)
			if err != nil {
				t.Fatal(err)
			}
			var back core.Instance
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatalf("emitted JSON does not round trip: %v", err)
			}
			if back.Spec.N() != inst.Spec.N() {
				t.Fatal("round trip changed node count")
			}
		})
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := generate("mystery", 8, 2, 2, 1, 3, 0, 0, 2, 7); err == nil {
		t.Fatal("expected error for unknown kind")
	}
	if _, err := generate("uniform", 1, 1, 0, 0, 0, 0, 0, 0, 7); err == nil {
		t.Fatal("expected error for n=1")
	}
	if _, err := generate("willows", 8, 0, 2, 1, 0, 0, 0, 0, 7); err == nil {
		t.Fatal("expected error for bad willows params")
	}
}

func TestGenerateWillowsIsStableInstance(t *testing.T) {
	inst, err := generate("willows", 0, 2, 2, 0, 0, 0, 0, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	stable, err := core.IsEquilibrium(inst.Spec, inst.Profile, core.SumDistances)
	if err != nil {
		t.Fatal(err)
	}
	if !stable {
		t.Fatal("generated willows instance should carry its stable profile")
	}
}

// TestCLIFailureStillWritesTrace: a failing run exits 1 and still
// flushes its trace and journal.
func TestCLIFailureStillWritesTrace(t *testing.T) {
	dir := t.TempDir()
	trace, journal := filepath.Join(dir, "t.json"), filepath.Join(dir, "j.jsonl")
	var stdout, stderr bytes.Buffer
	code := cliMain([]string{"-kind", "bogus", "-trace", trace, "-journal", journal}, &stdout, &stderr)
	if code != runctl.ExitError {
		t.Fatalf("exit %d, want %d (stderr %q)", code, runctl.ExitError, stderr.String())
	}
	if !strings.Contains(stderr.String(), `bbcgen: unknown kind "bogus"`) {
		t.Errorf("stderr lacks the error: %q", stderr.String())
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("no trace file after a failed run: %v", err)
	}
	if !json.Valid(data) {
		t.Fatalf("trace file is not JSON: %s", data)
	}
	if _, err := os.Stat(journal); err != nil {
		t.Errorf("no journal after a failed run: %v", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("failed run wrote to stdout: %q", stdout.String())
	}
}
