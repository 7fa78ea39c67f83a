package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bbc/internal/runctl"
)

func TestRenderAllConstructions(t *testing.T) {
	tests := []struct {
		name string
		what string
		want string
	}{
		{name: "willows", what: "willows", want: `"r1"`},
		{name: "gadget", what: "gadget", want: `"0C"`},
		{name: "figure4", what: "figure4", want: "digraph"},
		{name: "maxpoa", what: "maxpoa", want: `"r"`},
		{name: "ringpath", what: "ringpath", want: `"T"`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			dot, err := render(tt.what, 3, 2, 2, 8, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(dot, tt.want) {
				t.Fatalf("%s output missing %q", tt.what, tt.want)
			}
			if !strings.HasPrefix(dot, "digraph") {
				t.Fatalf("%s output is not DOT", tt.what)
			}
		})
	}
}

func TestRenderErrors(t *testing.T) {
	if _, err := render("nope", 2, 2, 1, 8, 4); err == nil {
		t.Fatal("expected error for unknown construction")
	}
	if _, err := render("willows", 0, 2, 1, 8, 4); err == nil {
		t.Fatal("expected error for invalid willows params")
	}
	if _, err := render("maxpoa", 2, 0, 1, 8, 4); err == nil {
		t.Fatal("expected error for invalid maxpoa params")
	}
	if _, err := render("ringpath", 2, 0, 1, 1, 0); err == nil {
		t.Fatal("expected error for invalid ringpath params")
	}
}

// TestCLIFailureStillWritesTrace: a failing run exits 1 and still
// flushes its trace and journal.
func TestCLIFailureStillWritesTrace(t *testing.T) {
	dir := t.TempDir()
	trace, journal := filepath.Join(dir, "t.json"), filepath.Join(dir, "j.jsonl")
	var stdout, stderr bytes.Buffer
	code := cliMain([]string{"-what", "bogus", "-trace", trace, "-journal", journal}, &stdout, &stderr)
	if code != runctl.ExitError {
		t.Fatalf("exit %d, want %d (stderr %q)", code, runctl.ExitError, stderr.String())
	}
	if !strings.Contains(stderr.String(), `bbcviz: unknown construction "bogus"`) {
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
