package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"bbc/internal/obs"
)

// testOptions returns a baseline option set writing to in-memory buffers.
func testOptions(n, k int) (options, *bytes.Buffer, *bytes.Buffer) {
	var stdout, stderr bytes.Buffer
	return options{
		n: n, k: k,
		agg: "sum", sched: "round-robin", start: "empty",
		seed: 1, steps: 200,
		batchBFS: true, // mirror the flag default
		stdout:   &stdout, stderr: &stderr,
	}, &stdout, &stderr
}

func TestRunValidConfigurations(t *testing.T) {
	tests := []struct {
		name              string
		agg, sched, start string
	}{
		{name: "defaults", agg: "sum", sched: "round-robin", start: "empty"},
		{name: "max cost", agg: "max", sched: "round-robin", start: "empty"},
		{name: "max-cost-first", agg: "sum", sched: "max-cost-first", start: "random"},
		{name: "random walk", agg: "sum", sched: "random", start: "random"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			o, _, _ := testOptions(6, 1)
			o.agg, o.sched, o.start = tt.agg, tt.sched, tt.start
			if _, err := run(context.Background(), o); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunMovesToStderr pins the output contract: move lines go to
// stderr, the result summary to stdout.
func TestRunMovesToStderr(t *testing.T) {
	o, stdout, stderr := testOptions(5, 1)
	o.seed, o.steps, o.printMoves = 2, 100, true
	if _, err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stdout.String(), "rewires") {
		t.Error("trace lines leaked to stdout")
	}
	if !strings.Contains(stderr.String(), "rewires") {
		t.Error("trace lines missing from stderr")
	}
	if !strings.Contains(stdout.String(), "outcome:") {
		t.Error("summary missing from stdout")
	}
}

func TestRunJSONOutput(t *testing.T) {
	o, stdout, _ := testOptions(6, 1)
	o.jsonOut = true
	if _, err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	var out result
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("stdout is not valid JSON: %v\n%s", err, stdout.String())
	}
	if out.N != 6 || out.Outcome == "" || out.Steps <= 0 {
		t.Errorf("implausible JSON result: %+v", out)
	}
	if len(out.Counters) == 0 {
		t.Error("JSON result carries no registry counters")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	tests := []struct {
		name              string
		n, k              int
		agg, sched, start string
	}{
		{name: "bad n", n: 1, k: 1, agg: "sum", sched: "round-robin", start: "empty"},
		{name: "bad agg", n: 5, k: 1, agg: "median", sched: "round-robin", start: "empty"},
		{name: "bad sched", n: 5, k: 1, agg: "sum", sched: "zigzag", start: "empty"},
		{name: "bad start", n: 5, k: 1, agg: "sum", sched: "round-robin", start: "willows"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			o, _, _ := testOptions(tt.n, tt.k)
			o.agg, o.sched, o.start, o.steps = tt.agg, tt.sched, tt.start, 50
			if _, err := run(context.Background(), o); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestRunLoadedInstance(t *testing.T) {
	// Generate a gadget instance file and walk it: the gadget must loop.
	dir := t.TempDir()
	path := dir + "/gadget.json"
	data := `{"game":{"kind":"uniform","n":6,"k":1},"profile":[[1],[2],[3],[4],[5],[0]]}`
	if err := os.WriteFile(path, []byte(data), 0o600); err != nil {
		t.Fatal(err)
	}
	o, _, _ := testOptions(0, 0)
	o.load, o.steps = path, 100
	if _, err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	o.load = dir + "/missing.json"
	if _, err := run(context.Background(), o); err == nil {
		t.Fatal("expected error for missing file")
	}
	if err := os.WriteFile(path, []byte("{"), 0o600); err != nil {
		t.Fatal(err)
	}
	o.load = path
	if _, err := run(context.Background(), o); err == nil {
		t.Fatal("expected error for corrupt file")
	}
}

// TestJournalGolden pins the JSONL journal contract: every line is a
// valid obs.Record with the stable top-level schema, move records carry
// the move payload, and the file ends with exactly one summary record
// followed by exactly one run_status record whose move count matches the
// number of move records.
func TestJournalGolden(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/run.jsonl"
	o, _, stderr := testOptions(8, 2)
	o.steps, o.Journal, o.Progress = 0, path, true
	if _, err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "bbc: walk") {
		t.Errorf("progress reporter printed nothing to stderr:\n%s", stderr.String())
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var (
		moves     int
		summaries int
		statuses  int
		lastType  string
		seq       int64
	)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Bytes()
		var rec obs.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		// Top-level schema stability: exactly the known keys.
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(line, &raw); err != nil {
			t.Fatal(err)
		}
		for key := range raw {
			switch key {
			case "type", "seq", "elapsed_ms", "run_id", "data", "counters":
			default:
				t.Errorf("unexpected top-level journal key %q", key)
			}
		}
		if rec.RunID != obs.RunID() {
			t.Errorf("%s record run_id = %q, want the process run id %q", rec.Type, rec.RunID, obs.RunID())
		}
		if rec.Seq != seq {
			t.Errorf("journal seq gap: got %d, want %d", rec.Seq, seq)
		}
		seq++
		if rec.ElapsedMS < 0 {
			t.Errorf("negative elapsed_ms in %s record", rec.Type)
		}
		if len(rec.Counters) == 0 {
			t.Errorf("%s record lacks counters", rec.Type)
		}
		lastType = rec.Type
		switch rec.Type {
		case "move":
			moves++
			for _, want := range []string{"step", "node", "from", "to", "cost_before", "cost_after"} {
				if _, ok := rec.Data[want]; !ok {
					t.Errorf("move record missing data key %q", want)
				}
			}
		case "summary":
			summaries++
			if got := rec.Data["moves"]; got != float64(moves) {
				t.Errorf("summary moves = %v, want %d", got, moves)
			}
			if rec.Data["outcome"] == "" {
				t.Error("summary lacks outcome")
			}
		case obs.EventRunStatus:
			statuses++
			if _, ok := rec.Data["status"]; !ok {
				t.Error("run_status record lacks status")
			}
			if _, ok := rec.Data["complete"]; !ok {
				t.Error("run_status record lacks complete")
			}
		default:
			t.Errorf("unexpected record type %q", rec.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if moves == 0 {
		t.Error("journal recorded no moves for a converging walk")
	}
	if summaries != 1 {
		t.Errorf("journal must carry exactly one summary record (got %d)", summaries)
	}
	if statuses != 1 || lastType != obs.EventRunStatus {
		t.Errorf("journal must end with exactly one run_status record (got %d, last %q)", statuses, lastType)
	}
}
