package main

// End-to-end corruption recovery through the real CLI flow: a corrupt
// checkpoint must be quarantined, the previous generation used
// automatically, and the resumed scan must still reproduce the
// uninterrupted result; only when no generation is loadable may the run
// fail, and then with a plain-language diagnosis and the corruption
// exit code.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"bbc/internal/obs"
	"bbc/internal/runctl"
)

// interruptTwice produces a checkpoint with two generations (primary
// and .prev) by running two budget-truncated legs of the same scan.
// It returns the checkpoint path and the uninterrupted reference result.
func interruptTwice(t *testing.T) (string, *enumResult) {
	t.Helper()
	oRef, refOut, _ := enumOptions(5, 1)
	if _, err := run(context.Background(), oRef); err != nil {
		t.Fatal(err)
	}
	ref := decodeEnum(t, refOut)

	ckpt := t.TempDir() + "/enum.ckpt"
	o1, _, _ := enumOptions(5, 1)
	o1.maxProfiles, o1.Checkpoint = ref.Checked/3, ckpt
	if _, err := run(context.Background(), o1); err != nil {
		t.Fatal(err)
	}
	o2, _, _ := enumOptions(5, 1)
	o2.maxProfiles, o2.Resume, o2.Checkpoint = 2*ref.Checked/3, ckpt, ckpt
	if _, err := run(context.Background(), o2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt + ".prev"); err != nil {
		t.Fatalf("second save did not rotate the first generation to .prev: %v", err)
	}
	return ckpt, ref
}

// corrupt flips a byte in the middle of the file, keeping it valid
// UTF-8 so only the checksum (not the JSON parser) can catch it.
func corrupt(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := len(data) / 2
	for data[i] == 'x' {
		i++
	}
	data[i] = 'x'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEnumerateCLICorruptCheckpointFallback: bit-flip the primary
// snapshot; the resume must quarantine it, fall back to .prev, journal
// the recovery, and still complete the scan with the reference
// equilibria.
func TestEnumerateCLICorruptCheckpointFallback(t *testing.T) {
	ckpt, ref := interruptTwice(t)
	corrupt(t, ckpt)

	journal := t.TempDir() + "/resume.jsonl"
	o, stdout, stderr := enumOptions(5, 1)
	o.Resume, o.Journal = ckpt, journal
	status, err := run(context.Background(), o)
	if err != nil {
		t.Fatalf("recovery resume failed: %v", err)
	}
	if status != runctl.StatusComplete {
		t.Fatalf("recovered run did not complete: %v", status)
	}

	resumed := decodeEnum(t, stdout)
	refEq, _ := json.Marshal(ref.Equilibria)
	resEq, _ := json.Marshal(resumed.Equilibria)
	if !bytes.Equal(refEq, resEq) {
		t.Errorf("recovered scan equilibria differ:\n got %s\nwant %s", resEq, refEq)
	}
	if resumed.Checked != ref.Checked {
		t.Errorf("recovered scan checked %d profiles, want %d", resumed.Checked, ref.Checked)
	}

	msg := stderr.String()
	if !strings.Contains(msg, "previous generation") {
		t.Errorf("stderr does not explain the fallback:\n%s", msg)
	}
	if _, err := os.Stat(ckpt + ".corrupt"); err != nil {
		t.Errorf("corrupt snapshot was not quarantined to .corrupt: %v", err)
	}
	if !strings.Contains(msg, ckpt+".corrupt") {
		t.Errorf("stderr does not name the quarantine file:\n%s", msg)
	}

	recs, _, err := obs.RecoverJournal(nil, journal)
	if err != nil {
		t.Fatalf("recovery journal: %v", err)
	}
	found := false
	for _, rec := range recs {
		found = found || rec.Type == "checkpoint_recovered"
	}
	if !found {
		t.Errorf("journal has no checkpoint_recovered record: %+v", recs)
	}
}

// TestEnumerateCLITruncatedCheckpointFallback: the classic crash
// artifact — a truncated primary — recovers the same way.
func TestEnumerateCLITruncatedCheckpointFallback(t *testing.T) {
	ckpt, _ := interruptTwice(t)
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	o, _, stderr := enumOptions(5, 1)
	o.Resume = ckpt
	status, err := run(context.Background(), o)
	if err != nil {
		t.Fatalf("recovery resume failed: %v", err)
	}
	if status != runctl.StatusComplete {
		t.Fatalf("recovered run did not complete: %v", status)
	}
	if !strings.Contains(stderr.String(), "previous generation") {
		t.Errorf("stderr does not explain the fallback:\n%s", stderr.String())
	}
}

// TestEnumerateCLINoLoadableCheckpoint: when every generation is
// corrupt the run must fail with a plain-language diagnosis and the
// dedicated corruption exit code — not a raw JSON error.
func TestEnumerateCLINoLoadableCheckpoint(t *testing.T) {
	ckpt, _ := interruptTwice(t)
	corrupt(t, ckpt)
	corrupt(t, ckpt+".prev")

	o, _, _ := enumOptions(5, 1)
	o.Resume = ckpt
	_, err := run(context.Background(), o)
	if err == nil {
		t.Fatal("resume from doubly-corrupt checkpoint succeeded")
	}
	if !runctl.IsCorrupt(err) {
		t.Fatalf("want a corruption error, got %v", err)
	}
	if got := runctl.ExitCodeForError(err); got != runctl.ExitCorrupt {
		t.Fatalf("corruption must exit %d, got %d", runctl.ExitCorrupt, got)
	}
	msg := err.Error()
	for _, want := range []string{"quarantined", "previous generation", "restore a snapshot"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnosis missing %q:\n%s", want, msg)
		}
	}
}
