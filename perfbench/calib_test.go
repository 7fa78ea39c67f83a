package main

import (
	"os"
	"testing"
	"time"
)

// An interval is scaled by the median of the samples within refWindow of
// it, on either side; samples farther away do not count.
func TestHostClockScalesByNearbySamples(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	c := &hostClock{samples: []refSample{
		{at(-20), 1000},            // far before: ignored
		{at(-4), 2 * refNominalMS}, // in the window
		{at(1), 2 * refNominalMS},  // inside the interval
		{at(6), 4 * refNominalMS},  // in the window
		{at(30), 1},                // far after: ignored
	}}
	if got := c.factor(at(0), at(2)); !near(got, 0.5) {
		t.Errorf("factor = %v, want 0.5 (nominal over the median of 2×, 2×, 4×)", got)
	}
	got := c.scaled([]interval{{at(0), at(2), 300}, {at(100), at(101), 300}})
	if !near(got[0], 150) || got[1] != 0 {
		t.Errorf("scaled = %v, want [150 0] (no sample near the second interval)", got)
	}
}

// The reference kernel must be the same work in every sample.
func TestReferenceKernelIsFixedWork(t *testing.T) {
	a, b := newRefKernel(), newRefKernel()
	want := a.sweep()
	if want <= 0 || a.sweep() != want || b.sweep() != want {
		t.Fatalf("reference sweeps disagree or are empty (first sum %d)", want)
	}
	c := newHostClock()
	c.sample()
	if c.bad != 0 || len(c.samples) != 2 {
		t.Errorf("clock: %d bad samples, %d samples, want 0 and 2", c.bad, len(c.samples))
	}
}

// A system-call reference sample takes time and leaves its directory as
// it found it.
func TestSysSampleCleansUp(t *testing.T) {
	dir := t.TempDir()
	got, err := sysSample(dir)
	if err != nil || got <= 0 {
		t.Fatalf("sysSample = %v, %v", got, err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("sysSample left %d entries behind", len(left))
	}
}
