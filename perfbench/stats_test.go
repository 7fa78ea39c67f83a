package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// prints for the same samples, small ones extrapolating included.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{2.5, 9, 4, 7, 1, 8, 3}, [3]float64{2.5, 4, 8}},
		{[]float64{10, 20, 30, 40}, [3]float64{12.5, 25, 37.5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v", got)
	}
}

func TestFailRatio(t *testing.T) {
	var a tally
	for i := 0; i < 7; i++ {
		a.ok()
	}
	for i := 0; i < 3; i++ {
		a.fail()
	}
	if a.attempted != 10 || a.failed != 3 {
		t.Fatalf("tally = %+v, want 10 attempted, 3 failed", a)
	}
	if got := a.failRatio(); !near(got, 0.3) {
		t.Errorf("failRatio = %v, want 0.3", got)
	}
	if got := (tally{}).failRatio(); got != 0 {
		t.Errorf("empty failRatio = %v, want 0", got)
	}
}

func TestSelfTimesSumToWall(t *testing.T) {
	// op 0: root [0,100) with children [10,40) and [50,90); the second has
	// a grandchild [60,70). op 1: root [200,260) with overlapping children
	// [210,230) and [220,240), counted once in the root's self time.
	spans := []span{
		{ID: 0, Parent: -1, Op: 0, Layer: "bench", Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 0, Layer: "core", Start: 10, End: 40},
		{ID: 2, Parent: 0, Op: 0, Layer: "runctl", Start: 50, End: 90},
		{ID: 3, Parent: 2, Op: 0, Layer: "store", Start: 60, End: 70},
		{ID: 4, Parent: -1, Op: 1, Layer: "bench", Start: 200, End: 260},
		{ID: 5, Parent: 4, Op: 1, Layer: "serve", Start: 210, End: 230},
		{ID: 6, Parent: 4, Op: 1, Layer: "serve", Start: 220, End: 240},
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 30, 1: 30, 2: 30, 3: 10, 4: 30, 5: 20, 6: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	// With sequential children, the self times of an operation's spans
	// plus its unattributed remainder (the root's self time, already in
	// the sum) add up to the operation's wall time.
	var sum int64
	for id := 0; id <= 3; id++ {
		sum += self[id]
	}
	if sum != 100 {
		t.Errorf("op 0 self times sum to %d, want the wall time 100", sum)
	}

	p := profileLayers(spans)
	if p.wall != 160 {
		t.Errorf("wall = %d, want 160", p.wall)
	}
	if p.self["bench"] != 60 || p.self["serve"] != 40 {
		t.Errorf("layer self times = %v", p.self)
	}
	if got := p.share("core"); !near(got, 30.0/160) {
		t.Errorf("share(core) = %v", got)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.start("x", "core", 0, -1)
	tr.end(id)
	if id != -1 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.start("op", "bench", 7, -1)
	child := tr.start("call", "core", 7, root)
	open := tr.start("unfinished", "core", 7, root)
	tr.end(child)
	tr.end(root)
	got := tr.snapshot()
	if len(got) != 2 || got[1].Parent != root || got[1].Op != 7 || open < 0 {
		t.Fatalf("snapshot = %+v, want the two closed spans", got)
	}
}
