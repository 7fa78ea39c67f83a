package core

import (
	"context"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"
)

// roundTripCheckpoint serializes and re-parses a checkpoint, as persisting
// it through runctl.Store would.
func roundTripCheckpoint(t *testing.T, cp *EnumCheckpoint) *EnumCheckpoint {
	t.Helper()
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatalf("marshal checkpoint: %v", err)
	}
	out := &EnumCheckpoint{}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatalf("unmarshal checkpoint: %v", err)
	}
	return out
}

// randomSymmetricDense draws a unit-length dense game with a built-in
// automorphism: nodes pair up as u ↔ u+m (n = 2m) and every matrix entry
// is mirrored under that involution, so swapping the halves preserves the
// spec while the entries within a half stay adversarially random.
func randomSymmetricDense(rng *rand.Rand, m int) (*Dense, []int) {
	n := 2 * m
	d := NewDense(n)
	mirror := func(x int) int { return (x + m) % n }
	for u := 0; u < m; u++ {
		d.Budgets[u] = int64(1 + rng.Intn(2))
		d.Budgets[mirror(u)] = d.Budgets[u]
		for v := 0; v < n; v++ {
			if v == u {
				continue
			}
			w := int64(rng.Intn(3))
			c := int64(1 + rng.Intn(2))
			d.Weights[u][v] = w
			d.Costs[u][v] = c
			d.Weights[mirror(u)][mirror(v)] = w
			d.Costs[mirror(u)][mirror(v)] = c
		}
	}
	perm := make([]int, n)
	for u := range perm {
		perm[u] = mirror(u)
	}
	return d.MustSeal(), perm
}

// translationPerms returns the cyclic shift permutations u ↦ u+t of the
// n-player uniform game — the structural subgroup that replaces the
// intractable full Sₙ automorphism group.
func translationPerms(n int) [][]int {
	var out [][]int
	for t := 1; t < n; t++ {
		p := make([]int, n)
		for u := range p {
			p[u] = (u + t) % n
		}
		out = append(out, p)
	}
	return out
}

func TestNewQuotientValidation(t *testing.T) {
	spec := MustUniform(4, 1)
	ss, err := FullSpace(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewQuotient(spec, ss, [][]int{{0, 1}}); err == nil {
		t.Error("wrong-length generator accepted")
	}
	if _, err := NewQuotient(spec, ss, [][]int{{0, 0, 1, 2}}); err == nil {
		t.Error("non-permutation accepted")
	}
	rng := rand.New(rand.NewSource(3))
	dense := randomDense(rng, 4)
	dss, err := FullSpace(dense, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewQuotient(dense, dss, [][]int{{1, 0, 2, 3}}); err == nil {
		t.Error("spec-breaking permutation accepted for an asymmetric game")
	}
	q, err := NewQuotient(spec, ss, translationPerms(4))
	if err != nil {
		t.Fatalf("translations rejected: %v", err)
	}
	if q.Order() != 4 {
		t.Errorf("Z_4 translation group has order %d, want 4", q.Order())
	}
	fp := EnumFingerprint(spec, SumDistances, ss)
	if qfp := q.QualifyFingerprint(fp); qfp == fp {
		t.Error("qualified fingerprint equals the plain fingerprint")
	}
}

func TestSpecAutomorphismsOverflow(t *testing.T) {
	// The uniform game is fully symmetric: Aut = Sₙ, far beyond any useful
	// quotient. The enumerator must refuse rather than hand back a group
	// whose canonicality test costs more than it saves.
	if _, err := SpecAutomorphisms(MustUniform(6, 1), 100); err == nil {
		t.Fatal("S_6 (720 elements) not rejected at cap 100")
	}
	// An asymmetric random game has only the identity.
	rng := rand.New(rand.NewSource(5))
	perms, err := SpecAutomorphisms(randomDense(rng, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(perms) != 1 {
		t.Errorf("asymmetric game has %d automorphisms, want 1 (identity)", len(perms))
	}
}

func TestSpecAutomorphismsFindsMirror(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spec, mirror := randomSymmetricDense(rng, 3)
	perms, err := SpecAutomorphisms(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range perms {
		if slices.Equal(p, mirror) {
			found = true
		}
	}
	if !found {
		t.Fatalf("mirror involution %v not among %d discovered automorphisms", mirror, len(perms))
	}
}

// TestDifferentialQuotient cross-checks quotiented scans against the plain
// incremental scan (itself reference-checked by TestDifferentialEnumerate)
// on random mirror-symmetric games and translation-quotiented uniform
// games, for both aggregations, demanding byte-identical NEResult JSON.
func TestDifferentialQuotient(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 8; trial++ {
		var (
			spec Spec
			gens [][]int
		)
		if trial%2 == 0 {
			spec = MustUniform(4+trial%3, 1)
			gens = translationPerms(spec.N())
		} else {
			spec, _ = randomSymmetricDense(rng, 2+rng.Intn(2))
			var err error
			gens, err = SpecAutomorphisms(spec, 0)
			if err != nil {
				t.Fatalf("trial %d: SpecAutomorphisms: %v", trial, err)
			}
		}
		ss, err := FullSpace(spec, 0)
		if err != nil {
			t.Fatalf("trial %d: FullSpace: %v", trial, err)
		}
		q, err := NewQuotient(spec, ss, gens)
		if err != nil {
			t.Fatalf("trial %d: NewQuotient: %v", trial, err)
		}
		if q.Order() < 2 {
			t.Fatalf("trial %d: trivial group", trial)
		}
		for _, agg := range []Aggregation{SumDistances, MaxDistance} {
			plain, err := EnumeratePureNEOpts(spec, agg, ss, EnumConfig{})
			if err != nil {
				t.Fatalf("trial %d: plain: %v", trial, err)
			}
			quot, err := EnumeratePureNEOpts(spec, agg, ss, EnumConfig{Quotient: q})
			if err != nil {
				t.Fatalf("trial %d: quotient: %v", trial, err)
			}
			if g, w := mustJSON(t, quot), mustJSON(t, plain); g != w {
				t.Fatalf("trial %d agg %d (group order %d): quotient scan diverged\n got: %s\nwant: %s",
					trial, agg, q.Order(), g, w)
			}
		}
	}
}

// TestDifferentialQuotientParallel runs the partitioned scan under a
// quotient and demands byte-identity with the plain serial scan.
func TestDifferentialQuotientParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 5; trial++ {
		spec, _ := randomSymmetricDense(rng, 2)
		gens, err := SpecAutomorphisms(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := FullSpace(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		q, err := NewQuotient(spec, ss, gens)
		if err != nil {
			t.Fatal(err)
		}
		for _, agg := range []Aggregation{SumDistances, MaxDistance} {
			plain, err := EnumeratePureNEOpts(spec, agg, ss, EnumConfig{})
			if err != nil {
				t.Fatal(err)
			}
			par, err := EnumeratePureNEParallelOpts(spec, agg, ss, EnumConfig{Quotient: q, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if g, w := mustJSON(t, par), mustJSON(t, plain); g != w {
				t.Fatalf("trial %d agg %d: parallel quotient diverged\n got: %s\nwant: %s", trial, agg, g, w)
			}
		}
	}
}

// TestDifferentialQuotientResume interrupts a quotiented scan (context
// cancel after the first checkpoint, then repeated profile budgets) and
// resumes to completion: the pending orbit emissions must survive the
// checkpoint round trips for the final result to match the plain scan.
func TestDifferentialQuotientResume(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 5; trial++ {
		spec, _ := randomSymmetricDense(rng, 2)
		gens, err := SpecAutomorphisms(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := FullSpace(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		q, err := NewQuotient(spec, ss, gens)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := EnumeratePureNEOpts(spec, SumDistances, ss, EnumConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want := mustJSON(t, plain)

		ctx, cancel := context.WithCancel(context.Background())
		res, err := EnumeratePureNEOpts(spec, SumDistances, ss, EnumConfig{
			Quotient:        q,
			Ctx:             ctx,
			CheckEvery:      8,
			CheckpointEvery: 16,
			OnCheckpoint:    func(*EnumCheckpoint) { cancel() },
		})
		cancel()
		if err != nil {
			t.Fatalf("leg 1: %v", err)
		}
		legs := 1
		for !res.Complete && res.Resume != nil {
			if legs++; legs > 10000 {
				t.Fatal("resume loop did not terminate")
			}
			// Round-trip the checkpoint through JSON like runctl.Store does,
			// so Pending serialization is on the tested path.
			cp := roundTripCheckpoint(t, res.Resume)
			res, err = EnumeratePureNEOpts(spec, SumDistances, ss, EnumConfig{
				Quotient:    q,
				MaxProfiles: res.Checked + 16,
				Resume:      cp,
			})
			if err != nil {
				t.Fatalf("leg %d: %v", legs, err)
			}
		}
		if !res.Complete {
			t.Fatalf("trial %d: scan never completed (status %v)", trial, res.Status)
		}
		if got := mustJSON(t, res); got != want {
			t.Fatalf("trial %d (%d legs): resumed quotient scan diverged\n got: %s\nwant: %s", trial, legs, got, want)
		}
	}
}

// TestDifferentialScalarVsBatch pins the bit-parallel traversal contract:
// scans with the batch path forced off are byte-identical to the default,
// across random uniform-length games, both aggregations, serial and
// parallel. (Random dense games in TestDifferentialEnumerate already run
// the batch path against the non-incremental reference.)
func TestDifferentialScalarVsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 6; trial++ {
		var spec Spec
		if trial%2 == 0 {
			spec = MustUniform(4+trial%2, 1+trial%2)
		} else {
			spec, _ = randomSymmetricDense(rng, 2)
		}
		ss, err := FullSpace(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, agg := range []Aggregation{SumDistances, MaxDistance} {
			batch, err := EnumeratePureNEOpts(spec, agg, ss, EnumConfig{})
			if err != nil {
				t.Fatal(err)
			}
			scalar, err := EnumeratePureNEOpts(spec, agg, ss, EnumConfig{DisableBatchBFS: true})
			if err != nil {
				t.Fatal(err)
			}
			if g, w := mustJSON(t, batch), mustJSON(t, scalar); g != w {
				t.Fatalf("trial %d agg %d: batch BFS diverged from scalar\n got: %s\nwant: %s", trial, agg, g, w)
			}
			parScalar, err := EnumeratePureNEParallelOpts(spec, agg, ss, EnumConfig{DisableBatchBFS: true, Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if g, w := mustJSON(t, parScalar), mustJSON(t, batch); g != w {
				t.Fatalf("trial %d agg %d: parallel scalar diverged\n got: %s\nwant: %s", trial, agg, g, w)
			}
		}
	}
}

// TestQuotientCheckpointValidation exercises the Pending checks a hostile
// or corrupted checkpoint must fail.
func TestQuotientCheckpointValidation(t *testing.T) {
	spec := MustUniform(4, 1)
	ss, err := FullSpace(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := &EnumCheckpoint{Cursor: []int{0, 1, 0, 0}, Checked: 16}
	for name, pend := range map[string][][]int{
		"wrong length":  {{0, 1}},
		"out of range":  {{0, 99, 0, 0}},
		"before cursor": {{0, 0, 0, 0}},
		"not ascending": {{0, 2, 0, 0}, {0, 1, 1, 0}},
		"duplicate":     {{0, 2, 0, 0}, {0, 2, 0, 0}},
	} {
		cp := *base
		cp.Pending = pend
		if _, err := EnumeratePureNEOpts(spec, SumDistances, ss, EnumConfig{Resume: &cp}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A valid pending entry at the cursor itself must be accepted.
	cp := *base
	cp.Pending = [][]int{{0, 1, 0, 0}, {0, 3, 2, 1}}
	if _, err := EnumeratePureNEOpts(spec, SumDistances, ss, EnumConfig{Resume: &cp, MaxProfiles: 17}); err != nil {
		t.Errorf("valid pending rejected: %v", err)
	}
}
