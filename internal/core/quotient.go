package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
)

// maxQuotientOrder bounds the automorphism groups a Quotient compiles: the
// canonicality test is O(|Γ|·n) per odometer state, so a group too large to
// pay for itself is rejected rather than silently slowing the scan. The
// fully symmetric uniform game (Aut = Sₙ) trips this immediately; such
// instances are quotiented by structural subgroups (translations) instead.
const maxQuotientOrder = 4096

// Quotient is a finite group of spec-preserving player permutations
// compiled against one SearchSpace, ready to canonicalize odometer states
// during enumeration. A permutation π acts on a profile by relabeling
// players and their targets: node π(u) plays {π(v) : v ∈ s(u)}. When π
// preserves the spec (weights, link costs, lengths, budgets) the image
// profile realizes an isomorphic graph with identical per-player costs, so
// stability is orbit-invariant: evaluating one canonical representative
// per orbit and re-expanding decides every member.
//
// The compilation precomputes, per group element, the inverse node map and
// a per-node strategy index table, so the scan-time canonicality test is
// pure table lookups with lexicographic early exit — no allocation, no
// hashing, no strategy materialization.
type Quotient struct {
	n     int
	sets  [][]Strategy // the compiled search space's per-node strategy sets
	perms [][]int      // non-identity group elements (node maps), sorted
	inv   [][]int      // inv[p][j] = the node perms[p] maps to j
	// strat[p][u][si] = index in sets[perms[p][u]] of the image of
	// sets[u][si] under perms[p].
	strat [][][]int32
}

// NewQuotient validates the generator permutations against the spec,
// closes them into a group (bounded by maxQuotientOrder), and compiles the
// group against the search space. Each generator must be a permutation of
// the n players that preserves the spec exactly — Weight, LinkCost, Length
// and Budget must be invariant under relabeling — and must map every
// strategy set of ss onto the image node's strategy set (FullSpace and
// PinnedSpace built from a preserved spec always satisfy this; a hand-
// restricted ss might not, and is rejected rather than miscounted).
func NewQuotient(spec Spec, ss *SearchSpace, gens [][]int) (*Quotient, error) {
	n := spec.N()
	if len(ss.PerNode) != n {
		return nil, fmt.Errorf("core: search space covers %d nodes, spec has %d", len(ss.PerNode), n)
	}
	if ss.Size() >= indexCap {
		return nil, fmt.Errorf("core: a quotient needs a search space of fewer than 2^63 profiles")
	}
	seen := make([]bool, n)
	for gi, perm := range gens {
		if len(perm) != n {
			return nil, fmt.Errorf("core: generator %d has length %d, want %d", gi, len(perm), n)
		}
		for i := range seen {
			seen[i] = false
		}
		for u, v := range perm {
			if v < 0 || v >= n || seen[v] {
				return nil, fmt.Errorf("core: generator %d is not a permutation (node %d -> %d)", gi, u, v)
			}
			seen[v] = true
		}
		if !specPreserved(spec, perm) {
			return nil, fmt.Errorf("core: generator %d does not preserve the spec", gi)
		}
	}

	// Close the generators into a group. Generators preserve the spec, so
	// every composition does too; only the search-space compatibility of
	// each element still needs checking (done during compilation below).
	elems := [][]int{identityPerm(n)}
	index := map[string]bool{permKey(elems[0]): true}
	for head := 0; head < len(elems); head++ {
		for _, gen := range gens {
			c := composePerm(gen, elems[head])
			k := permKey(c)
			if index[k] {
				continue
			}
			if len(elems) >= maxQuotientOrder {
				return nil, fmt.Errorf("core: automorphism group exceeds %d elements; quotient by a structural subgroup instead", maxQuotientOrder)
			}
			index[k] = true
			elems = append(elems, c)
		}
	}

	q := &Quotient{n: n, sets: ss.PerNode}
	for _, perm := range elems[1:] { // drop the identity
		q.perms = append(q.perms, perm)
	}
	sort.Slice(q.perms, func(a, b int) bool { return slices.Compare(q.perms[a], q.perms[b]) < 0 })

	// Per-node strategy index: key each strategy once, then resolve every
	// permuted strategy against the image node's table.
	byKey := make([]map[string]int32, n)
	var sb strings.Builder
	key := func(s Strategy) string {
		sb.Reset()
		for _, v := range s {
			fmt.Fprintf(&sb, "%d,", v)
		}
		return sb.String()
	}
	for u, set := range ss.PerNode {
		byKey[u] = make(map[string]int32, len(set))
		for si, s := range set {
			byKey[u][key(s)] = int32(si)
		}
	}
	img := make([]int, 0, n)
	for _, perm := range q.perms {
		inv := make([]int, n)
		for u, v := range perm {
			inv[v] = u
		}
		q.inv = append(q.inv, inv)
		tab := make([][]int32, n)
		for u, set := range ss.PerNode {
			tab[u] = make([]int32, len(set))
			for si, s := range set {
				img = img[:0]
				for _, v := range s {
					img = append(img, perm[v])
				}
				sort.Ints(img)
				mi, ok := byKey[perm[u]][key(img)]
				if !ok {
					return nil, fmt.Errorf("core: automorphism does not preserve the search space: image of node %d strategy %v is not a strategy of node %d", u, s, perm[u])
				}
				tab[u][si] = mi
			}
		}
		q.strat = append(q.strat, tab)
	}
	return q, nil
}

// Order returns the group order including the identity.
func (q *Quotient) Order() int { return len(q.perms) + 1 }

// QualifyFingerprint appends a quotient qualifier to an enumeration
// fingerprint: a quotiented scan's checkpoints carry pending orbit
// emissions and skip evaluations the plain scan performs, so the two must
// never resume each other. The qualifier hashes the group elements, so
// different groups of equal order also get distinct fingerprints.
func (q *Quotient) QualifyFingerprint(fp string) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, perm := range q.perms {
		for _, v := range perm {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%s+q%d-%016x", fp, q.Order(), h.Sum64())
}

// checkSpace verifies that ss is the search space the quotient was
// compiled against.
func (q *Quotient) checkSpace(ss *SearchSpace) error {
	if len(ss.PerNode) != q.n {
		return fmt.Errorf("core: quotient compiled for %d nodes, search space has %d", q.n, len(ss.PerNode))
	}
	for u, set := range ss.PerNode {
		if !slices.EqualFunc(set, q.sets[u], Strategy.Equal) {
			return fmt.Errorf("core: node %d strategy set differs from the quotient's compiled search space", u)
		}
	}
	return nil
}

// refuteLevel is the canonicality test plus a skip certificate. A state
// is canonical — its orbit's representative — when no group element maps
// it to a lexicographically smaller state. When it is not, level is the
// deepest *free* odometer position (a digit with more than one strategy)
// that some refuting group element's comparison reads: the element maps
// positions 0..d of the image from digits at {inv[0..d]} ∪ {0..d}, and
// digits at singleton positions are constant, so every state agreeing
// with idx on digits 0..level is refuted by that same element and the
// scan may credit the whole suffix block at once. The level is minimized
// over all refuting elements to maximize the block. It allocates nothing.
func (q *Quotient) refuteLevel(idx []int) (canonical bool, level int) {
	best := q.n // sentinel: no element refutes the state
	for p := range q.perms {
		inv, strat := q.inv[p], q.strat[p]
		for j := 0; j < q.n; j++ {
			pu := inv[j]
			m := int(strat[pu][idx[pu]])
			if m == idx[j] {
				continue
			}
			if m < idx[j] {
				lvl := 0
				for k := 0; k <= j; k++ {
					if len(q.sets[k]) > 1 && k > lvl {
						lvl = k
					}
					if pk := inv[k]; len(q.sets[pk]) > 1 && pk > lvl {
						lvl = pk
					}
				}
				if lvl < best {
					best = lvl
				}
			}
			break // the image differs here; a stabilizer element never refutes
		}
	}
	return best == q.n, best
}

// orbit returns the odometer indices (suff as in odometer) of the other
// members of a canonical state's orbit, ascending and deduplicated: every
// profile whose stability follows from the representative's. Each lies
// past the representative, because that is what canonical means.
func (q *Quotient) orbit(idx []int, suff []uint64) []uint64 {
	var self uint64
	for j, d := range idx {
		self += uint64(d) * suff[j+1]
	}
	var out []uint64
	for p := range q.perms {
		inv, strat := q.inv[p], q.strat[p]
		var at uint64
		for j := 0; j < q.n; j++ {
			pu := inv[j]
			at += uint64(strat[pu][idx[pu]]) * suff[j+1]
		}
		if at != self {
			out = append(out, at)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// SpecAutomorphisms enumerates every player permutation preserving the
// spec exactly (weights, link costs, lengths and budgets all invariant
// under relabeling) by backtracking with invariant-signature pruning. It
// returns an error when the group would exceed maxGroup elements (0 means
// maxQuotientOrder): near-symmetric specs like the uniform game have
// factorially many automorphisms, and such instances should be quotiented
// by a structural subgroup (e.g. group.Translations) instead of the full
// group. Structured instances — the Theorem 1 gadget, asymmetric dense
// games — resolve quickly to small groups.
func SpecAutomorphisms(spec Spec, maxGroup int) ([][]int, error) {
	if maxGroup <= 0 {
		maxGroup = maxQuotientOrder
	}
	n := spec.N()
	// Node signature: budget plus the sorted multisets of outgoing and
	// incoming (weight, cost, length) triples. Automorphisms preserve it,
	// so candidate images are restricted to equal-signature nodes.
	sig := make([]string, n)
	{
		var sb strings.Builder
		tri := make([][3]int64, 0, n)
		for u := 0; u < n; u++ {
			sb.Reset()
			fmt.Fprintf(&sb, "b%d;", spec.Budget(u))
			for _, in := range []bool{false, true} {
				tri = tri[:0]
				for v := 0; v < n; v++ {
					if v == u {
						continue
					}
					a, b := u, v
					if in {
						a, b = v, u
					}
					tri = append(tri, [3]int64{spec.Weight(a, b), spec.LinkCost(a, b), spec.Length(a, b)})
				}
				sort.Slice(tri, func(i, j int) bool {
					for k := 0; k < 3; k++ {
						if tri[i][k] != tri[j][k] {
							return tri[i][k] < tri[j][k]
						}
					}
					return false
				})
				for _, t := range tri {
					fmt.Fprintf(&sb, "%d,%d,%d;", t[0], t[1], t[2])
				}
			}
			sig[u] = sb.String()
		}
	}

	perm := make([]int, n)
	for i := range perm {
		perm[i] = -1
	}
	used := make([]bool, n)
	var out [][]int
	overflow := false
	compatible := func(u, w int) bool {
		if sig[u] != sig[w] {
			return false
		}
		for v := 0; v < n; v++ {
			pv := perm[v]
			if pv < 0 || v == u {
				continue
			}
			if spec.Weight(u, v) != spec.Weight(w, pv) || spec.Weight(v, u) != spec.Weight(pv, w) ||
				spec.LinkCost(u, v) != spec.LinkCost(w, pv) || spec.LinkCost(v, u) != spec.LinkCost(pv, w) ||
				spec.Length(u, v) != spec.Length(w, pv) || spec.Length(v, u) != spec.Length(pv, w) {
				return false
			}
		}
		return true
	}
	var dfs func(u int)
	dfs = func(u int) {
		if overflow {
			return
		}
		if u == n {
			if len(out) >= maxGroup {
				overflow = true
				return
			}
			out = append(out, append([]int(nil), perm...))
			return
		}
		for w := 0; w < n; w++ {
			if used[w] || !compatible(u, w) {
				continue
			}
			perm[u] = w
			used[w] = true
			dfs(u + 1)
			perm[u] = -1
			used[w] = false
			if overflow {
				return
			}
		}
	}
	dfs(0)
	if overflow {
		return nil, fmt.Errorf("core: spec automorphism group exceeds %d elements", maxGroup)
	}
	return out, nil
}

// specPreserved reports whether the permutation leaves the spec invariant.
func specPreserved(spec Spec, perm []int) bool {
	n := spec.N()
	for u := 0; u < n; u++ {
		if spec.Budget(u) != spec.Budget(perm[u]) {
			return false
		}
		for v := 0; v < n; v++ {
			if v == u {
				continue
			}
			pu, pv := perm[u], perm[v]
			if spec.Weight(u, v) != spec.Weight(pu, pv) ||
				spec.LinkCost(u, v) != spec.LinkCost(pu, pv) ||
				spec.Length(u, v) != spec.Length(pu, pv) {
				return false
			}
		}
	}
	return true
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// composePerm returns a∘b: (a∘b)(x) = a[b[x]].
func composePerm(a, b []int) []int {
	c := make([]int, len(a))
	for x := range c {
		c[x] = a[b[x]]
	}
	return c
}

func permKey(p []int) string {
	var sb strings.Builder
	for _, v := range p {
		fmt.Fprintf(&sb, "%d,", v)
	}
	return sb.String()
}
