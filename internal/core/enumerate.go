package core

import (
	"context"
	"fmt"
	"hash/fnv"

	"bbc/internal/graph"
	"bbc/internal/obs"
	"bbc/internal/runctl"
)

// AllStrategies enumerates feasible strategies for node u. When maximalOnly
// is set, only budget-maximal sets are returned (no affordable link can be
// added); otherwise every feasible set including the empty one is returned.
// limit caps the result length (0 = unlimited); exceeding it returns an
// *EnumerationLimitError.
func AllStrategies(spec Spec, u int, maximalOnly bool, limit int) ([]Strategy, error) {
	n := spec.N()
	cands := make([]int, 0, n-1)
	costs := make([]int64, 0, n-1)
	for v := 0; v < n; v++ {
		if v != u {
			cands = append(cands, v)
			costs = append(costs, spec.LinkCost(u, v))
		}
	}
	minRemain := make([]int64, len(cands)+1)
	minRemain[len(cands)] = int64(1)<<62 - 1
	for i := len(cands) - 1; i >= 0; i-- {
		minRemain[i] = costs[i]
		if minRemain[i+1] < minRemain[i] {
			minRemain[i] = minRemain[i+1]
		}
	}
	var (
		out      []Strategy
		chosen   []int
		inSet    = make([]bool, len(cands))
		limitHit bool
	)
	// isMaximal reports whether no unchosen candidate fits in rem.
	isMaximal := func(rem int64) bool {
		for i := range cands {
			if !inSet[i] && costs[i] <= rem {
				return false
			}
		}
		return true
	}
	emit := func(rem int64) {
		if maximalOnly && !isMaximal(rem) {
			return
		}
		if limit > 0 && len(out) >= limit {
			limitHit = true
			return
		}
		s := make(Strategy, len(chosen))
		copy(s, chosen)
		out = append(out, s)
	}
	var dfs func(i int, rem int64)
	dfs = func(i int, rem int64) {
		if limitHit {
			return
		}
		if i == len(cands) {
			emit(rem)
			return
		}
		if maximalOnly && minRemain[i] > rem {
			emit(rem)
			return
		}
		if costs[i] <= rem {
			chosen = append(chosen, cands[i])
			inSet[i] = true
			dfs(i+1, rem-costs[i])
			inSet[i] = false
			chosen = chosen[:len(chosen)-1]
		}
		if limitHit {
			return
		}
		if !maximalOnly {
			dfs(i+1, rem)
			return
		}
		if costs[i] > rem || minRemain[i+1] <= rem {
			dfs(i+1, rem)
		}
	}
	dfs(0, spec.Budget(u))
	if limitHit {
		return nil, &EnumerationLimitError{Node: u, Limit: limit}
	}
	return out, nil
}

// SearchSpace restricts the per-node strategy sets explored by
// EnumeratePureNE. A nil entry means "not restricted" and is invalid; use
// FullSpace or PinnedSpace to build one.
type SearchSpace struct {
	PerNode [][]Strategy
}

// Size returns the number of profiles in the product space, saturating at
// 2^63.
func (ss *SearchSpace) Size() uint64 { return newOdometer(ss).size() }

// Pivot returns the index of the first node with more than one strategy
// — the axis the distributed fleet splits the odometer space along into
// shards — or -1 when every set is a singleton and the space holds
// exactly one profile. Splitting on the pivot keeps the serial odometer
// order: shard i in full precedes every profile of shard i+1, so
// concatenating shard results in index order reproduces the unsplit scan
// byte for byte.
func (ss *SearchSpace) Pivot() int {
	for u, set := range ss.PerNode {
		if len(set) > 1 {
			return u
		}
	}
	return -1
}

// FullSpace builds the unrestricted search space: every feasible strategy
// for every node (including non-maximal ones, since ties can make
// non-maximal strategies equilibrium components).
func FullSpace(spec Spec, limitPerNode int) (*SearchSpace, error) {
	ss := &SearchSpace{PerNode: make([][]Strategy, spec.N())}
	for u := 0; u < spec.N(); u++ {
		set, err := AllStrategies(spec, u, false, limitPerNode)
		if err != nil {
			return nil, err
		}
		ss.PerNode[u] = set
	}
	return ss, nil
}

// PinnedSpace builds a search space with the singleton-support pin rule
// applied: in a unit-length game, a node u whose preference weights are
// positive for exactly one target v (and which can afford the link to v)
// achieves distance 1 to v only by buying that link, so every best response
// of u contains v; strategies omitting v can be soundly excluded. The rule
// preserves all pure Nash equilibria, so "no NE in the pinned space"
// implies "no NE at all".
func PinnedSpace(spec Spec, limitPerNode int) (*SearchSpace, error) {
	if !spec.UnitLengths() {
		return nil, fmt.Errorf("core: PinnedSpace requires unit link lengths")
	}
	full, err := FullSpace(spec, limitPerNode)
	if err != nil {
		return nil, err
	}
	n := spec.N()
	for u := 0; u < n; u++ {
		support := -1
		multi := false
		for v := 0; v < n; v++ {
			if v != u && spec.Weight(u, v) > 0 {
				if support >= 0 {
					multi = true
					break
				}
				support = v
			}
		}
		if multi || support < 0 || spec.LinkCost(u, support) > spec.Budget(u) {
			continue
		}
		kept := full.PerNode[u][:0]
		for _, s := range full.PerNode[u] {
			if s.Contains(support) {
				kept = append(kept, s)
			}
		}
		full.PerNode[u] = kept
	}
	return full, nil
}

// NEResult reports the outcome of an exhaustive equilibrium search.
type NEResult struct {
	// Equilibria holds the pure Nash equilibria found (up to the caller's
	// cap), in odometer order.
	Equilibria []Profile
	// Checked is the number of profiles whose stability was tested,
	// including profiles credited from a resumed checkpoint.
	Checked uint64
	// Complete is true when the whole space was scanned (the search did not
	// stop early at a cap, budget, deadline or cancellation).
	Complete bool
	// Status classifies how the scan ended: complete, cancelled (context
	// cancel / signal), deadline (-timeout), or budget (max-equilibria or
	// max-profiles cap). Every early stop returns the partial result with
	// a nil error; hard failures (bad input, worker panic) return errors.
	Status runctl.Status
	// Resume, non-nil on an early stop with work left, is the state from
	// which a new scan continues without re-checking any profile.
	Resume *EnumCheckpoint
}

// EnumCheckpoint is the serialized progress of an enumeration scan,
// serial or parallel: both entry points read and write this one shape, so
// a scan may be resumed by either. Wrap it in a runctl.Checkpoint
// envelope (kind "enumeration") to persist it.
type EnumCheckpoint struct {
	// Cursor holds the per-node strategy indices (odometer digits) of the
	// first unchecked profile: every profile before it is checked.
	Cursor []int `json:"cursor"`
	// Checked is the number of profiles already checked: the cursor's
	// odometer index plus the lengths of the Done runs.
	Checked uint64 `json:"checked"`
	// Done lists the runs past the cursor that are already checked, as
	// ascending, disjoint, non-adjacent half-open [lo, hi) odometer
	// indices (profile i has digit u = i / Π_{v>u}|S_v| mod |S_u|). Only a
	// parallel scan, whose ranges finish out of order, leaves any.
	Done [][2]uint64 `json:"done,omitempty"`
	// Equilibria are the equilibria at checked profiles, in odometer
	// order.
	Equilibria []Profile `json:"equilibria,omitempty"`
	// Pending holds, for a quotiented scan, the odometer digits (strictly
	// ascending, all unchecked and past the cursor) of equilibria already
	// known by orbit expansion. Resuming replays them so the emitted
	// equilibria match the unquotiented scan byte for byte. Empty for
	// plain scans, where every orbit is the trivial one.
	Pending [][]int `json:"pending,omitempty"`
}

// validate checks a checkpoint against the spec and search space it
// resumes and decodes it into a scan ledger. Envelope checksums catch
// accidental corruption, but a resumed payload still crosses a trust
// boundary (hand-edited files, schema drift); a checkpoint that passes
// here can be replayed into a result without further checking.
func (cp *EnumCheckpoint) validate(spec Spec, ss *SearchSpace) (*ledger, error) {
	od := newOdometer(ss)
	index := func(what string, v []int) (uint64, error) {
		if len(v) != len(od.sets) {
			return 0, fmt.Errorf("core: checkpoint %s covers %d nodes, search space has %d", what, len(v), len(od.sets))
		}
		for u, i := range v {
			if i < 0 || i >= len(od.sets[u]) {
				return 0, fmt.Errorf("core: checkpoint %s[%d]=%d out of range [0,%d)", what, u, i, len(od.sets[u]))
			}
		}
		return od.index(v), nil
	}
	cur, err := index("cursor", cp.Cursor)
	if err != nil {
		return nil, err
	}
	l := &ledger{}
	if cur > 0 {
		l.done = []span{{0, cur}}
	}
	last := cur
	for k, d := range cp.Done {
		if d[0] <= last || d[1] <= d[0] || d[1] > od.size() {
			return nil, fmt.Errorf("core: checkpoint done run %d [%d,%d) is not an ascending, disjoint run past the cursor within %d profiles", k, d[0], d[1], od.size())
		}
		l.done = append(l.done, span{d[0], d[1]})
		last = d[1]
	}
	if covered := l.checked(); cp.Checked != covered {
		return nil, fmt.Errorf("core: checkpoint claims %d checked profiles, its cursor and done runs cover %d", cp.Checked, covered)
	}
	var pending []hit
	for k, v := range cp.Pending {
		at, err := index(fmt.Sprintf("pending[%d]", k), v)
		if err != nil {
			return nil, err
		}
		if k > 0 && at <= pending[k-1].at {
			return nil, fmt.Errorf("core: checkpoint pending entries not strictly ascending at %d", k)
		}
		if l.covers(at) {
			return nil, fmt.Errorf("core: checkpoint pending[%d] lies among the checked profiles", k)
		}
		pending = append(pending, hit{at, od.profile(at)})
	}
	for k, eq := range cp.Equilibria {
		if err := eq.Validate(spec); err != nil {
			return nil, fmt.Errorf("core: checkpoint equilibrium %d is not a feasible profile: %w", k, err)
		}
		at, ok := od.locate(eq)
		if !ok || !l.covers(at) || k > 0 && at <= l.known[k-1].at {
			return nil, fmt.Errorf("core: checkpoint equilibrium %d is not a checked profile of the search space in odometer order", k)
		}
		l.known = append(l.known, hit{at, eq})
	}
	l.merge(pending)
	return l, nil
}

// EnumFingerprint identifies a scan configuration for checkpoint
// validation: two runs share a fingerprint exactly when they scan the
// same spec, aggregation and per-node strategy sets, so a checkpoint is
// never resumed against a different search.
func EnumFingerprint(spec Spec, agg Aggregation, ss *SearchSpace) string {
	h := fnv.New64a()
	n := spec.N()
	fmt.Fprintf(h, "n=%d;agg=%d;M=%d;", n, agg, spec.Penalty())
	for u := 0; u < n; u++ {
		fmt.Fprintf(h, "b=%d;", spec.Budget(u))
		for v := 0; v < n; v++ {
			if v != u {
				fmt.Fprintf(h, "%d,%d,%d;", spec.Weight(u, v), spec.LinkCost(u, v), spec.Length(u, v))
			}
		}
	}
	for _, set := range ss.PerNode {
		fmt.Fprintf(h, "s=%d;", len(set))
	}
	return fmt.Sprintf("enum-%016x", h.Sum64())
}

// EnumConfig tunes a run-controlled enumeration scan. The zero value
// reproduces the classic uncontrolled scan.
type EnumConfig struct {
	// Ctx, when non-nil, is polled every CheckEvery profiles; a cancel or
	// deadline stops the scan with a partial result and resume state.
	Ctx context.Context
	// MaxEquilibria stops collecting after this many equilibria (0 = all).
	MaxEquilibria int
	// MaxProfiles bounds the cumulative number of profiles checked
	// (including profiles credited from a resumed checkpoint); hitting it
	// stops the scan with StatusBudget. 0 means unbounded.
	MaxProfiles uint64
	// CheckEvery is the context-poll period in profiles (0 = runctl.CheckEvery).
	CheckEvery uint64
	// CheckpointEvery is the period, in profiles a worker checks this run,
	// at which OnCheckpoint fires (0 = every 1<<20 profiles).
	CheckpointEvery uint64
	// OnCheckpoint, when non-nil, receives a snapshot of the whole scan's
	// progress every CheckpointEvery profiles each worker checks, one call
	// at a time. The callback must not mutate the snapshot.
	OnCheckpoint func(*EnumCheckpoint)
	// Resume continues a previous scan from its checkpoint instead of
	// starting at the first profile.
	Resume *EnumCheckpoint
	// Workers bounds parallel-scan concurrency (0 = NumCPU); ignored by
	// EnumeratePureNEOpts.
	Workers int
	// Quotient, when non-nil, must be compiled (NewQuotient) against this
	// scan's spec and search space: the scan then evaluates stability only
	// at canonical orbit representatives, crediting the skipped states and
	// re-expanding stable representatives into their full orbits at the
	// moment the cursor reaches each member — so a completed quotiented
	// scan returns equilibria, counts and ordering byte-identical to the
	// plain scan at a fraction of the evaluations, serial or parallel.
	// Checkpoints from
	// quotiented and plain scans are mutually incompatible (resume both
	// sides of a split under the same Quotient; see QualifyFingerprint).
	Quotient *Quotient
	// DisableBatchBFS forces scalar per-source traversals during oracle
	// rebuilds instead of the bit-parallel batch path (see
	// EvalScratch.SetBatchBFS). Results are identical either way.
	DisableBatchBFS bool

	// budget, when non-nil, replaces the MaxProfiles allowance (tests
	// observe it).
	budget *profileBudget
}

func (c EnumConfig) checkpointEvery() uint64 {
	if c.CheckpointEvery > 0 {
		return c.CheckpointEvery
	}
	return 1 << 20
}

// EnumeratePureNE scans the product space and returns all pure Nash
// equilibria it contains (up to maxEquilibria; 0 means collect all). The
// stability test is exact. The scan maintains the realized graph
// incrementally, so successive profiles that differ in one node's strategy
// cost only that node's rewiring.
func EnumeratePureNE(spec Spec, agg Aggregation, ss *SearchSpace, maxEquilibria int) (*NEResult, error) {
	return EnumeratePureNEOpts(spec, agg, ss, EnumConfig{MaxEquilibria: maxEquilibria})
}

// EnumeratePureNEOpts is EnumeratePureNE under run control: the scan
// observes cfg.Ctx within CheckEvery profiles, truncates at the
// MaxProfiles budget, periodically reports resumable checkpoints, and can
// itself resume from one. An interrupted-then-resumed scan checks exactly
// the profiles the uninterrupted scan would have and returns identical
// equilibria in identical order. It runs on the calling goroutine and
// ignores cfg.Workers.
func EnumeratePureNEOpts(spec Spec, agg Aggregation, ss *SearchSpace, cfg EnumConfig) (*NEResult, error) {
	sp := obs.Trace().StartSpan("enum.scan")
	s, err := newScan(spec, agg, ss, cfg)
	if err != nil {
		sp.End()
		return nil, err
	}
	s.runSerial()
	res := s.result()
	sp.EndInt("checked", int64(res.Checked))
	return res, nil
}

// EnumeratePureNEParallel is EnumeratePureNE spread over workers
// goroutines. Results are merged by odometer index, so the equilibria come
// back in the same order as the serial scan. maxEquilibria caps the total
// collected (0 = all); Complete reports whether every profile was checked
// before the cap ended the collection.
func EnumeratePureNEParallel(spec Spec, agg Aggregation, ss *SearchSpace, maxEquilibria, workers int) (*NEResult, error) {
	return EnumeratePureNEParallelOpts(spec, agg, ss, EnumConfig{MaxEquilibria: maxEquilibria, Workers: workers})
}

// EnumeratePureNEParallelOpts is the run-controlled parallel scan. At
// most cfg.Workers goroutines claim fixed index ranges of the space
// (never one goroutine per range), every range observes cfg.Ctx and the
// shared cfg.MaxProfiles budget, and a panic inside a range surfaces as
// an error naming that partition instead of killing the process.
// Each worker fires OnCheckpoint every CheckpointEvery profiles it checks,
// and the checkpoint resumes in either entry point.
func EnumeratePureNEParallelOpts(spec Spec, agg Aggregation, ss *SearchSpace, cfg EnumConfig) (*NEResult, error) {
	s, err := newScan(spec, agg, ss, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.runParallel(cfg.Workers); err != nil {
		return nil, err
	}
	return s.result(), nil
}

// setStrategyArcs rewires node u's out-arcs in g to match strategy s.
func setStrategyArcs(spec Spec, g *graph.Digraph, u int, s Strategy) {
	g.RemoveArcs(u)
	for _, v := range s {
		g.AddArc(u, v, spec.Length(u, v))
	}
}

// profileStable is an exact per-profile stability check with early exit at
// the first node that has a strictly improving deviation. Each node's
// stability is decided by the pruned existence query HasImprovement,
// which is verdict-identical to a full BestExact enumeration (its root
// bound also subsumes the LowerBound short-circuit the pre-incremental
// checker used).
//
// The check starts with lastChanged, the node whose odometer digit the
// previous advance stepped (-1 when unknown): its oracle is independent
// of its own out-arcs, so it is the one node whose cached oracle survived
// the rewire — when it is the node with the improving deviation, the
// whole profile is refuted without a single traversal. The remaining
// nodes follow in the given order (larger strategy sets first). The
// stability verdict is a conjunction, so check order cannot change it —
// only how fast the early exit fires.
func profileStable(es *EvalScratch, p Profile, order []int, lastChanged int) bool {
	obs.Global().Inc(obs.MStabilityChecks)
	if lastChanged >= 0 {
		o := es.OracleFor(lastChanged)
		if o.HasImprovement(o.Evaluate(p[lastChanged])) {
			return false
		}
	}
	for _, u := range order {
		if u == lastChanged {
			continue
		}
		o := es.OracleFor(u)
		if o.HasImprovement(o.Evaluate(p[u])) {
			return false
		}
	}
	return true
}
