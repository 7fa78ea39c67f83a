package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bbc/internal/graph"
	"bbc/internal/obs"
	"bbc/internal/runctl"
)

// The enumeration engine. A search space is a mixed-radix number line
// [0, Size): profile i gives node u its strategy (i / suff[u+1]) mod
// |PerNode[u]|, digit 0 most significant, so index order is the odometer
// order. Every scan checks half-open index ranges [lo, hi):
//
//   - the serial scan is one worker draining the unchecked ranges in
//     order, contiguously (a fresh scan is the single range [0, Size));
//   - the parallel scan cuts [0, Size) into scanRanges fixed ranges that
//     Workers goroutines claim from an atomic counter;
//   - under a Quotient either scan skips non-canonical states by the
//     global group. A stable representative's orbit members inside its
//     range are emitted when the cursor reaches them; members past the
//     range's end are carried to the shared ledger and merged by index,
//     so no range needs another range's state.
//
// The ledger holds what every finished range settled. A checkpoint is the
// ledger plus the published progress of the ranges still running, so
// both entry points read and write the same EnumCheckpoint.

// indexCap bounds profile indices: spaces of 2^63 or more profiles
// saturate there, like SearchSpace.Size.
const indexCap = uint64(1) << 63

// scanRanges is the number of ranges a parallel scan cuts its space into
// (fewer when the space holds fewer profiles). It depends on nothing but
// the space, so a checkpoint resumes at any worker count.
const scanRanges = 64

// evalSampleMask samples 1 in 64 profile-stability checks into the
// HProfileEval latency histogram: two extra clock reads against a
// ~500ns check would be measurable at every profile, negligible at 1/64.
const evalSampleMask = 63

// odometer is the mixed-radix index of a SearchSpace.
type odometer struct {
	sets [][]Strategy
	suff []uint64 // suff[u] = Π_{v≥u} |sets[v]|, saturating at indexCap
}

func newOdometer(ss *SearchSpace) *odometer {
	n := len(ss.PerNode)
	od := &odometer{sets: ss.PerNode, suff: make([]uint64, n+1)}
	od.suff[n] = 1
	for u := n - 1; u >= 0; u-- {
		od.suff[u] = satMulAdd(od.suff[u+1], uint64(len(ss.PerNode[u])), 0)
	}
	return od
}

// satMulAdd returns a·b + c, saturating at indexCap.
func satMulAdd(a, b, c uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	sum, carry := bits.Add64(lo, c, 0)
	if hi != 0 || carry != 0 || sum > indexCap {
		return indexCap
	}
	return sum
}

func (od *odometer) size() uint64 { return od.suff[0] }

// index returns the index of odometer state idx (saturating).
func (od *odometer) index(idx []int) uint64 {
	var at uint64
	for u, d := range idx {
		at = satMulAdd(uint64(d), od.suff[u+1], at)
	}
	return at
}

// digits writes the odometer state of index at < size into idx. A
// saturated suffix product exceeds every representable index, so its
// digit is correctly 0.
func (od *odometer) digits(at uint64, idx []int) {
	for u := range idx {
		idx[u] = int(at / od.suff[u+1] % uint64(len(od.sets[u])))
	}
}

// profile materializes the profile at index at, cloning each strategy so
// it cannot alias the search space (the same deep-copy shape as
// Profile.Clone, so emitted equilibria are byte-identical either way).
func (od *odometer) profile(at uint64) Profile {
	idx := make([]int, len(od.sets))
	od.digits(at, idx)
	p := make(Profile, len(idx))
	for u, i := range idx {
		p[u] = append(Strategy(nil), od.sets[u][i]...)
	}
	return p
}

// locate returns the index of profile p (one strategy per node), or
// false when p is not in the space.
func (od *odometer) locate(p Profile) (uint64, bool) {
	idx := make([]int, len(p))
	for u, s := range p {
		if idx[u] = slices.IndexFunc(od.sets[u], s.Equal); idx[u] < 0 {
			return 0, false
		}
	}
	return od.index(idx), true
}

// planRanges cuts [0, size) into min(size, scanRanges) near-equal ranges.
func planRanges(size uint64) []span {
	k := min(size, scanRanges)
	out := make([]span, k)
	var lo uint64
	for i := range out {
		phi, plo := bits.Mul64(size, uint64(i+1))
		hi, _ := bits.Div64(phi, plo, k)
		out[i] = span{lo, hi}
		lo = hi
	}
	return out
}

// span is a half-open run [lo, hi) of profile indices.
type span struct{ lo, hi uint64 }

// hit is an equilibrium at profile index at.
type hit struct {
	at uint64
	p  Profile
}

// ledger is a scan's settled progress: the index runs checked and every
// equilibrium known so far — found at a checked index, or known by orbit
// expansion at an index not yet checked (pending).
type ledger struct {
	done  []span // ascending, disjoint and non-adjacent
	known []hit  // ascending by index, duplicate-free
}

func (l *ledger) checked() uint64 {
	var c uint64
	for _, d := range l.done {
		c += d.hi - d.lo
	}
	return c
}

// covers reports whether index at has been checked.
func (l *ledger) covers(at uint64) bool {
	i := sort.Search(len(l.done), func(i int) bool { return l.done[i].hi > at })
	return i < len(l.done) && l.done[i].lo <= at
}

// gaps returns the unchecked runs of [lo, hi).
func (l *ledger) gaps(lo, hi uint64) []span {
	var out []span
	for _, d := range l.done {
		if d.hi <= lo {
			continue
		}
		if d.lo >= hi {
			break
		}
		if d.lo > lo {
			out = append(out, span{lo, d.lo})
		}
		lo = d.hi
	}
	if lo < hi {
		out = append(out, span{lo, hi})
	}
	return out
}

// cover marks the unchecked run [lo, hi) checked.
func (l *ledger) cover(lo, hi uint64) {
	if lo >= hi {
		return
	}
	i := sort.Search(len(l.done), func(i int) bool { return l.done[i].hi >= lo })
	j := i
	for ; j < len(l.done) && l.done[j].lo <= hi; j++ {
		lo, hi = min(lo, l.done[j].lo), max(hi, l.done[j].hi)
	}
	l.done = slices.Replace(l.done, i, j, span{lo, hi})
}

// found returns the known equilibria at checked indices.
func (l *ledger) found() []hit {
	var out []hit
	for _, h := range l.known {
		if l.covers(h.at) {
			out = append(out, h)
		}
	}
	return out
}

// merge files batches of known equilibria into the ledger.
func (l *ledger) merge(batches ...[]hit) {
	for _, b := range batches {
		l.known = append(l.known, b...)
	}
	l.known = sortHits(l.known)
}

// within returns a copy of the known equilibria inside [lo, hi).
func (l *ledger) within(lo, hi uint64) []hit {
	a, _ := slices.BinarySearchFunc(l.known, lo, byIndex)
	b, _ := slices.BinarySearchFunc(l.known, hi, byIndex)
	return slices.Clone(l.known[a:b])
}

// checkpoint encodes the ledger; some index must still be unchecked.
func (l *ledger) checkpoint(od *odometer) *EnumCheckpoint {
	cp := &EnumCheckpoint{Cursor: make([]int, len(od.sets)), Checked: l.checked()}
	done := l.done
	var cur uint64
	if len(done) > 0 && done[0].lo == 0 {
		cur, done = done[0].hi, done[1:]
	}
	od.digits(cur, cp.Cursor)
	for _, d := range done {
		cp.Done = append(cp.Done, [2]uint64{d.lo, d.hi})
	}
	for _, h := range l.known {
		if l.covers(h.at) {
			cp.Equilibria = append(cp.Equilibria, h.p)
			continue
		}
		v := make([]int, len(od.sets))
		od.digits(h.at, v)
		cp.Pending = append(cp.Pending, v)
	}
	return cp
}

func byIndex(h hit, at uint64) int { return cmp.Compare(h.at, at) }

// sortHits orders equilibria by index and drops repeats of an index,
// keeping the first; one sort per batch rather than one shift per insert.
func sortHits(hs []hit) []hit {
	slices.SortStableFunc(hs, func(a, b hit) int { return cmp.Compare(a.at, b.at) })
	return slices.CompactFunc(hs, func(a, b hit) bool { return a.at == b.at })
}

// profileBudget is a race-safe profile allowance shared by the ranges of
// one scan.
type profileBudget struct{ remaining atomic.Int64 }

// newProfileBudget grants max profiles minus the already-spent credit,
// saturating: any max of 2^63 or more is more than a scan can spend.
func newProfileBudget(max, spent uint64) *profileBudget {
	b := &profileBudget{}
	if max > spent {
		b.remaining.Store(int64(min(max-spent, math.MaxInt64)))
	}
	return b
}

// take debits one profile; false means the budget is exhausted.
func (b *profileBudget) take() bool { return b.remaining.Add(-1) >= 0 }

// grant debits up to n profiles and returns how many it granted.
func (b *profileBudget) grant(n uint64) uint64 {
	for {
		r := b.remaining.Load()
		g := min(uint64(max(r, 0)), n)
		if g == 0 || b.remaining.CompareAndSwap(r, r-int64(g)) {
			return g
		}
	}
}

// exhausted reports whether the budget has no profiles left, without
// debiting anything: deciding whether to start another range must not
// consume allowance a running range could still use.
func (b *profileBudget) exhausted() bool { return b.remaining.Load() <= 0 }

// scan is one enumeration run, shared by its workers.
type scan struct {
	spec      Spec
	agg       Aggregation
	cfg       EnumConfig
	od        *odometer
	order     []int // stability-check order: larger strategy sets first
	budget    *profileBudget
	ckptEvery uint64 // profiles each worker checks between publishes

	mu     sync.Mutex // guards the fields below and every live task
	led    *ledger
	live   []*task
	nfound int // equilibria found: the ledger's plus the live tasks'
	capped atomic.Bool
	status runctl.Status // the merged stop status of finished tasks

	ckptMu    sync.Mutex // serializes OnCheckpoint calls
	delivered uint64     // Checked of the last snapshot delivered
}

// task is a range in flight. Its lists change only under scan.mu, so a
// checkpoint can read them while the owning worker scans.
type task struct {
	lo, hi  uint64
	pos     uint64 // published cursor: [lo, pos) is checked
	found   []hit  // equilibria found in the range, ascending
	pending []hit  // known equilibria not yet reached, ascending
	carried []hit  // orbit members at or past hi
}

func newScan(spec Spec, agg Aggregation, ss *SearchSpace, cfg EnumConfig) (*scan, error) {
	n := spec.N()
	if len(ss.PerNode) != n {
		return nil, fmt.Errorf("core: search space covers %d nodes, spec has %d", len(ss.PerNode), n)
	}
	for u, set := range ss.PerNode {
		if len(set) == 0 {
			return nil, fmt.Errorf("core: node %d has an empty strategy set", u)
		}
	}
	if cfg.Quotient != nil {
		if err := cfg.Quotient.checkSpace(ss); err != nil {
			return nil, err
		}
	}
	s := &scan{spec: spec, agg: agg, cfg: cfg, od: newOdometer(ss), led: &ledger{}, ckptEvery: math.MaxUint64}
	if cfg.Resume != nil {
		led, err := cfg.Resume.validate(spec, ss)
		if err != nil {
			return nil, err
		}
		s.led = led
	}
	s.nfound = len(s.led.found())
	s.capReached()
	// Check nodes with larger strategy sets first: they are the ones whose
	// current strategy is least likely to be a best response, so the
	// early-exit in profileStable fires sooner. (Pure reordering — the
	// stability verdict is order-independent.)
	s.order = make([]int, n)
	for i := range s.order {
		s.order[i] = i
	}
	sort.SliceStable(s.order, func(a, b int) bool {
		return len(ss.PerNode[s.order[a]]) > len(ss.PerNode[s.order[b]])
	})
	s.budget = cfg.budget
	if s.budget == nil && cfg.MaxProfiles > 0 {
		s.budget = newProfileBudget(cfg.MaxProfiles, s.led.checked())
	}
	if cfg.OnCheckpoint != nil {
		s.ckptEvery = cfg.checkpointEvery()
	}
	return s, nil
}

// capReached reports (and latches) whether MaxEquilibria is reached.
// Callers hold mu or own the scan exclusively; more reads the latch
// without mu.
func (s *scan) capReached() bool {
	if s.cfg.MaxEquilibria > 0 && s.nfound >= s.cfg.MaxEquilibria {
		s.capped.Store(true)
	}
	return s.capped.Load()
}

// more reports whether the scan should start another range.
func (s *scan) more(ctx context.Context) bool {
	return (ctx == nil || ctx.Err() == nil) && (s.budget == nil || !s.budget.exhausted()) && !s.capped.Load()
}

// runSerial drains the unchecked ranges in order on the calling goroutine.
func (s *scan) runSerial() {
	w := s.newWorker(s.cfg.Ctx)
	for _, g := range s.led.gaps(0, s.od.size()) {
		if !s.more(s.cfg.Ctx) {
			return
		}
		w.scanRange(g.lo, g.hi)
	}
}

// runParallel drains the planned ranges with a bounded pool. Each range
// runs under a panic guard, so a fault surfaces as an error naming it and
// stops the other workers promptly; faults in several ranges are joined.
func (s *scan) runParallel(workers int) error {
	ctx := s.cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ictx, icancel := context.WithCancel(ctx)
	defer icancel()
	type part struct {
		span
		i int
	}
	var parts []part
	for i, r := range planRanges(s.od.size()) {
		for _, g := range s.led.gaps(r.lo, r.hi) {
			parts = append(parts, part{g, i})
		}
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, len(parts))
	errs := make([]error, len(parts))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		track := k + 1
		go func() {
			defer wg.Done()
			reg, tr := obs.Global(), obs.Trace()
			// One worker per goroutine: its evaluation scratch stays warm
			// across every range it drains.
			w := s.newWorker(ictx)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(parts) || !s.more(ictx) {
					return
				}
				pt := parts[i]
				reg.Inc(obs.MWorkerTasks)
				// Busy time covers range work only, not the claim.
				t0 := reg.Started()
				sp := tr.StartSpan("enum.partition").OnTrack(track)
				errs[i] = runctl.Guard(fmt.Sprintf("enumeration partition %d (profiles [%d, %d))", pt.i, pt.lo, pt.hi), func() error {
					inner := tr.StartSpan("enum.scan")
					inner.EndInt("checked", int64(w.scanRange(pt.lo, pt.hi)))
					return nil
				})
				sp.EndInt("part", int64(pt.i))
				reg.ElapsedSince(obs.MWorkerBusyNanos, t0)
				if errs[i] != nil {
					icancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// result assembles the scan's outcome from the ledger.
func (s *scan) result() *NEResult {
	res := &NEResult{Checked: s.led.checked(), Status: s.status}
	for _, h := range s.led.found() {
		if s.cfg.MaxEquilibria > 0 && len(res.Equilibria) >= s.cfg.MaxEquilibria {
			break
		}
		res.Equilibria = append(res.Equilibria, h.p)
	}
	if res.Checked < s.od.size() {
		if res.Status.Complete() {
			// No range stopped early, so the scan stopped starting them: a
			// done context, else a spent budget or the equilibrium cap.
			res.Status = runctl.Merge(runctl.StatusFromContext(s.cfg.Ctx), runctl.StatusBudget)
		}
		res.Resume = s.led.checkpoint(s.od)
	}
	if s.capped.Load() {
		res.Status = runctl.Merge(res.Status, runctl.StatusBudget)
	}
	res.Complete = res.Status.Complete()
	return res
}

// record files an equilibrium a task reached at h.at — an evaluated
// representative with its orbit members, or a pending emission (popped) —
// and reports whether the scan must stop at the equilibrium cap.
func (s *scan) record(t *task, h hit, orbit []uint64, popped bool) bool {
	obs.Global().Inc(obs.MEquilibriaFound)
	s.mu.Lock()
	defer s.mu.Unlock()
	if popped {
		t.pending = t.pending[1:]
	}
	t.found = append(t.found, h)
	for _, at := range orbit {
		if m := (hit{at, s.od.profile(at)}); at >= t.hi {
			t.carried = append(t.carried, m)
		} else if i, dup := slices.BinarySearchFunc(t.pending, at, byIndex); !dup {
			t.pending = slices.Insert(t.pending, i, m)
		}
	}
	s.nfound++
	return s.capReached()
}

// publish records a task's cursor and hands OnCheckpoint a snapshot of
// the whole scan. The callback runs outside mu, one call at a time, and a
// snapshot older than one already delivered is dropped.
func (s *scan) publish(t *task, pos uint64) {
	s.mu.Lock()
	t.pos = pos
	cp := s.snapshot()
	s.mu.Unlock()
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if cp.Checked >= s.delivered {
		s.delivered = cp.Checked
		s.cfg.OnCheckpoint(cp)
	}
}

// snapshot is the checkpoint of the ledger plus every live task's
// published progress. Equilibria known at indices it does not count as
// checked — a task's finds past its published cursor, its pending and
// carried orbit members — stay pending, so a resume emits them.
func (s *scan) snapshot() *EnumCheckpoint {
	l := &ledger{done: slices.Clone(s.led.done), known: slices.Clone(s.led.known)}
	for _, t := range s.live {
		l.cover(t.lo, t.pos)
		l.merge(t.found, t.pending, t.carried)
	}
	return l.checkpoint(s.od)
}

// finish settles a task that stopped at pos into the ledger.
func (s *scan) finish(t *task, pos uint64, st runctl.Status) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live = slices.DeleteFunc(s.live, func(l *task) bool { return l == t })
	before := len(s.led.found())
	s.led.cover(t.lo, pos)
	s.led.merge(t.found, t.pending, t.carried)
	// Besides the task's own finds, the merge settles orbit images another
	// range's representative decided, once their index is checked: count
	// them as found now.
	settled := len(s.led.found()) - before - len(t.found)
	reg := obs.Global()
	reg.Add(obs.MEquilibriaFound, int64(settled))
	reg.Add(obs.MQuotientOrbits, int64(settled))
	s.nfound += settled
	s.capReached()
	s.status = runctl.Merge(s.status, st)
}

// worker is one goroutine's scan state: the odometer cursor, the
// incrementally realized graph and the evaluation scratch it keeps warm
// across the ranges it drains.
type worker struct {
	s     *scan
	es    *EvalScratch
	poll  *runctl.Poller
	idx   []int
	tmp   []int
	p     Profile
	g     *graph.Digraph
	dirty []int
	// lastChanged is the node rewired by the last applyRewires when
	// exactly one digit changed since the previous evaluation (-1 at a
	// range start or after a multi-digit carry): the one node whose
	// cached oracle survived the rewire.
	lastChanged int
	unpub       uint64 // profiles checked since the last publish
}

func (s *scan) newWorker(ctx context.Context) *worker {
	n := s.spec.N()
	w := &worker{
		s: s, es: NewEvalScratch(), poll: runctl.NewPoller(ctx, s.cfg.CheckEvery),
		idx: make([]int, n), tmp: make([]int, n), p: make(Profile, n), dirty: make([]int, 0, n),
	}
	if s.cfg.DisableBatchBFS {
		w.es.SetBatchBFS(false)
	}
	return w
}

// seek positions the worker at index at on a freshly realized graph; the
// new graph pointer makes Bind drop every cached oracle while the scratch
// keeps its buffers warm.
func (w *worker) seek(at uint64) {
	s := w.s
	s.od.digits(at, w.idx)
	for u, i := range w.idx {
		w.p[u] = s.od.sets[u][i]
	}
	w.g = w.p.Realize(s.spec)
	w.es.Bind(s.spec, w.g, s.agg)
	w.dirty = w.dirty[:0]
	w.lastChanged = -1
}

func (w *worker) markDirty(u int) {
	if !slices.Contains(w.dirty, u) {
		w.dirty = append(w.dirty, u)
	}
}

// advance steps the odometer to the next state, recording which digits
// changed without touching the graph. Rewires are deferred into the dirty
// list and applied only when a state is actually evaluated
// (applyRewires), so runs of skipped states — non-canonical orbit members
// under a quotient, or pending emissions — cost pure odometer arithmetic.
// Carrying through a singleton digit wraps it back to its only value, a
// no-op that is never marked dirty.
func (w *worker) advance() {
	sets := w.s.od.sets
	for u := len(w.idx) - 1; u >= 0; u-- {
		w.idx[u]++
		if w.idx[u] < len(sets[u]) {
			w.markDirty(u)
			return
		}
		w.idx[u] = 0
		if len(sets[u]) > 1 {
			w.markDirty(u)
		}
	}
}

// jump moves the odometer to index at, marking the digits that changed.
func (w *worker) jump(at uint64) {
	w.s.od.digits(at, w.tmp)
	for u, d := range w.tmp {
		if d != w.idx[u] {
			w.idx[u] = d
			w.markDirty(u)
		}
	}
}

func (w *worker) applyRewires() {
	if len(w.dirty) == 1 {
		w.lastChanged = w.dirty[0]
	} else if len(w.dirty) > 1 {
		w.lastChanged = -1
	}
	s := w.s
	for _, u := range w.dirty {
		w.p[u] = s.od.sets[u][w.idx[u]]
		setStrategyArcs(s.spec, w.g, u, w.p[u])
		w.es.NoteRewire(u)
	}
	w.dirty = w.dirty[:0]
}

// scanRange checks the unchecked range [lo, hi), settles it into the
// ledger, and returns how many profiles it checked.
func (w *worker) scanRange(lo, hi uint64) uint64 {
	s := w.s
	t := &task{lo: lo, hi: hi, pos: lo}
	s.mu.Lock()
	t.pending = s.led.within(lo, hi)
	s.live = append(s.live, t)
	s.mu.Unlock()
	w.seek(lo)
	reg, q := obs.Global(), s.cfg.Quotient
	pos, status := lo, runctl.StatusComplete
	for pos < hi {
		if err := w.poll.Check(); err != nil {
			status = runctl.StatusFromError(err)
			break
		}
		if s.budget != nil && !s.budget.take() {
			status = runctl.StatusBudget
			break
		}
		if w.unpub >= s.ckptEvery {
			s.publish(t, pos)
			w.unpub = 0
		}
		w.unpub++
		reg.Inc(obs.MProfilesChecked)
		stop, canonical, level := false, true, 0
		if q != nil {
			canonical, level = q.refuteLevel(w.idx)
		}
		if len(t.pending) > 0 && t.pending[0].at == pos {
			// A known equilibrium: the orbit image of an earlier canonical
			// representative, emitted without evaluating.
			reg.Inc(obs.MQuotientOrbits)
			stop = s.record(t, t.pending[0], nil, true)
		} else if !canonical {
			// A smaller orbit member decides this state: if that
			// representative is stable this state is emitted from pending
			// or merged from its carried orbit; either way it is credited
			// as checked without an evaluation. Every state sharing digits
			// 0..level is refuted by the same group element, so the rest of
			// that suffix block is credited at once, up to the range end,
			// the next pending emission and the profile budget.
			reg.Inc(obs.MQuotientSkipped)
			block := s.od.suff[level+1]
			to := min((pos/block+1)*block, hi)
			if len(t.pending) > 0 {
				to = min(to, t.pending[0].at)
			}
			if s.budget != nil && to > pos+1 {
				to = pos + 1 + s.budget.grant(to-pos-1)
			}
			if extra := to - pos - 1; extra > 0 {
				w.unpub += extra
				reg.Add(obs.MProfilesChecked, int64(extra))
				reg.Add(obs.MQuotientSkipped, int64(extra))
				if pos = to; pos < hi {
					w.jump(pos)
				}
				continue
			}
		} else {
			w.applyRewires()
			var stable bool
			if reg != nil && pos&evalSampleMask == 0 {
				t0 := time.Now()
				stable = profileStable(w.es, w.p, s.order, w.lastChanged)
				reg.Observe(obs.HProfileEval, time.Since(t0).Nanoseconds())
			} else {
				stable = profileStable(w.es, w.p, s.order, w.lastChanged)
			}
			if stable {
				var orbit []uint64
				if q != nil {
					orbit = q.orbit(w.idx, s.od.suff)
				}
				stop = s.record(t, hit{pos, w.p.Clone()}, orbit, false)
			}
		}
		pos++
		if stop {
			// The cap stop leaves the cursor past the emitting state, so a
			// resume does not emit it again.
			status = runctl.StatusBudget
			break
		}
		w.advance()
	}
	s.finish(t, pos, status)
	return pos - lo
}
