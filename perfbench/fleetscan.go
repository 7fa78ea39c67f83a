package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bbc/internal/core"
	"bbc/internal/fleet"
	"bbc/internal/obs"
	"bbc/internal/serve"
)

// fleetReference is the committed single-box verdict fleet-scan merges
// must reproduce.
const fleetReference = "cmd/bbcfleet/testdata/gadget_pinned_scan.json"

const fleetWorkers = 2

// shardPost is one accepted shard submission: the worker it went to, the
// request body and the job the worker created for it.
type shardPost struct {
	host  string
	body  []byte
	jobID string
}

// timedTransport times every fleet HTTP round trip (to response headers),
// counts refusals (429/503), keeps the accepted shard submissions and, in
// traced runs, records each round trip as a span under the running
// fleet.Run.
type timedTransport struct {
	b        *bench
	base     http.RoundTripper
	at       *spanParent
	mu       sync.Mutex
	ns       []float64
	submitNS []float64 // the POST /v1/jobs shard submissions alone
	refusals int
	posts    []shardPost // accepted submissions of the current fleet run
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	submit := req.Method == http.MethodPost && req.URL.Path == "/v1/jobs"
	var body []byte
	if submit && req.GetBody != nil {
		if rc, err := req.GetBody(); err == nil {
			body, _ = io.ReadAll(rc)
			rc.Close()
		}
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	t1 := time.Now()
	var post *shardPost
	if err == nil && submit && resp.StatusCode == http.StatusAccepted {
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(data))
		var sr struct{ Job *serve.View }
		if rerr == nil && json.Unmarshal(data, &sr) == nil && sr.Job != nil {
			post = &shardPost{host: req.URL.Host, body: body, jobID: sr.Job.ID}
		}
	}
	t.mu.Lock()
	t.ns = append(t.ns, float64(t1.Sub(t0).Nanoseconds()))
	if submit {
		t.submitNS = append(t.submitNS, float64(t1.Sub(t0).Nanoseconds()))
	}
	if err == nil && (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) {
		t.refusals++
	}
	if post != nil {
		t.posts = append(t.posts, *post)
	}
	t.mu.Unlock()
	if op, parent := t.at.get(); parent >= 0 {
		t.b.tr.record(req.Method+" "+req.URL.Path, "serve", op, parent, t0, t1)
	}
	return resp, err
}

// takePosts returns and clears the accepted submissions recorded so far.
func (t *timedTransport) takePosts() []shardPost {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.posts
	t.posts = nil
	return p
}

// startWorkers starts in-process bbcserved workers with one solver each,
// a data dir for checkpoints and a durable job store.
func startWorkers(b *bench, dir string, at *spanParent) ([]*serveRig, []string, error) {
	var rigs []*serveRig
	var urls []string
	for w := 0; w < fleetWorkers; w++ {
		r, err := startWorker(b, filepath.Join(dir, fmt.Sprintf("w%d", w)), at)
		if err != nil {
			stopWorkers(rigs)
			return nil, nil, err
		}
		rigs = append(rigs, r)
		urls = append(urls, r.base)
	}
	return rigs, urls, nil
}

func stopWorkers(rigs []*serveRig) error {
	var first error
	for _, r := range rigs {
		if err := r.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// shardRoundTrips reads the coordinator journal: for each shard, the time
// from its last lease to its shard_done record.
func shardRoundTrips(journal []byte) ([]float64, error) {
	lease := map[float64]float64{}
	var out []float64
	for _, line := range bytes.Split(bytes.TrimSpace(journal), []byte("\n")) {
		var rec obs.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("coordinator journal: %w", err)
		}
		shard, _ := rec.Data["shard"].(float64)
		switch rec.Type {
		case "lease":
			lease[shard] = rec.ElapsedMS
		case "shard_done":
			out = append(out, rec.ElapsedMS-lease[shard])
		}
	}
	return out, nil
}

// runFleetScan is the fleet-scan workload: fleet.Run over two in-process
// bbcserved workers (one solver each, data-dir checkpoints, a durable job
// store whose appends are timed) scanning the pinned gadget with the
// default shard plan and no quotient. primary_ms is fleet.Run to a merged,
// complete result; secondary_ms the median shard round trip, from a
// shard's last lease to its shard_done record in the coordinator journal;
// both scaled to the nominal host speed as calib.go describes.
// Each scan gets fresh workers, whose start is not timed, so no shard is
// answered from an earlier scan's dedup cache. Every merge must equal the
// committed single-box verdict, and after each scan one of its shard
// requests, resubmitted to the worker that solved it, must come back
// deduped with the finished job's result.
func runFleetScan(b *bench) error {
	want, err := os.ReadFile(fleetReference)
	if err != nil {
		return fmt.Errorf("fleet reference: %w", err)
	}
	want = bytes.TrimSpace(want)

	at := &spanParent{parent: -1}
	var (
		g    *gadgetSetup
		rigs []*serveRig
		urls []string
		gen  int
	)
	newWorkers := func() error {
		gen++
		var err error
		rigs, urls, err = startWorkers(b, filepath.Join(b.dir, fmt.Sprintf("fleet%d", gen)), at)
		return err
	}
	if err := b.timeSetup(true, func() (func(), error) {
		var err error
		if g, err = newGadget(false); err != nil {
			return nil, err
		}
		if err := newWorkers(); err != nil {
			return nil, err
		}
		live := rigs
		return func() { stopWorkers(live) }, nil
	}); err != nil {
		return err
	}

	tt := &timedTransport{b: b, base: http.DefaultTransport.(*http.Transport).Clone(), at: at}
	hc := &http.Client{Transport: tt}
	defer hc.CloseIdleConnections()

	// scan runs one fleet scan on the current workers, checks its merge and
	// resubmits one of its shards, then replaces the workers with fresh
	// ones. Spans go to tr; the coordinator journal is written through
	// wrap when it is non-nil.
	var (
		appendNS, solveMS []float64
		resubmits         int
	)
	scan := func(tr *tracer, wrap func(io.Writer) io.Writer) (time.Duration, []float64, error) {
		op := b.ops.attempted
		var journal bytes.Buffer
		var jw io.Writer = &journal
		if wrap != nil {
			jw = wrap(jw)
		}
		root := tr.start("fleet-scan", "bench", op, -1)
		sp := tr.start("fleet.Run", "fleet", op, root)
		at.set(op, sp)
		f0 := time.Now()
		res, err := fleet.Run(context.Background(), fleet.Config{
			Spec: g.spec, Pin: true, Workers: urls, HTTP: hc, Journal: obs.NewJournal(jw, b.reg),
		})
		wall := time.Since(f0)
		tr.end(sp)
		tr.end(root)
		at.set(op, -1)
		if err != nil {
			b.ops.fail()
			return 0, nil, fmt.Errorf("fleet run: %w", err)
		}
		b.ops.ok()
		got, _ := json.Marshal(struct {
			Checked    uint64         `json:"checked"`
			Equilibria []core.Profile `json:"equilibria"`
		}{res.NE.Checked, res.NE.Equilibria})
		b.check(res.NE.Complete && bytes.Equal(got, want), "fleet scan merged %s (complete=%v), want %s", got, res.NE.Complete, want)
		rt, err := shardRoundTrips(journal.Bytes())
		if err != nil {
			return 0, nil, err
		}

		for _, r := range rigs {
			for _, v := range r.srv.List() {
				// Finished jobs are served from the store, whose views carry
				// absolute timestamps only.
				if v.State == serve.StateDone && v.FinishedUnixMS > 0 {
					solveMS = append(solveMS, float64(v.FinishedUnixMS-v.StartedUnixMS))
				}
			}
			appendNS = append(appendNS, r.ts.appendNS()...)
		}
		if posts := tt.takePosts(); len(posts) > 0 {
			resubmitShard(b, rigs, posts[b.rng.Intn(len(posts))])
			resubmits++
		} else {
			b.check(false, "fleet scan recorded no accepted shard submission")
		}

		// Fresh workers for the next fleet scan, started outside the timing.
		if err := stopWorkers(rigs); err != nil {
			b.check(false, "stop fleet workers: %v", err)
		}
		return wall, rt, newWorkers()
	}

	var (
		runs, tracedRuns []interval // fleet.Run wall times as measured
		runTrips         [][]float64
		imbalance        []float64
		fleetOps         int
		d                = map[string]int64{}
	)
	before := b.reg.Snapshot()
	t0 := time.Now()
	for i := 0; i < 2 || b.until(t0); i++ {
		// Traced runs span every other fleet scan, for the overhead ratio.
		tr := b.tr
		if i%2 == 1 {
			tr = nil
		}
		snap := b.reg.Snapshot()
		s0 := time.Now()
		wall, rt, err := scan(tr, nil)
		if err != nil {
			return err
		}
		// The interval ends when fleet.Run does; scan goes on to replace
		// the workers, untimed. A fleet scan lasts seconds, so three
		// reference samples follow it, for enough within the window.
		iv := interval{s0, s0.Add(wall), ms(wall)}
		for k := 0; k < 3; k++ {
			b.clock.sample()
		}
		for k, n := range obs.Diff(snap, b.reg.Snapshot()) {
			d[k] += n
		}
		fleetOps++
		imbalance = append(imbalance, ratio(maxOf(rt), mean(rt)))
		if tr != nil {
			tracedRuns = append(tracedRuns, iv)
			continue
		}
		runs = append(runs, iv)
		runTrips = append(runTrips, rt)
	}
	fleetMS, tracedMS := b.clock.scaled(runs), b.clock.scaled(tracedRuns)
	var rawMS, trips []float64
	for i, iv := range runs {
		rawMS = append(rawMS, iv.ms)
		f := b.clock.factor(iv.t0, iv.t1)
		for _, t := range runTrips[i] {
			trips = append(trips, t*f)
		}
	}
	window := obs.Diff(before, b.reg.Snapshot())
	// One more, untimed scan samples the live heap at every coordinator
	// journal record, while both workers hold their shards' state.
	if _, _, err := scan(nil, func(w io.Writer) io.Writer { return heapProbeWriter{b, w} }); err != nil {
		return err
	}
	if err := stopWorkers(rigs); err != nil {
		b.check(false, "stop fleet workers: %v", err)
	}

	b.e2e[mPrimary] = median(fleetMS)
	b.e2e[mSecondary] = median(trips)
	say("e2e fleet_scan_s=%.4f (median of %d) shard_round_trip_ms=%.1f (median of %d shards) verdict %s",
		median(fleetMS)/1e3, len(fleetMS), median(trips), len(trips), want)
	say("fleet scan ms (scaled): %s", summary(fleetMS))
	say("fleet scan ms (raw wall): %s", summary(rawMS))
	say("resubmitted %d shards, each deduped with its job's result", resubmits)
	if !b.traced {
		return nil
	}
	b.layers["trace_overhead_ratio"] = ratio(median(tracedMS), median(fleetMS)) - 1
	scanCounters(b, d, fleetOps)
	b.layers["fleet.shard_round_trip_ms_p50"] = median(trips)
	b.layers["fleet.shard_round_trip_ms_max"] = maxOf(trips)
	b.layers["fleet.shard_imbalance"] = median(imbalance)
	tt.mu.Lock()
	calls, submits, refusals := tt.ns, tt.submitNS, tt.refusals
	tt.mu.Unlock()
	queueWait := b.reg.HistogramFor(obs.HServeQueueWait)
	perOp := func(name string) float64 { return float64(d[name]) / float64(fleetOps) }
	b.layers["fleet.http_calls"] = float64(len(calls)) / float64(fleetOps)
	b.layers["fleet.http_call_ns_p50"] = median(calls)
	b.layers["fleet.http_call_ns_p99"] = percentile(calls, 0.99)
	b.layers["fleet.leases"] = perOp("fleet.leases")
	b.layers["fleet.releases"] = perOp("fleet.releases")
	b.layers["fleet.retries"] = perOp("fleet.retries")
	b.layers["serve.queue_wait_ns_p50"] = queueWait.Quantile(0.5)
	b.layers["serve.queue_wait_ns_p99"] = queueWait.Quantile(0.99)
	b.layers["serve.submit_ns_p50"] = median(submits)
	b.layers["serve.submit_ns_p99"] = percentile(submits, 0.99)
	b.layers["serve.solve_ms_p50"] = median(solveMS)
	b.layers["serve.solve_ms_p99"] = percentile(solveMS, 0.99)
	b.layers["serve.dedup_ratio"] = ratio(float64(window["serve.jobs_deduped"]), float64(window["serve.jobs_submitted"]))
	b.layers["serve.refusals"] = float64(refusals)
	b.layers["store.wal_appends"] = perOp("store.wal_appends")
	b.layers["store.compactions"] = perOp("store.compactions")
	b.layers["store.append_ns_p50"] = median(appendNS)
	b.layers["store.append_ns_p99"] = percentile(appendNS, 0.99)
	var k kernelSamples
	k.sample(g.spec, core.SumDistances, sampleOdometer(b, g.ss, kernelProfiles))
	k.report(b)
	return nil
}

// resubmitShard submits an accepted shard request again to the worker that
// took it, as a retrying fleet client would, and checks the worker answers
// with the finished job itself: deduped, same id, complete, and the
// result the job holds.
func resubmitShard(b *bench, rigs []*serveRig, p shardPost) {
	var rig *serveRig
	for _, r := range rigs {
		if r.base == "http://"+p.host {
			rig = r
		}
	}
	var req serve.Request
	if rig == nil || json.Unmarshal(p.body, &req) != nil {
		b.check(false, "shard submission to %s (%d-byte body) cannot be resubmitted", p.host, len(p.body))
		return
	}
	orig, ok := rig.srv.Get(p.jobID)
	view, outcome, err := rig.srv.Submit(&req)
	b.check(err == nil && ok && outcome == serve.Deduped && view.ID == p.jobID &&
		view.State == serve.StateDone && view.Complete && len(view.Result) > 0 && bytes.Equal(view.Result, orig.Result),
		"resubmitted shard job %s: outcome %v err %v, want deduped onto the finished job with its result", p.jobID, outcome, err)
}
