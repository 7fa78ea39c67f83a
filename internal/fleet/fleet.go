// Package fleet is the distributed-scan tier of the BBC stack: a
// coordinator that splits an exhaustive pure-NE enumeration across N
// bbcserved workers and merges the shard results into output
// byte-identical to a single-box scan.
//
// The odometer space is split along the pivot axis — the strategy set
// of the first node with more than one strategy, the same axis the
// in-process parallel enumerator fans out over — into contiguous shard
// ranges. Each shard becomes a lease in a lease table: granted to a
// worker with a TTL deadline, extended by heartbeats (every successful
// job poll), and returned to pending when the worker fails or the
// deadline expires, so a SIGKILLed worker only costs the fleet one
// lease TTL. Shards are dispatched over the existing HTTP/JSON job API
// through a retrying client (jittered exponential backoff, Retry-After
// honored on 429/503), and the worker-side solve fingerprint dedup
// makes redelivery safe: resubmitting a shard resumes the worker's
// partition checkpoint instead of recomputing.
//
// The merge is idempotent and deterministic: results are keyed by shard
// index (each carries its shard-qualified scan fingerprint), a
// duplicate completion from a re-lease race is verified and dropped —
// counted in fleet.duplicate_results, never applied twice — and
// concatenating shard results in range order reproduces the serial
// odometer order exactly. Whatever subset of workers died or repeated
// themselves along the way, a complete fleet run's NEResult is
// byte-identical to the single-box reference; chaos tests pin this.
//
// The coordinator checkpoints its lease table through runctl.Store, so
// a coordinator crash resumes with every merged shard intact (leases
// held at the crash collapse back to pending — a lease is void once its
// grantor is gone).
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"bbc/internal/core"
	"bbc/internal/faultfs"
	"bbc/internal/obs"
	"bbc/internal/runctl"
	"bbc/internal/serve"
)

// leaseCheckpointKind is the runctl checkpoint kind of the lease table.
const leaseCheckpointKind = "fleet-leases"

// Config parameterizes a fleet run. Spec and Workers are required;
// every other zero value is a sane default.
type Config struct {
	// Spec is the game to scan.
	Spec core.Spec
	// Agg is the cost aggregation: "sum" (default) or "max".
	Agg string
	// Pin scans the soundly pinned search space (unit-length games).
	Pin bool
	// Workers are the bbcserved base URLs (e.g. http://127.0.0.1:8371).
	Workers []string
	// Shards is how many leases the odometer space is split into
	// (0 = 4 per worker, clamped to the pivot partition count). More
	// shards than workers keeps the fleet busy when shards are uneven.
	Shards int
	// LeaseTTL is how long a granted lease lives without a heartbeat
	// before it is re-leased (0 = 30s). Every successful job poll
	// extends the holder's deadline by one TTL.
	LeaseTTL time.Duration
	// PollEvery is the job status poll period (0 = 100ms); each
	// successful poll doubles as the lease heartbeat.
	PollEvery time.Duration
	// SolveWorkers is the per-shard solver parallelism requested from
	// each worker (0 = 1, serial with fine-grained checkpoints).
	SolveWorkers int
	// LimitPerNode bounds per-node strategy enumeration during shard
	// planning (0 = 4096). It must match the workers' limit — both
	// default together — or the shard ranges would not line up.
	LimitPerNode int
	// MaxAttempts bounds lease grants per shard before the run fails
	// (0 = 8): a shard no worker can finish must surface, not spin.
	MaxAttempts int
	// CheckpointPath, when non-empty, persists the lease table through
	// runctl.Store so an interrupted coordinator can resume.
	CheckpointPath string
	// Resume loads an existing lease-table checkpoint from
	// CheckpointPath; merged shards are kept, leases collapse to pending.
	Resume bool
	// FS is the filesystem the lease store writes through (nil = OS;
	// chaos tests inject faults here).
	FS faultfs.FS
	// HTTP is the fleet client's HTTP client (nil = a plain client;
	// chaos tests install a fault-injecting transport).
	HTTP *http.Client
	// Backoff is the client retry-delay policy. The zero value is the
	// runctl default (50ms doubling, capped at 5s); set Jitter for
	// fleets large enough to thunder-herd a recovering worker.
	Backoff runctl.Backoff
	// ClientAttempts is the per-request attempt bound (0 = 5).
	ClientAttempts int
	// APIKey identifies this fleet to the workers' admission control
	// (sent as X-API-Key; "" = the anonymous bucket).
	APIKey string
	// Tail, when set, SSE-tails each running shard job and forwards its
	// progress records into the coordinator journal.
	Tail bool
	// Reg receives the fleet.* metrics (nil = obs.Global()).
	Reg *obs.Registry
	// Journal, when non-nil, receives lease/release/shard_done/merge
	// records.
	Journal *obs.Journal
}

func (c Config) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return 30 * time.Second
}

func (c Config) pollEvery() time.Duration {
	if c.PollEvery > 0 {
		return c.PollEvery
	}
	return 100 * time.Millisecond
}

func (c Config) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 8
}

func (c Config) limitPerNode() int {
	if c.LimitPerNode > 0 {
		return c.LimitPerNode
	}
	return 4096 // keep in lockstep with serve.Config.limitPerNode
}

// Result is a fleet run's outcome. NE is the merged scan result; a
// complete run's NE marshals byte-identical to the single-box scan.
type Result struct {
	// NE is the merged enumeration result (partial when interrupted:
	// only merged shards contribute, Complete is false).
	NE *core.NEResult
	// Space names the search space scanned: full or pinned.
	Space string
	// SpaceSize is the full product-space size.
	SpaceSize uint64
	// Pivot is the node whose strategy set the space was split along
	// (-1 for a single-profile space).
	Pivot int
	// Shards is how many leases the space was split into.
	Shards int
	// ShardsDone is how many were merged before the run ended.
	ShardsDone int
}

// Run executes one fleet scan: plan shards, lease them to workers,
// re-lease failures and expiries, merge. It returns when every shard is
// merged (NE.Complete), when ctx ends the run early (partial NE, status
// cancelled/deadline), or on a fatal error (a shard exhausted its
// attempts, or unusable configuration).
func Run(ctx context.Context, cfg Config) (*Result, error) {
	s, err := Plan(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(ctx)
}

// Plan validates cfg and fixes the scan's shard split — reloading the
// persisted lease table when cfg.Resume is set — without dispatching
// any shard; Scan.Run does that.
func Plan(cfg Config) (*Scan, error) {
	if cfg.Spec == nil {
		return nil, errors.New("fleet: a Spec is required")
	}
	if len(cfg.Workers) == 0 {
		return nil, errors.New("fleet: at least one worker URL is required")
	}
	switch cfg.Agg {
	case "", "sum", "max":
	default:
		return nil, fmt.Errorf("fleet: unknown agg %q (want sum or max)", cfg.Agg)
	}
	reg := cfg.Reg
	if reg == nil {
		reg = obs.Global()
	}

	game, err := core.MarshalSpec(cfg.Spec)
	if err != nil {
		return nil, fmt.Errorf("fleet: marshal spec: %w", err)
	}
	agg := core.SumDistances
	if cfg.Agg == "max" {
		agg = core.MaxDistance
	}
	var (
		ss        *core.SearchSpace
		spaceName = "full"
	)
	if cfg.Pin {
		spaceName = "pinned"
		ss, err = core.PinnedSpace(cfg.Spec, cfg.limitPerNode())
	} else {
		ss, err = core.FullSpace(cfg.Spec, cfg.limitPerNode())
	}
	if err != nil {
		return nil, err
	}
	plan := planShards(ss, len(cfg.Workers), cfg.Shards)
	// The lease-table fingerprint qualifies the scan fingerprint with
	// the shard count: a checkpoint from a different split must not
	// resume, its shard indices would mean different ranges.
	fp := fmt.Sprintf("%s+fleet[%d]", core.EnumFingerprint(cfg.Spec, agg, ss), len(plan))

	c := &Scan{
		cfg:       cfg,
		reg:       reg,
		game:      game,
		table:     newTable(plan, cfg.leaseTTL(), cfg.maxAttempts(), reg, cfg.Journal),
		fp:        fp,
		spaceName: spaceName,
		ss:        ss,
	}
	if cfg.CheckpointPath != "" {
		c.store = &runctl.Store{Path: cfg.CheckpointPath, FS: cfg.FS, Retries: 2}
	}
	if cfg.Resume && c.store != nil {
		if err := c.resume(fp); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Scan is one planned fleet run: Plan fixes its shards, Run leases and
// merges them.
type Scan struct {
	cfg       Config
	reg       *obs.Registry
	game      json.RawMessage
	table     *table
	store     *runctl.Store
	fp        string
	spaceName string
	ss        *core.SearchSpace
}

// Shards is how many shard leases the scan is split into.
func (c *Scan) Shards() int { return len(c.table.shards) }

// resume loads the lease-table checkpoint and replays merged shards.
func (c *Scan) resume(fp string) error {
	env, rec, err := c.store.TryLoad()
	if err != nil {
		return fmt.Errorf("fleet: resume: %w", err)
	}
	if env == nil {
		return nil // nothing persisted yet: a fresh run
	}
	var snap leaseTableSnapshot
	if err := env.Decode(leaseCheckpointKind, fp, &snap); err != nil {
		return fmt.Errorf("fleet: resume: %w", err)
	}
	restored, err := c.table.restore(&snap)
	if err != nil {
		return fmt.Errorf("fleet: resume: %w", err)
	}
	c.cfg.Journal.Event("resume", map[string]any{
		"path": rec.Path, "fallback": rec.Fallback, "shards_done": restored,
	})
	return nil
}

// checkpoint persists the lease table (best-effort: a failed save is
// journaled, the scan itself continues — durability degrades, progress
// does not stop).
func (c *Scan) checkpoint(status runctl.Status) {
	if c.store == nil {
		return
	}
	snap := c.table.snapshot()
	env, err := runctl.NewCheckpoint(leaseCheckpointKind, c.fp, status, c.reg.Snapshot(), snap)
	if err == nil {
		err = c.store.Save(env)
	}
	if err != nil {
		c.cfg.Journal.Event("checkpoint_error", map[string]any{"path": c.store.Path, "error": err.Error()})
		return
	}
	c.cfg.Journal.Checkpoint(c.store.Path, leaseCheckpointKind, map[string]any{
		"shards_done": c.table.doneCount(),
	})
}

// Run drives the agents and the lease clock until the scan completes,
// the context ends it, or a shard exhausts its attempts.
func (c *Scan) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	agents := make(chan struct{})
	live := 0
	for _, base := range c.cfg.Workers {
		live++
		go func(base string) {
			defer func() { agents <- struct{}{} }()
			c.agentLoop(runCtx, base)
		}(base)
	}

	// The clock tick drives lease expiry and periodic checkpoints; it is
	// a fraction of the TTL so an expiry is noticed promptly.
	tickEvery := c.cfg.leaseTTL() / 4
	if tickEvery < 10*time.Millisecond {
		tickEvery = 10 * time.Millisecond
	}
	tick := time.NewTicker(tickEvery)
	defer tick.Stop()

loop:
	for {
		select {
		case <-c.table.done:
			break loop
		case <-c.table.fatal:
			break loop
		case <-runCtx.Done():
			break loop
		case <-tick.C:
			c.table.expire(time.Now())
			c.checkpoint(runctl.StatusFromContext(ctx))
		}
	}
	cancel()
	for live > 0 {
		<-agents
		live--
	}

	if err := c.table.fatalErr(); err != nil {
		c.checkpoint(runctl.StatusFromContext(ctx))
		return nil, err
	}
	status := runctl.StatusFromContext(ctx)
	ne, done := c.table.merged(status)
	result := &Result{
		NE:         ne,
		Space:      c.spaceName,
		SpaceSize:  c.ss.Size(),
		Pivot:      c.ss.Pivot(),
		Shards:     len(c.table.shards),
		ShardsDone: done,
	}
	if ne.Complete {
		// The scan is done; stale lease tables would only confuse a rerun.
		if c.store != nil {
			fsys := faultfs.Or(c.cfg.FS)
			_ = fsys.Remove(c.store.Path)
			_ = fsys.Remove(c.store.PrevPath())
		}
	} else {
		c.checkpoint(status)
	}
	c.cfg.Journal.Event("merge", map[string]any{
		"shards": result.Shards, "shards_done": done,
		"checked": ne.Checked, "equilibria": len(ne.Equilibria),
		"complete": ne.Complete, "status": ne.Status.String(),
	})
	return result, nil
}

// agentLoop is one worker's drive loop: acquire a lease, run the shard,
// report, repeat. Failures release the lease and back off before the
// next acquire, so a dead worker's agent idles cheaply while surviving
// workers take the re-leased shards.
func (c *Scan) agentLoop(ctx context.Context, base string) {
	client := &Client{
		Base:     base,
		HTTP:     c.cfg.HTTP,
		Backoff:  c.cfg.Backoff,
		Attempts: c.cfg.ClientAttempts,
		APIKey:   c.cfg.APIKey,
		Reg:      c.reg,
	}
	failStreak := 0
	for {
		if ctx.Err() != nil {
			return
		}
		sh := c.table.acquire(base)
		if sh == nil {
			select {
			case <-ctx.Done():
			case <-c.table.done:
			case <-c.table.fatal:
			case <-time.After(c.cfg.pollEvery()):
				continue // a lease may have expired back to pending
			}
			return
		}
		err := c.runShard(ctx, client, sh, base)
		var bp *backpressureError
		switch {
		case err == nil:
			failStreak = 0
		case ctx.Err() != nil:
			// Shutting down: the lease dies with the run; the checkpoint
			// records non-done shards as pending.
			return
		case errors.As(err, &bp):
			// The worker shed the submission (429/503 + Retry-After): that
			// is admission control doing its job, not a worker fault, so the
			// lease grant is refunded — a shard must never exhaust
			// MaxAttempts purely because the fleet outran the servers — and
			// the agent honors the advertised floor before trying again.
			c.reg.Inc(obs.MFleetThrottled)
			c.table.releaseBackpressure(sh, base, bp.Error())
			failStreak++
			if c.cfg.Backoff.WaitAtLeast(ctx, failStreak-1, bp.floor) != nil {
				return
			}
		default:
			c.reg.Inc(obs.MFleetWorkerFaults)
			c.table.release(sh, base, err.Error())
			failStreak++
			if c.cfg.Backoff.Wait(ctx, failStreak-1) != nil {
				return
			}
		}
	}
}

// backpressureError marks a shard attempt stopped by worker admission
// control before any work was scheduled. floor is the server's
// Retry-After hint (0 = none; the agent's backoff then rules).
type backpressureError struct {
	floor time.Duration
	err   error
}

func (e *backpressureError) Error() string { return e.err.Error() }
func (e *backpressureError) Unwrap() error { return e.err }

// wrapBackpressure classifies an error: a worker 429/503 becomes a
// *backpressureError carrying the Retry-After floor; anything else
// passes through unchanged.
func wrapBackpressure(err error) error {
	if floor, ok := Throttle(err); ok {
		return &backpressureError{floor: floor, err: err}
	}
	return err
}

// runShard executes one lease end to end against one worker: readiness
// gate, submit, poll-with-heartbeat, fetch result, merge.
func (c *Scan) runShard(ctx context.Context, client *Client, sh *shardLease, base string) error {
	sp := obs.Trace().StartSpan("fleet.shard")
	defer sp.End()

	// Readiness gate: a draining worker answers /readyz with 503, a dead
	// one refuses the connection — either way the lease goes back now
	// instead of after a full submit/poll retry cycle.
	if err := client.Ready(ctx); err != nil {
		return wrapBackpressure(fmt.Errorf("worker not ready: %w", err))
	}
	req := &serve.Request{
		Mode:    "enumerate",
		Game:    c.game,
		Agg:     c.cfg.Agg,
		Pin:     c.cfg.Pin,
		Workers: c.cfg.SolveWorkers,
		Shard:   &serve.ShardRange{Lo: sh.Lo, Hi: sh.Hi},
	}
	view, err := client.Submit(ctx, req)
	if err != nil {
		// A submit refused by admission control (throttled, over quota,
		// queue full, draining) never scheduled any work: classify it as
		// backpressure so the agent refunds the lease attempt.
		return wrapBackpressure(fmt.Errorf("submit shard: %w", err))
	}

	var stopTail func()
	if c.cfg.Tail {
		stopTail = c.tail(ctx, client, view.ID, sh.Index)
		defer stopTail()
	}

	for view.State == serve.StateQueued || view.State == serve.StateRunning {
		if err := c.cfg.Backoff.WaitAtLeast(ctx, 0, c.cfg.pollEvery()); err != nil {
			return err
		}
		view, err = client.Job(ctx, view.ID)
		if err != nil {
			return fmt.Errorf("poll shard job: %w", err)
		}
		// A successful poll proves the worker is alive and holding our
		// shard; that is the heartbeat.
		c.table.heartbeat(sh, base, time.Now())
	}

	switch {
	case view.State == serve.StateRejected:
		return fmt.Errorf("shard job rejected: %s", view.Reason)
	case view.Error != "":
		return fmt.Errorf("shard job failed: %s", view.Error)
	case !view.Complete:
		// Worker drained or the job was cancelled; its checkpoint remains,
		// so the next lease holder on the same worker resumes mid-shard.
		return fmt.Errorf("shard run incomplete (status %s)", view.RunStatus)
	}
	var res serve.EnumResult
	if err := json.Unmarshal(view.Result, &res); err != nil {
		return fmt.Errorf("decode shard result: %w", err)
	}
	c.table.complete(sh, base, &shardResult{
		Fingerprint: res.Fingerprint,
		Checked:     res.Checked,
		Equilibria:  res.Equilibria,
	})
	return nil
}

// tail forwards a running shard job's journal records (progress,
// checkpoints) into the coordinator journal over SSE; the stream
// reconnects with Last-Event-ID on transport errors. Best-effort: tail
// failures never fail the shard.
func (c *Scan) tail(ctx context.Context, client *Client, jobID string, shard int) func() {
	tailCtx, cancel := context.WithCancel(ctx)
	idle := make(chan struct{})
	go func() {
		defer close(idle)
		_ = client.Events(tailCtx, jobID, -1, func(event string, seq int64, data []byte) error {
			if event == "done" {
				return nil
			}
			c.cfg.Journal.Event("worker_event", map[string]any{
				"shard": shard, "job": jobID, "event": event, "seq": seq,
				"record": json.RawMessage(data),
			})
			return nil
		})
	}()
	return func() {
		cancel()
		<-idle
	}
}
