package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"bbc/internal/core"
	"bbc/internal/exper"
	"bbc/internal/obs"
	"bbc/internal/runctl"
)

// Request is the JSON body of a job submission. Mode selects the solver;
// the remaining fields parameterize it. Every field that changes the
// solve's outcome participates in the dedup key, so two requests dedup to
// one underlying solve exactly when they would compute the same thing.
type Request struct {
	// Mode is "enumerate" (exhaustive pure-NE scan), "walk" (best-response
	// dynamics) or "suite" (reproduction experiments).
	Mode string `json:"mode"`
	// Game is a core spec document (same schema bbcgen emits); required
	// for enumerate and walk.
	Game json.RawMessage `json:"game,omitempty"`
	// Agg is the cost aggregation: "sum" (default) or "max".
	Agg string `json:"agg,omitempty"`

	// Enumerate parameters.
	Pin         bool        `json:"pin,omitempty"`          // soundly pinned search space (unit lengths)
	Workers     int         `json:"workers,omitempty"`      // solver workers inside the job (0 = 1, serial)
	MaxNE       int         `json:"max_ne,omitempty"`       // stop after this many equilibria (0 = all)
	MaxProfiles uint64      `json:"max_profiles,omitempty"` // profile budget (0 = unbounded)
	Shard       *ShardRange `json:"shard,omitempty"`        // scan only pivot partitions [Lo, Hi)

	// Walk parameters.
	Sched string `json:"sched,omitempty"` // round-robin (default), max-cost-first, random
	Start string `json:"start,omitempty"` // empty (default) or random
	Seed  int64  `json:"seed,omitempty"`
	Steps int    `json:"steps,omitempty"` // max walk steps (0 = 10·n²)

	// Suite parameters.
	Only  []string `json:"only,omitempty"` // experiment ids (empty = all)
	Quick bool     `json:"quick,omitempty"`

	// TimeoutMS is the per-job wall-time budget in milliseconds (0 = none).
	// It bounds this run, not the solve identity, so it is excluded from
	// the dedup key.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ShardRange restricts an enumerate job to the half-open range
// [Lo, Hi) of the search space's pivot partitions (the strategy set of
// the first node with more than one strategy). Concatenating shard
// results in Lo order reproduces the serial odometer order exactly,
// which is what makes the fleet coordinator's merge byte-identical to a
// single-box scan. The shard participates in the dedup key and in the
// checkpoint fingerprint, so different shards of one game never collide.
type ShardRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// job states. A job is terminal in StateDone (ran, result attached,
// RunStatus says how it ended) or StateRejected (never ran: queue full,
// drain, or cancelled while queued; retry hint attached).
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateRejected = "rejected"
)

// Job is one accepted submission and its lifecycle state. Mutable fields
// are guarded by the owning Server's mutex.
type Job struct {
	ID  string
	Key string
	Req Request

	client   string // admission identity (X-API-Key; "" = anonymous)
	requeued bool   // recovered from the store at startup

	spec core.Spec
	agg  core.Aggregation

	state     string
	runStatus runctl.Status
	complete  bool
	result    any
	errMsg    string
	reason    string // rejection reason
	retryMS   int64  // retry hint for rejected jobs

	checkpoint string // persisted snapshot path ("" = none)
	resumable  bool

	submitted time.Time
	started   time.Time
	finished  time.Time

	cancel context.CancelFunc // non-nil while running; DELETE fires it
	done   chan struct{}      // closed when the job reaches a terminal state
}

// View is the wire representation of a job, safe to marshal concurrently
// because it is built under the server lock.
type View struct {
	ID        string `json:"id"`
	Key       string `json:"key"`
	RunID     string `json:"run_id"`
	Mode      string `json:"mode"`
	State     string `json:"state"`
	RunStatus string `json:"run_status,omitempty"` // terminal done jobs only
	Complete  bool   `json:"complete"`

	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`

	Reason       string `json:"reason,omitempty"`         // rejected jobs: why
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"` // rejected jobs: when to retry

	Checkpoint string `json:"checkpoint,omitempty"`
	Resumable  bool   `json:"resumable"`

	// Stored marks a view served from the JobStore rather than the live
	// job indexes — possibly recorded by an earlier process generation.
	Stored bool `json:"stored,omitempty"`

	SubmittedMS float64 `json:"submitted_ms"`
	StartedMS   float64 `json:"started_ms,omitempty"`
	FinishedMS  float64 `json:"finished_ms,omitempty"`

	// Absolute wall-clock timestamps (unix milliseconds). Unlike the
	// relative *_ms fields above, these stay meaningful across restarts.
	SubmittedUnixMS int64 `json:"submitted_unix_ms,omitempty"`
	StartedUnixMS   int64 `json:"started_unix_ms,omitempty"`
	FinishedUnixMS  int64 `json:"finished_unix_ms,omitempty"`
}

// view renders the job relative to the server start time. Callers hold
// the server lock.
func (j *Job) view(epoch time.Time) *View {
	v := &View{
		ID:           j.ID,
		Key:          j.Key,
		RunID:        obs.RunID(),
		Mode:         j.Req.Mode,
		State:        j.state,
		Complete:     j.complete,
		Error:        j.errMsg,
		Reason:       j.reason,
		RetryAfterMS: j.retryMS,
		Checkpoint:   j.checkpoint,
		Resumable:    j.resumable,
		SubmittedMS:  msSince(epoch, j.submitted),
	}
	if j.state == StateDone {
		v.RunStatus = j.runStatus.String()
	}
	if !j.submitted.IsZero() {
		v.SubmittedUnixMS = j.submitted.UnixMilli()
	}
	if !j.started.IsZero() {
		v.StartedMS = msSince(epoch, j.started)
		v.StartedUnixMS = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		v.FinishedMS = msSince(epoch, j.finished)
		v.FinishedUnixMS = j.finished.UnixMilli()
	}
	if j.result != nil {
		if raw, err := json.Marshal(j.result); err == nil {
			v.Result = raw
		}
	}
	return v
}

func msSince(epoch, t time.Time) float64 {
	return float64(t.Sub(epoch).Microseconds()) / 1000
}

// parseRequest validates a submission and resolves the pieces the solver
// needs (spec, aggregation). Validation failures are client errors.
func parseRequest(req *Request) error {
	switch req.Agg {
	case "", "sum", "max":
	default:
		return fmt.Errorf("unknown agg %q (want sum or max)", req.Agg)
	}
	if req.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be >= 0")
	}
	switch req.Mode {
	case "enumerate":
		if req.Workers < 0 || req.MaxNE < 0 {
			return fmt.Errorf("workers and max_ne must be >= 0")
		}
		if req.Shard != nil && (req.Shard.Lo < 0 || req.Shard.Hi <= req.Shard.Lo) {
			return fmt.Errorf("shard range [%d, %d) is empty or negative", req.Shard.Lo, req.Shard.Hi)
		}
	case "walk":
		switch req.Sched {
		case "", "round-robin", "max-cost-first", "random":
		default:
			return fmt.Errorf("unknown sched %q", req.Sched)
		}
		switch req.Start {
		case "", "empty", "random":
		default:
			return fmt.Errorf("unknown start %q (want empty or random)", req.Start)
		}
		if req.Steps < 0 {
			return fmt.Errorf("steps must be >= 0")
		}
	case "suite":
		known := make(map[string]bool)
		for _, e := range exper.Suite() {
			known[e.ID] = true
		}
		for _, id := range req.Only {
			if !known[id] {
				return fmt.Errorf("unknown experiment %q", id)
			}
		}
		return nil // no game document
	default:
		return fmt.Errorf("unknown mode %q (want enumerate, walk or suite)", req.Mode)
	}
	if len(req.Game) == 0 {
		return fmt.Errorf("mode %s requires a game document", req.Mode)
	}
	return nil
}

// parseAgg maps the request aggregation name ("" = sum).
func parseAgg(name string) core.Aggregation {
	if name == "max" {
		return core.MaxDistance
	}
	return core.SumDistances
}

// dedupKey fingerprints the solve a request describes: every field that
// determines the outcome (and, for workers, the checkpoint shape) feeds
// the hash, normalized through the canonical spec encoding so equivalent
// game documents collide. TimeoutMS is deliberately excluded — a deadline
// bounds a run, it does not change what is being computed.
func dedupKey(req *Request, spec core.Spec) (string, error) {
	h := fnv.New64a()
	fmt.Fprintf(h, "mode=%s;agg=%s;", req.Mode, req.Agg)
	switch req.Mode {
	case "enumerate":
		fmt.Fprintf(h, "pin=%t;workers=%d;maxne=%d;maxprof=%d;", req.Pin, req.Workers, req.MaxNE, req.MaxProfiles)
		if req.Shard != nil {
			fmt.Fprintf(h, "shard=%d:%d;", req.Shard.Lo, req.Shard.Hi)
		}
	case "walk":
		fmt.Fprintf(h, "sched=%s;start=%s;seed=%d;steps=%d;", req.Sched, req.Start, req.Seed, req.Steps)
	case "suite":
		fmt.Fprintf(h, "quick=%t;only=%v;", req.Quick, req.Only)
	}
	if spec != nil {
		canon, err := core.MarshalSpec(spec)
		if err != nil {
			return "", err
		}
		h.Write(canon)
	}
	return fmt.Sprintf("bbc-%016x", h.Sum64()), nil
}
