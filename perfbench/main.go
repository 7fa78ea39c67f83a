// Command perfbench is the repository's end-to-end benchmark. It drives one
// seeded workload through the public functions of core, dynamics, serve,
// store, fleet and runctl with an obs registry installed (as every CLI
// runs), checks every output it produces, and prints as its last line one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) record spans around each module call from this package and
// report the per-layer metrics instead. End-to-end times are wall times
// scaled to a nominal host speed by samples of a reference kernel taken
// between the timed intervals (see calib.go). Human-readable lines before the
// JSON give the same figures under their workload-specific names, the
// environment (nproc, GOMAXPROCS, go version, git rev, seed) and a
// non-test line count per package.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it into .bench_build:
//
//	bash perfbench/run.sh --workload gadget-scan --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"bbc/internal/obs"
)

// workload runs one benchmark workload against b.
type workload func(b *bench) error

var workloads = map[string]workload{
	"gadget-scan": runGadgetScan,
	"br-walks":    runBRWalks,
	"fleet-scan":  runFleetScan,
}

// End-to-end metrics, reported by every workload under these names. Each
// workload maps its own main and second path onto primary_ms and
// secondary_ms (see BENCHMARK.json and the "e2e" lines each run prints).
const (
	mPrimary   = "primary_ms"
	mSecondary = "secondary_ms"
	mSetup     = "setup_s"
	mLiveHeap  = "live_heap_mb"
)

// setupRepeats is how many times each workload sets itself up; setup_s is
// the median, so one slow file-system call does not decide it.
const setupRepeats = 31

// bench is one benchmark run: its arguments, the registry every module
// reports into, and the figures the workload records.
type bench struct {
	seed    int64
	seconds time.Duration
	traced  bool
	tr      *tracer // nil in untraced runs
	reg     *obs.Registry
	nproc   int
	dir     string // scratch directory inside the checkout
	rng     *rand.Rand
	clock   *hostClock // reference samples after timed intervals

	setup   []float64 // seconds per set-up repetition, as measured
	setupAt interval  // when the set-up repetitions ran
	// setupSys holds each repetition of a system-call-bound set-up scaled
	// by the system-call reference sample after it (see calib.go).
	setupSys []float64
	e2e      map[string]float64
	layers   map[string]float64
	ops      tally

	mu  sync.Mutex // guards bad and e2e[mLiveHeap]
	bad []string   // correctness failures
}

// check records a correctness failure when ok is false. Safe for
// concurrent use.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.mu.Lock()
		b.bad = append(b.bad, fmt.Sprintf(format, args...))
		b.mu.Unlock()
	}
}

// say prints one human-readable line (never the last line of stdout).
func say(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

// timeSetup runs fn setupRepeats times, recording each duration, and then
// tears down every repetition but the last with the close function it
// returned; the last one is the workload's. The repetitions stay up until
// all have run, so no set-up waits on an earlier one's teardown (a job
// store's closing fsync, say). setup_s is their median, scaled to the
// nominal host speed: as one interval by the CPU reference, or, for a set-up
// made mostly of system calls (syscalls), each repetition by a sample of
// the system-call reference taken right after it.
func (b *bench) timeSetup(syscalls bool, fn func() (func(), error)) error {
	var closers []func()
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	b.setupAt.t0 = time.Now()
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		c, err := fn()
		d := time.Since(t0).Seconds()
		b.setup = append(b.setup, d)
		if err != nil {
			return err
		}
		if syscalls {
			ref, err := sysSample(b.dir)
			if err != nil {
				return fmt.Errorf("system-call reference: %w", err)
			}
			b.setupSys = append(b.setupSys, d*sysNominalMS/ref)
		}
		if i < setupRepeats-1 {
			closers = append(closers, c)
		}
	}
	b.setupAt.t1 = time.Now()
	b.clock.sample()
	return nil
}

// probeHeap reads the live heap and keeps the largest reading as
// live_heap_mb. Workloads call it from inside an untimed probe operation
// run after the measuring window (from a checkpoint or journal hook), so
// the reading includes that operation's working state. Safe for
// concurrent use.
func (b *bench) probeHeap() {
	mb := liveHeap() / (1 << 20)
	b.mu.Lock()
	b.e2e[mLiveHeap] = max(b.e2e[mLiveHeap], mb)
	b.mu.Unlock()
}

// until reports whether the measuring window that started at t0 is still
// open.
func (b *bench) until(t0 time.Time) bool { return time.Since(t0) < b.seconds }

// metricDef is one reported metric: name, unit and which direction is
// better. BENCHMARK.json lists the same definitions (a test keeps them in
// step).
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{mPrimary, "ms", "lower"},
	{mSecondary, "ms", "lower"},
	{mSetup, "s", "lower"},
	{mLiveHeap, "MiB", "lower"},
}

// perLayer lists every per-layer metric a traced run reports. Counts
// marked count/op are per operation of the workload (per scan, walk or
// fleet run), so runs of different lengths compare. Workloads fill the
// metrics of the modules they exercise; the rest read 0 ("this layer did
// no work here").
var perLayer = []metricDef{
	{"graph.bfs_batch_calls", "count/op", "lower"},
	{"graph.bfs_batch_waves", "count/op", "lower"},
	{"graph.bfs_batch_sources", "count/op", "lower"},
	{"graph.bfs_batch_ns_p50", "ns", "lower"},
	{"graph.dijkstra_calls", "count/op", "lower"},
	{"graph.dijkstra_ns_p50", "ns", "lower"},
	{"core.oracle_builds", "count/op", "lower"},
	{"core.oracle_cache_hit_ratio", "ratio", "higher"},
	{"core.oracle_build_ns_p50", "ns", "lower"},
	{"core.oracle_build_ns_p99", "ns", "lower"},
	{"core.has_improvement_ns_p50", "ns", "lower"},
	{"core.has_improvement_ns_p99", "ns", "lower"},
	{"core.stability_checks", "count/op", "lower"},
	{"core.quotient_skip_ratio", "ratio", "higher"},
	{"core.scan_busy_ratio", "ratio", "higher"},
	{"core.scan_parallel_efficiency", "ratio", "higher"},
	{"dynamics.steps", "count/op", "lower"},
	{"dynamics.move_ratio", "ratio", "lower"},
	{"dynamics.step_ns", "ns", "lower"},
	{"core.best_exact_leaves_per_step", "count/step", "lower"},
	{"runctl.checkpoint_saves", "count/op", "lower"},
	{"runctl.checkpoint_save_ns_p50", "ns", "lower"},
	{"runctl.checkpoint_save_ns_max", "ns", "lower"},
	{"runctl.checkpoint_bytes", "bytes", "lower"},
	{"obs.registry_overhead_ratio", "ratio", "lower"},
	{"obs.registry_overhead_serial_ratio", "ratio", "lower"},
	{"store.wal_appends", "count/op", "lower"},
	{"store.compactions", "count/op", "lower"},
	{"store.append_ns_p50", "ns", "lower"},
	{"store.append_ns_p99", "ns", "lower"},
	{"serve.submit_ns_p50", "ns", "lower"},
	{"serve.submit_ns_p99", "ns", "lower"},
	{"serve.queue_wait_ns_p50", "ns", "lower"},
	{"serve.queue_wait_ns_p99", "ns", "lower"},
	{"serve.solve_ms_p50", "ms", "lower"},
	{"serve.solve_ms_p99", "ms", "lower"},
	{"serve.dedup_ratio", "ratio", "higher"},
	{"serve.refusals", "count", "lower"},
	{"fleet.shard_round_trip_ms_p50", "ms", "lower"},
	{"fleet.shard_round_trip_ms_max", "ms", "lower"},
	{"fleet.shard_imbalance", "ratio", "lower"},
	{"fleet.http_calls", "count/op", "lower"},
	{"fleet.http_call_ns_p50", "ns", "lower"},
	{"fleet.http_call_ns_p99", "ns", "lower"},
	{"fleet.leases", "count/op", "lower"},
	{"fleet.releases", "count/op", "lower"},
	{"fleet.retries", "count/op", "lower"},
	{"fail_ratio", "ratio", "lower"},
	{"trace_overhead_ratio", "ratio", "lower"},
}

// traceLayers are the layers spans are recorded in; "bench" is the
// unattributed remainder of each operation (its root span's self time).
var traceLayers = []string{"bench", "core", "dynamics", "runctl", "store", "serve", "fleet"}

func init() {
	for _, l := range traceLayers {
		perLayer = append(perLayer,
			metricDef{"trace.self_ms." + l, "ms/op", "lower"},
			metricDef{"trace.blocking_share." + l, "ratio", "lower"})
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: gadget-scan, br-walks or fleet-scan")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 30, "measuring window per run, in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {gadget-scan|br-walks|fleet-scan} --seed N --seconds S --trace 0|1\n")
		return 2
	}
	dir, err := os.MkdirTemp(filepath.Join(".bench_build"), "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch dir: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		reg:     obs.NewRegistry(),
		nproc:   runtime.NumCPU(),
		dir:     dir,
		rng:     rand.New(rand.NewSource(*seed)),
		e2e:     make(map[string]float64),
		layers:  make(map[string]float64),
	}
	if b.traced {
		b.tr = newTracer()
	}
	prev := obs.SetGlobal(b.reg)
	defer obs.SetGlobal(prev)
	b.clock = newHostClock()

	say("workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s rev=%s",
		*name, *seed, *seconds, *trace, b.nproc, runtime.GOMAXPROCS(0), runtime.Version(), gitRev())
	printLOC()

	err = wl(b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	say("reference ms: %s", summary(b.clock.sampleMS()))
	b.check(b.clock.bad == 0, "reference kernel returned a wrong sum in %d samples", b.clock.bad)
	for _, msg := range b.bad {
		fmt.Fprintf(os.Stderr, "perfbench: correctness: %s\n", msg)
	}
	if b.ops.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted no operations\n", *name)
		return 1
	}

	res := result{
		Correct:   len(b.bad) == 0,
		Attempted: b.ops.attempted,
		Failed:    b.ops.failed,
		Metrics:   make(map[string]metric),
	}
	if b.traced {
		b.layers["fail_ratio"] = b.ops.failRatio()
		spans := b.tr.snapshot()
		prof := profileLayers(spans)
		for _, l := range traceLayers {
			b.layers["trace.self_ms."+l] = ratio(float64(prof.self[l])/1e6, float64(prof.ops))
			b.layers["trace.blocking_share."+l] = prof.share(l)
		}
		say("traced %d operations: %d spans; layer self time per operation and share of the blocking path:", prof.ops, len(spans))
		for _, l := range traceLayers {
			say("  %-8s %10.3f ms  %6.2f%%", l, b.layers["trace.self_ms."+l], 100*b.layers["trace.blocking_share."+l])
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: b.layers[m.name], Unit: m.unit}
		}
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := b.tr.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		say("spans written to %s", path)
	} else {
		how := "each repetition by the system-call reference"
		if b.setupSys != nil {
			b.e2e[mSetup] = median(b.setupSys)
		} else {
			f := b.clock.factor(b.setupAt.t0, b.setupAt.t1)
			b.e2e[mSetup] = median(b.setup) * f
			how = fmt.Sprintf("by %.3f", f)
		}
		say("e2e setup_s=%.4f live_heap_mb=%.3f fail_ratio=%.4f (%d/%d)",
			b.e2e[mSetup], b.e2e[mLiveHeap], b.ops.failRatio(), b.ops.failed, b.ops.attempted)
		setupMS := make([]float64, len(b.setup))
		for i, x := range b.setup {
			setupMS[i] = x * 1e3
		}
		say("set-up ms (raw wall, scaled %s): %s", how, summary(setupMS))
		for _, m := range endToEnd {
			v, ok := b.e2e[m.name]
			if !ok || v <= 0 {
				fmt.Fprintf(os.Stderr, "perfbench: %s produced no %s\n", *name, m.name)
				return 1
			}
			res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// gitRev reads the checked-out revision from .git when the tree is a git
// checkout; benchmark checkouts without .git report "unknown".
func gitRev() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if rev, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(name))); err == nil {
		return strings.TrimSpace(string(rev))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == name {
				return f[0]
			}
		}
	}
	return "unknown"
}
