package obs

import (
	"fmt"
	"io"
)

// Runtime bundles the observability facilities a CLI enabled: the
// process-wide registry (always installed), the optional journal and the
// optional span tracer. The zero value / nil pointer is inert, so error
// paths can Close it blindly.
type Runtime struct {
	Reg     *Registry
	Journal *Journal
	Tracer  *Tracer

	name      string
	stderr    io.Writer
	tracePath string
}

// CLIConfig configures StartCLIConfig.
type CLIConfig struct {
	// Name prefixes stderr diagnostics ("bbcsim", ...).
	Name string
	// Journal, when non-empty, opens a JSONL run journal at this path.
	Journal string
	// AppendJournal reopens an existing journal in salvage-append mode
	// (resumed runs) instead of truncating it: the interrupted run's
	// records survive, a torn tail is dropped, and sequence numbers
	// continue.
	AppendJournal bool
	// JournalMaxBytes, when > 0, caps the live journal file: it rotates
	// to <path>.1 at record boundaries (salvage-compatible framing) so a
	// long-lived process cannot grow its journal unboundedly.
	JournalMaxBytes int64
	// Trace, when non-empty, installs the process-wide span tracer and
	// writes a Chrome trace-event JSON file (chrome://tracing /
	// Perfetto-loadable) to this path on Close.
	Trace string
	// Pprof, when non-empty, serves the pprof/expvar debug server at
	// this address.
	Pprof string
	// Stderr receives startup diagnostics.
	Stderr io.Writer
}

// StartCLIConfig installs a fresh global registry and starts the
// observability facilities c enables: the run journal (truncating, or
// appending for resumed runs), the span tracer, and the pprof/expvar
// debug server, whose address is announced on stderr. The caller owns
// Close, which writes the trace and flushes the journal, surfacing the
// first error.
func StartCLIConfig(c CLIConfig) (*Runtime, error) {
	rt := &Runtime{Reg: NewRegistry(), name: c.Name, stderr: c.Stderr}
	SetGlobal(rt.Reg)
	if c.Journal != "" {
		j, sal, err := OpenJournalConfig(JournalConfig{
			Path: c.Journal, Reg: rt.Reg,
			MaxBytes: c.JournalMaxBytes, Append: c.AppendJournal,
		})
		if err != nil {
			return nil, err
		}
		if sal != nil && sal.DroppedBytes > 0 && c.Stderr != nil {
			fmt.Fprintf(c.Stderr, "%s: journal %s: salvaged %d records, dropped a torn tail of %d bytes\n",
				c.Name, c.Journal, sal.Kept, sal.DroppedBytes)
		}
		rt.Journal = j
	}
	if c.Trace != "" {
		rt.Tracer = NewTracer(0)
		rt.tracePath = c.Trace
		SetTracer(rt.Tracer)
	}
	if c.Pprof != "" {
		addr, err := ServeDebug(c.Pprof)
		if err != nil {
			rt.Journal.Close()
			return nil, err
		}
		fmt.Fprintf(c.Stderr, "%s: debug server at http://%s/debug/pprof/ (counters at /debug/vars, Prometheus at /metrics)\n", c.Name, addr)
	}
	return rt, nil
}

// Close writes the Chrome trace file (when tracing was enabled) and
// flushes the journal (when one was opened), returning the first error.
// Safe on a nil runtime.
func (rt *Runtime) Close() error {
	if rt == nil {
		return nil
	}
	var traceErr error
	if rt.tracePath != "" {
		SetTracer(nil)
		traceErr = rt.Tracer.WriteChromeTraceFile(rt.tracePath)
		if traceErr == nil && rt.stderr != nil {
			fmt.Fprintf(rt.stderr, "%s: trace written to %s (%d spans, %d dropped, run %s)\n",
				rt.name, rt.tracePath, rt.Tracer.Recorded()-rt.Tracer.Dropped(), rt.Tracer.Dropped(), RunID())
		}
	}
	if err := rt.Journal.Close(); err != nil {
		return err
	}
	return traceErr
}
