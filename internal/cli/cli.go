// Package cli is the run-control kit of the bbc commands. It declares
// the shared flags once (-journal -trace -progress -pprof, -timeout,
// -checkpoint -resume), owns the process lifecycle — flag parsing,
// signal cancellation, the -timeout deadline, the observability runtime
// and the exit-code table — and loads and saves the snapshots that
// -resume and -checkpoint name.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"bbc/internal/obs"
	"bbc/internal/runctl"
)

// Set selects which shared flags a command takes.
type Set uint8

const (
	JournalFlag    Set = 1 << iota // -journal
	TraceFlag                      // -trace
	ProgressFlag                   // -progress
	PprofFlag                      // -pprof
	TimeoutFlag                    // -timeout
	CheckpointFlag                 // -checkpoint and -resume

	// Obs is the observability group every batch command takes.
	Obs = JournalFlag | TraceFlag | ProgressFlag | PprofFlag
	// RunControl adds the deadline and checkpoint/resume flags of the
	// long-running commands.
	RunControl = Obs | TimeoutFlag | CheckpointFlag
)

// Flags holds the shared flag values. Commands embed it in their
// options, so tests set the values without parsing.
type Flags struct {
	Journal    string
	Trace      string
	Progress   bool
	Pprof      string
	Timeout    time.Duration
	Checkpoint string
	Resume     string
}

// ErrUsage marks command-line mistakes, which exit with ExitUsage.
var ErrUsage = errors.New("usage")

// NewFlagSet returns the named command's flag set, reporting to stderr,
// with the shared flags in set declared and bound to f.
func NewFlagSet(name string, stderr io.Writer, f *Flags, set Set) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	if set&JournalFlag != 0 {
		fs.StringVar(&f.Journal, "journal", "", "write a JSONL run journal to this file")
	}
	if set&TraceFlag != 0 {
		fs.StringVar(&f.Trace, "trace", "", "write a Chrome trace-event JSON file of spans to this file on exit")
	}
	if set&ProgressFlag != 0 {
		fs.BoolVar(&f.Progress, "progress", false, "print progress/ETA to stderr")
	}
	if set&PprofFlag != 0 {
		fs.StringVar(&f.Pprof, "pprof", "", "serve pprof/expvar at this address (e.g. :6060)")
	}
	if set&TimeoutFlag != 0 {
		fs.DurationVar(&f.Timeout, "timeout", 0, "wall-time budget, e.g. 30s; truncates with status deadline (0 = none)")
	}
	if set&CheckpointFlag != 0 {
		fs.StringVar(&f.Checkpoint, "checkpoint", "", "persist a resumable snapshot to this file")
		fs.StringVar(&f.Resume, "resume", "", "resume from this snapshot file")
	}
	return fs
}

// Parse parses args into fs. A failure wraps ErrUsage; -help also wraps
// flag.ErrHelp, which ExitCode maps to success.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", ErrUsage, err)
	}
	return nil
}

// ExitCode maps how a run ended to the process exit code: -help 0, a
// usage error 2, unrecoverable checkpoint corruption 4, any other error
// or a failure count above zero 1, and otherwise the status's code (0
// complete, 3 budget or deadline, 130 cancelled).
func ExitCode(status runctl.Status, failures int, err error) int {
	switch {
	case errors.Is(err, flag.ErrHelp):
		return runctl.ExitOK
	case errors.Is(err, ErrUsage):
		return runctl.ExitUsage
	case err != nil:
		return runctl.ExitCodeForError(err)
	case failures > 0:
		return runctl.ExitError
	}
	return runctl.ExitCode(status)
}

// Main is a command's whole process lifecycle: it parses args into fs,
// runs body under a context that SIGINT/SIGTERM cancel, reports on
// fs.Output how the run ended and returns the exit code. failed names
// what body's failure count counts ("experiment"), for the
// "N experiment(s) failed" line.
func Main(fs *flag.FlagSet, args []string, failed string, body func(context.Context) (runctl.Status, int, error)) int {
	if err := Parse(fs, args); err != nil {
		return ExitCode(runctl.StatusComplete, 0, err)
	}
	ctx, signalled, stop := runctl.SignalContext(context.Background())
	status, failures, err := body(ctx)
	stop()
	name, stderr := fs.Name(), fs.Output()
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return ExitCode(status, failures, err)
	}
	if sig := signalled(); sig != nil {
		fmt.Fprintf(stderr, "%s: interrupted by %v; partial results flushed\n", name, sig)
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "%s: %d %s(s) failed\n", name, failures, failed)
	}
	return ExitCode(status, failures, err)
}

// Run is one command run's observability runtime plus the snapshot
// store behind its shared flags; Start hands it to the command body.
type Run struct {
	*obs.Runtime
	flags  Flags
	name   string
	stderr io.Writer
	store  *runctl.Store
}

// Start runs body under the -timeout deadline with the observability
// runtime f asks for, and closes the runtime on every path: the journal
// is flushed and the trace written even when body fails. A resumed run
// (-resume set) appends to its journal instead of truncating it, so the
// interrupted run's records survive and sequence numbers continue.
func (f Flags) Start(ctx context.Context, name string, stderr io.Writer, body func(context.Context, *Run) (runctl.Status, error)) (runctl.Status, error) {
	ctx, cancel := runctl.WithDeadline(ctx, f.Timeout)
	defer cancel()
	rt, err := obs.StartCLIConfig(obs.CLIConfig{
		Name: name, Journal: f.Journal, AppendJournal: f.Resume != "",
		Trace: f.Trace, Pprof: f.Pprof, Stderr: stderr,
	})
	if err != nil {
		return runctl.StatusComplete, err
	}
	r := &Run{Runtime: rt, flags: f, name: name, stderr: stderr,
		store: &runctl.Store{Path: f.Checkpoint, Retries: 2}}
	status, err := body(ctx, r)
	if cerr := rt.Close(); cerr != nil {
		if err == nil {
			return status, cerr
		}
		fmt.Fprintf(stderr, "%s: %v\n", name, cerr)
	}
	return status, err
}

// LoadResume decodes the -resume snapshot's kind payload into out,
// refusing a snapshot whose fingerprint is not fp, and returns the path
// it was loaded from ("" when -resume is unset). A corrupt primary is
// quarantined and the previous generation used instead: the fallback is
// explained on stderr and journaled as checkpoint_recovered. When no
// generation is loadable the error is a *runctl.CorruptError.
func (r *Run) LoadResume(kind, fp string, out any) (string, error) {
	path := r.flags.Resume
	if path == "" {
		return "", nil
	}
	env, rec, err := (&runctl.Store{Path: path}).Load()
	if err != nil {
		return "", err
	}
	if rec.Fallback {
		fmt.Fprintf(r.stderr, "%s: checkpoint %s was not loadable (%v); resuming from the previous generation %s\n",
			r.name, path, rec.Err, rec.Path)
		if rec.Quarantined != "" {
			fmt.Fprintf(r.stderr, "%s: the corrupt snapshot was preserved at %s for inspection\n", r.name, rec.Quarantined)
		}
		r.Journal.Event("checkpoint_recovered", map[string]any{
			"path":        path,
			"loaded_from": rec.Path,
			"quarantined": rec.Quarantined,
			"reason":      fmt.Sprint(rec.Err),
		})
	}
	if err := env.Decode(kind, fp, out); err != nil {
		return "", err
	}
	return rec.Path, nil
}

// Save persists payload as a kind snapshot at -checkpoint (a no-op when
// it is unset) with generation rotation and bounded retry, and journals
// a checkpoint record carrying fields. A failed save is journaled as
// checkpoint_error and returned; the caller decides whether the run
// goes on.
func (r *Run) Save(kind, fp string, status runctl.Status, payload any, fields map[string]any) error {
	path := r.flags.Checkpoint
	if path == "" {
		return nil
	}
	env, err := runctl.NewCheckpoint(kind, fp, status, r.Reg.Snapshot(), payload)
	if err == nil {
		err = r.store.Save(env)
	}
	if err != nil {
		data := map[string]any{"path": path, "error": err.Error()}
		for k, v := range fields {
			data[k] = v
		}
		r.Journal.Event("checkpoint_error", data)
		return err
	}
	r.Journal.Checkpoint(path, kind, fields)
	return nil
}
