package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"bbc/internal/serve"
	"bbc/internal/store"
)

// spanParent is the operation and span that server-side work currently
// belongs under in a traced run; parent -1 means untraced.
type spanParent struct {
	mu     sync.Mutex
	op     int64
	parent int
}

func (p *spanParent) set(op int64, parent int) {
	p.mu.Lock()
	p.op, p.parent = op, parent
	p.mu.Unlock()
}

func (p *spanParent) get() (int64, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.op, p.parent
}

// timedStore is the JobStore a worker writes through: *store.Store with
// every append (each an fsynced WAL record) timed and, in traced runs,
// spanned under the operation that caused it.
type timedStore struct {
	*store.Store
	b  *bench
	at *spanParent
	mu sync.Mutex
	ns []float64
}

func (t *timedStore) timed(name string, fn func() error) error {
	op, parent := t.at.get()
	tr := t.b.tr
	if parent < 0 {
		tr = nil
	}
	sp := tr.start(name, "store", op, parent)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	tr.end(sp)
	t.mu.Lock()
	t.ns = append(t.ns, float64(d.Nanoseconds()))
	t.mu.Unlock()
	return err
}

func (t *timedStore) Submitted(rec *store.JobRecord) error {
	return t.timed("store.Submitted", func() error { return t.Store.Submitted(rec) })
}

func (t *timedStore) Started(id string, atMS int64) error {
	return t.timed("store.Started", func() error { return t.Store.Started(id, atMS) })
}

func (t *timedStore) Finished(rec *store.JobRecord) error {
	return t.timed("store.Finished", func() error { return t.Store.Finished(rec) })
}

// appendNS returns the append timings recorded so far.
func (t *timedStore) appendNS() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.ns...)
}

// serveRig is a running in-process bbcserved: one solver, a data dir for
// checkpoints, a durable job store, a loopback listener and no admission
// limits (the bbcserved defaults).
type serveRig struct {
	srv  *serve.Server
	ts   *timedStore
	http *http.Server
	base string
	done chan error
}

func startWorker(b *bench, dir string, at *spanParent) (*serveRig, error) {
	st, _, err := store.Open(filepath.Join(dir, "store"), store.Options{Reg: b.reg})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	ts := &timedStore{Store: st, b: b, at: at}
	srv, err := serve.New(serve.Config{Workers: 1, DataDir: filepath.Join(dir, "data"), Store: ts, Reg: b.reg})
	if err != nil {
		st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	r := &serveRig{srv: srv, ts: ts, http: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { r.done <- r.http.Serve(ln) }()
	return r, nil
}

// stop drains the server (which closes the store) and shuts the listener.
func (r *serveRig) stop() error {
	r.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.http.Shutdown(ctx)
	if serr := <-r.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}
