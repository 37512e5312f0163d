package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"msql/internal/lam"
	"msql/internal/ldbms"
	"msql/internal/obs"
	"msql/internal/sqlengine"
)

// The probe times the LAM layer from outside the program: in a traced
// run every client the federation reaches is a probeClient registered
// with Federation.RegisterClient, and every session it opens is wrapped
// too; it records only while the recorder is on.
// Calls are attributed to the script that made them by the trace id the
// coordinator already threads through the context; calls on a session
// inherit the id of the Open that created it, because commit decisions
// may travel on a context without it.

// call is one timed LAM call.
type call struct {
	trace      string
	site       string
	name       string // open, exec, prepare, commit, rollback, state, close
	start, end time.Time
	sql        string
	rows       int
	err        bool
}

// recorder keeps the calls of the traced phase in memory.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	calls []call
}

func (r *recorder) add(c call) {
	r.mu.Lock()
	r.calls = append(r.calls, c)
	r.mu.Unlock()
}

// take returns and clears the recorded calls.
func (r *recorder) take() []call {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.calls
	r.calls = nil
	return out
}

type probeClient struct {
	lam.Client
	site string
	rec  *recorder
}

func (c *probeClient) Open(ctx context.Context, db string) (lam.Session, error) {
	if !c.rec.on.Load() {
		return c.Client.Open(ctx, db)
	}
	id := obs.TraceFrom(ctx).ID()
	start := time.Now()
	s, err := c.Client.Open(ctx, db)
	c.rec.add(call{trace: id, site: c.site, name: "open", start: start, end: time.Now(), err: err != nil})
	if err != nil {
		return nil, err
	}
	return &probeSession{Session: s, trace: id, site: c.site, rec: c.rec}, nil
}

type probeSession struct {
	lam.Session
	trace, site string
	rec         *recorder
}

func (s *probeSession) timed(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	s.rec.add(call{trace: s.trace, site: s.site, name: name, start: start, end: time.Now(), err: err != nil})
	return err
}

func (s *probeSession) Exec(ctx context.Context, sql string) (*sqlengine.Result, error) {
	start := time.Now()
	res, err := s.Session.Exec(ctx, sql)
	c := call{trace: s.trace, site: s.site, name: "exec", start: start, end: time.Now(), sql: sql, err: err != nil}
	if res != nil {
		c.rows = len(res.Rows)
	}
	s.rec.add(c)
	return res, err
}

func (s *probeSession) Prepare(ctx context.Context) error {
	return s.timed("prepare", func() error { return s.Session.Prepare(ctx) })
}

func (s *probeSession) Commit(ctx context.Context) error {
	return s.timed("commit", func() error { return s.Session.Commit(ctx) })
}

func (s *probeSession) Rollback(ctx context.Context) error {
	return s.timed("rollback", func() error { return s.Session.Rollback(ctx) })
}

func (s *probeSession) State(ctx context.Context) (ldbms.SessionState, error) {
	var st ldbms.SessionState
	err := s.timed("state", func() (err error) { st, err = s.Session.State(ctx); return err })
	return st, err
}

func (s *probeSession) Close() error {
	return s.timed("close", s.Session.Close)
}

// RecoveryInfo forwards the in-doubt handle of a remote session; the
// engine journals it and treats an empty address as not recoverable.
func (s *probeSession) RecoveryInfo() (string, int64) {
	if r, ok := s.Session.(lam.Recoverable); ok {
		return r.RecoveryInfo()
	}
	return "", 0
}
