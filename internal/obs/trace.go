package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span kinds used across the federation's layers. Kinds are plain
// strings so new layers can add their own without touching this package.
const (
	KindParse     = "parse"     // MSQL script parsing
	KindStatement = "statement" // one MSQL statement's lifecycle
	KindTranslate = "translate" // substitution/disambiguation/decomposition
	KindPlan      = "plan"      // DOL program handed to the statement's result
	KindEngine    = "engine"    // one DOL program execution
	KindTask      = "task"      // one DOL task on one connection
	KindCall      = "call"      // one wire round trip to a LAM
	Kind2PC       = "2pc"       // a 2PC phase: prepare/decision/commit/rollback
	KindRecovery  = "recovery"  // in-doubt resolution
	KindServer    = "server"    // LAM server-side request handling
)

// SpanID identifies a span within its trace. 0 means "no parent".
type SpanID uint64

// Span is one timed operation inside a trace. Spans are created through
// Trace.StartSpan and closed with End/EndErr; all methods are safe to
// call on a nil span, so instrumentation points do not need to branch on
// whether tracing is active.
type Span struct {
	trace *Trace

	id       SpanID
	parent   SpanID
	name     string
	kind     string
	start    time.Time
	end      time.Time
	err      string
	remote   bool
	serverNS int64
	attrs    map[string]string
}

// ID returns the span's id, 0 for a nil span.
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// SetAttr attaches a key/value attribute.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string)
	}
	s.attrs[k] = v
	s.trace.mu.Unlock()
}

// SetServerNS records the server-reported processing time of a call span.
func (s *Span) SetServerNS(ns int64) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	s.serverNS = ns
	s.trace.mu.Unlock()
}

// End closes the span.
func (s *Span) End() { s.EndErr(nil) }

// EndErr closes the span, recording err when non-nil. Ending an already
// ended span keeps the first end time.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
		if err != nil {
			s.err = err.Error()
		}
	}
	s.trace.mu.Unlock()
}

// Trace is one statement execution's collection of spans. Traces are
// created by a Tracer, accumulate spans from any goroutine, and enter
// the tracer's ring buffer when finished.
type Trace struct {
	tracer *Tracer
	id     string
	name   string

	mu       sync.Mutex
	start    time.Time
	end      time.Time
	spans    []*Span
	nextSpan SpanID
	finished bool
}

// ID returns the trace id, propagated over the wire for correlation.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// StartSpan opens a span under the given parent (nil for a root span).
func (t *Trace) StartSpan(name, kind string, parent *Span) *Span {
	return t.StartSpanAt(name, kind, parent.ID(), time.Now())
}

// StartSpanAt opens a span with an explicit parent id and start time —
// the form used when the parent id arrived over the wire.
func (t *Trace) StartSpanAt(name, kind string, parent SpanID, start time.Time) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextSpan++
	s := &Span{trace: t, id: t.nextSpan, parent: parent, name: name, kind: kind, start: start}
	t.spans = append(t.spans, s)
	return s
}

// Finish closes the trace and hands it to the tracer's ring buffer.
// Finishing twice is a no-op.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	t.finished = true
	t.end = time.Now()
	t.mu.Unlock()
	if t.tracer != nil {
		t.tracer.finish(t)
	}
}

// SpanSnapshot is the immutable exported form of a span.
type SpanSnapshot struct {
	ID       uint64            `json:"id"`
	Parent   uint64            `json:"parent,omitempty"`
	Name     string            `json:"name"`
	Kind     string            `json:"kind"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration_ns"`
	Err      string            `json:"err,omitempty"`
	Remote   bool              `json:"remote,omitempty"`
	ServerNS int64             `json:"server_ns,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// TraceSnapshot is the immutable exported form of a trace, served as
// JSON by /debug/traces and rendered by FormatTrace.
type TraceSnapshot struct {
	TraceID  string         `json:"trace_id"`
	Name     string         `json:"name"`
	Start    time.Time      `json:"start"`
	Duration time.Duration  `json:"duration_ns"`
	Finished bool           `json:"finished"`
	Spans    []SpanSnapshot `json:"spans"`
}

// snapshot copies the trace under its lock.
func (t *Trace) snapshot() *TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := &TraceSnapshot{
		TraceID:  t.id,
		Name:     t.name,
		Start:    t.start,
		Finished: t.finished,
	}
	end := t.end
	if end.IsZero() {
		end = time.Now()
	}
	ts.Duration = end.Sub(t.start)
	for _, s := range t.spans {
		ss := SpanSnapshot{
			ID:       uint64(s.id),
			Parent:   uint64(s.parent),
			Name:     s.name,
			Kind:     s.kind,
			Start:    s.start,
			Err:      s.err,
			Remote:   s.remote,
			ServerNS: s.serverNS,
		}
		se := s.end
		if se.IsZero() {
			se = end
		}
		ss.Duration = se.Sub(s.start)
		if len(s.attrs) > 0 {
			ss.Attrs = make(map[string]string, len(s.attrs))
			for k, v := range s.attrs {
				ss.Attrs[k] = v
			}
		}
		ts.Spans = append(ts.Spans, ss)
	}
	return ts
}

// Tracer creates traces and retains the most recent finished ones in a
// bounded ring buffer for /debug/traces and the -trace timing tree.
type Tracer struct {
	mu     sync.Mutex
	cap    int
	byID   map[string]*Trace
	active map[string]*Trace
	done   []*Trace // oldest first
}

// NewTracer returns a tracer keeping up to capacity finished traces
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{
		cap:    capacity,
		byID:   make(map[string]*Trace),
		active: make(map[string]*Trace),
	}
}

// DefaultTracer is the process-wide tracer, sized for interactive
// debugging.
var DefaultTracer = NewTracer(64)

// newTraceID returns a 16-hex-char random id, unique across processes so
// coordinator and LAM server spans correlate.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Start opens a new trace.
func (tr *Tracer) Start(name string) *Trace {
	if tr == nil {
		return nil
	}
	t := &Trace{tracer: tr, id: newTraceID(), name: name, start: time.Now()}
	tr.mu.Lock()
	tr.byID[t.id] = t
	tr.active[t.id] = t
	tr.mu.Unlock()
	return t
}

// finish moves a trace from active to the ring buffer, evicting the
// oldest finished trace beyond capacity.
func (tr *Tracer) finish(t *Trace) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	delete(tr.active, t.id)
	tr.done = append(tr.done, t)
	for len(tr.done) > tr.cap {
		old := tr.done[0]
		tr.done = tr.done[1:]
		delete(tr.byID, old.id)
	}
}

// RecordServerSpan appends a server-side span to the trace with the
// given id. When the id belongs to no local trace — the coordinator runs
// in another process — a synthetic remote trace is created (and counts
// against the ring capacity once finished), so a LAM server's
// /debug/traces still shows its side of every traced statement.
func (tr *Tracer) RecordServerSpan(traceID, name, kind string, parent SpanID, start time.Time, d time.Duration, errMsg string) {
	if tr == nil || traceID == "" {
		return
	}
	tr.mu.Lock()
	t, ok := tr.byID[traceID]
	if !ok {
		t = &Trace{tracer: tr, id: traceID, name: "remote", start: start, finished: true, end: start.Add(d)}
		tr.byID[traceID] = t
		tr.done = append(tr.done, t)
		for len(tr.done) > tr.cap {
			old := tr.done[0]
			tr.done = tr.done[1:]
			delete(tr.byID, old.id)
		}
	}
	tr.mu.Unlock()
	t.mu.Lock()
	t.nextSpan++
	s := &Span{
		trace: t, id: t.nextSpan, parent: parent,
		name: name, kind: kind, start: start, end: start.Add(d),
		remote: true, err: errMsg,
	}
	t.spans = append(t.spans, s)
	if t.finished && t.end.Before(s.end) {
		t.end = s.end
	}
	t.mu.Unlock()
}

// Recent returns up to n finished traces, most recent first.
func (tr *Tracer) Recent(n int) []*TraceSnapshot {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	traces := append([]*Trace(nil), tr.done...)
	tr.mu.Unlock()
	if n <= 0 || n > len(traces) {
		n = len(traces)
	}
	out := make([]*TraceSnapshot, 0, n)
	for i := len(traces) - 1; i >= len(traces)-n; i-- {
		out = append(out, traces[i].snapshot())
	}
	return out
}

// ByID returns a snapshot of the trace with the given id (active or
// finished), nil when unknown.
func (tr *Tracer) ByID(id string) *TraceSnapshot {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	t := tr.byID[id]
	tr.mu.Unlock()
	if t == nil {
		return nil
	}
	return t.snapshot()
}

// --- context propagation ---

type ctxKey int

const (
	traceKey ctxKey = iota
	spanKey
)

// WithTrace attaches a trace to the context; spans started through
// StartSpan land in it.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey, t)
}

// TraceFrom returns the context's trace, nil when none.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey).(*Trace)
	return t
}

// WithSpan attaches the current span to the context so child spans —
// including wire call spans in other packages — parent under it.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey, s)
}

// SpanFrom returns the context's current span, nil when none.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// StartSpan opens a span in the context's trace, parented under the
// context's current span, and returns the span plus a context carrying
// it. With no trace in the context it returns (nil, ctx) — every Span
// method is nil-safe, so call sites need no branches.
func StartSpan(ctx context.Context, name, kind string) (*Span, context.Context) {
	t := TraceFrom(ctx)
	if t == nil {
		return nil, ctx
	}
	s := t.StartSpan(name, kind, SpanFrom(ctx))
	return s, WithSpan(ctx, s)
}

// --- timing tree rendering ---

// FormatTrace renders a snapshot as an indented per-span timing tree —
// the EXPLAIN ANALYZE-style view printed by msql -trace. Spans appear
// under their parents (unknown parents fall back to the root), siblings
// in start order; call spans with a server-side measurement show it.
func FormatTrace(ts *TraceSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s %s  %s\n", ts.TraceID, ts.Name, fmtDur(ts.Duration))
	children := make(map[uint64][]SpanSnapshot)
	known := make(map[uint64]bool, len(ts.Spans))
	for _, s := range ts.Spans {
		known[s.ID] = true
	}
	for _, s := range ts.Spans {
		p := s.Parent
		if p != 0 && !known[p] {
			p = 0 // orphan (e.g. remote parent in another process)
		}
		children[p] = append(children[p], s)
	}
	for _, kids := range children {
		sort.SliceStable(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	}
	var walk func(id uint64, depth int)
	walk = func(id uint64, depth int) {
		for _, s := range children[id] {
			b.WriteString(strings.Repeat("  ", depth+1))
			fmt.Fprintf(&b, "%-10s %s", s.Kind, s.Name)
			if site := s.Attrs["site"]; site != "" {
				fmt.Fprintf(&b, " @%s", site)
			}
			fmt.Fprintf(&b, "  %s", fmtDur(s.Duration))
			if s.ServerNS > 0 {
				fmt.Fprintf(&b, " (server %s)", fmtDur(time.Duration(s.ServerNS)))
			}
			if s.Remote {
				b.WriteString(" [remote]")
			}
			if s.Err != "" {
				fmt.Fprintf(&b, " ERR=%s", s.Err)
			}
			b.WriteByte('\n')
			walk(s.ID, depth+1)
		}
	}
	walk(0, 0)
	return b.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1000)
	}
}
