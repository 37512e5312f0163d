package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"msql/internal/decompose"
	"msql/internal/dol"
	"msql/internal/ldbms"
	"msql/internal/msqlparser"
	"msql/internal/obs"
	"msql/internal/semvar"
	"msql/internal/sqlparser"
	"msql/internal/storage"
	"msql/internal/translate"
)

// counters is a snapshot of every counter the program already exposes.
type counters struct {
	ldbms          ldbms.Stats
	pool           storage.PoolStats
	syncs, fsyncs  int64
	obs            map[string]any
	io             map[string]int64
	mallocs, bytes uint64
	gcCPU, allCPU  float64
}

func snapshotCounters(e *env) counters {
	c := counters{ldbms: ldbmsTotals(e), obs: obs.Default().Snapshot(), io: procIO()}
	for _, st := range e.stores {
		p := st.Pool().Stats()
		c.pool.Hits += p.Hits
		c.pool.Misses += p.Misses
		c.pool.Evictions += p.Evictions
		c.pool.Flushes += p.Flushes
	}
	if e.journal != nil {
		c.syncs, c.fsyncs = e.journal.SyncStats()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.bytes = ms.Mallocs, ms.TotalAlloc
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU, c.allCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return c
}

// ldbmsTotals sums the operation counters of every site.
func ldbmsTotals(e *env) ldbms.Stats {
	var t ldbms.Stats
	for _, srv := range e.servers {
		s := srv.Stats()
		t.Execs += s.Execs
		t.Commits += s.Commits
		t.SilentCommits += s.SilentCommits
		t.Rollbacks += s.Rollbacks
		t.Prepares += s.Prepares
	}
	return t
}

// procIO reads the process's I/O accounting.
func procIO() map[string]int64 {
	out := map[string]int64{}
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return out
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			out[k] = n
		}
	}
	return out
}

// histo returns the summed count and seconds of a histogram (or of
// every label set of a histogram vector) in an obs snapshot.
func histo(snap map[string]any, name string) (count int64, sum float64) {
	h, _ := snap[name].(map[string]any)
	hs := []map[string]any{h}
	if _, ok := h["count"]; !ok { // a vector: one histogram per label set
		hs = nil
		for _, sub := range h {
			if x, ok := sub.(map[string]any); ok {
				hs = append(hs, x)
			}
		}
	}
	for _, x := range hs {
		if c, ok := x["count"].(int64); ok {
			count += c
			sum += x["sum"].(float64)
		}
	}
	return count, sum
}

// meanDelta is the mean of a histogram's observations between two
// snapshots, in the given unit per second.
func meanDelta(a, b map[string]any, name string, scale float64) float64 {
	c0, s0 := histo(a, name)
	c1, s1 := histo(b, name)
	if c1 == c0 {
		return 0
	}
	return (s1 - s0) / float64(c1-c0) * scale
}

// countSet holds the join-scan-disk counts that must repeat exactly.
type countSet struct {
	Open, Exec, Prepare, Commit, Rollback int
	ResultRows, SQLBytes                  int
	PoolMisses                            int64
}

// layerTrace is the traced phase's breakdown.
type layerTrace struct {
	phase   *phase
	counts  countSet
	metrics map[string]metric
	ops     map[int][]call      // LAM calls by sample index
	stages  map[int][]stageSpan // re-run front-end stages by sample index
	// rerunErrs are errors of the out-of-band front-end re-run; any one
	// means the re-run did not retrace the path the ops took.
	rerunErrs []error
}

type stageSpan struct {
	name       string
	start, end time.Time
}

// spanOps caps how many traced ops the span dump holds.
const spanOps = 500

// layers turns the traced phase into per-layer metrics.
func layers(e *env, ph *phase, before counters, calls []call) *layerTrace {
	after := snapshotCounters(e)
	ops := float64(max(1, ph.attempted))
	lt := &layerTrace{phase: ph, metrics: map[string]metric{}, stages: map[int][]stageSpan{}}
	put := func(name string, v float64, unit string) { lt.metrics[name] = metric{v, unit} }

	// LAM calls.
	n := map[string]int{}
	dur := map[string]time.Duration{}
	errs := 0
	for _, c := range calls {
		n[c.name]++
		if c.err {
			errs++
		}
		dur[c.name] += c.end.Sub(c.start)
		lt.counts.ResultRows += c.rows
		lt.counts.SQLBytes += len(c.sql)
	}
	lt.counts.Open, lt.counts.Exec, lt.counts.Prepare = n["open"], n["exec"], n["prepare"]
	lt.counts.Commit, lt.counts.Rollback = n["commit"], n["rollback"]
	for _, k := range []string{"open", "exec", "prepare", "commit", "rollback"} {
		put("lam.calls_per_op."+k, float64(n[k])/ops, "count")
	}
	for _, k := range []string{"open", "exec", "prepare", "commit"} {
		v := 0.0
		if n[k] > 0 {
			v = float64(dur[k].Microseconds()) / float64(n[k])
		}
		put("lam."+k+"_us", v, "us")
	}
	put("lam.errors_per_op", float64(errs)/ops, "count")
	put("lam.sql_bytes_per_op", float64(lt.counts.SQLBytes)/ops, "B")
	put("lam.result_rows_per_op", float64(lt.counts.ResultRows)/ops, "count")

	// Coordinator self time: each op's wall time minus the union of its
	// LAM call intervals.
	lt.ops = e.attribute(ph, calls)
	var self, crit time.Duration
	for i, s := range ph.samples {
		start := ph.start.Add(s.off)
		u := union(lt.ops[i], start, start.Add(s.dur))
		crit += u
		self += s.dur - u
	}
	put("coord.self_us", float64(self.Microseconds())/ops, "us")
	put("coord.attributed_ratio", float64(len(lt.ops))/ops, "ratio")
	put("coord.lam_critical_us", float64(crit.Microseconds())/ops, "us")
	put("wire.hop_us", meanDelta(before.obs, after.obs, "msql_site_call_seconds", 1e6)-
		meanDelta(before.obs, after.obs, "msql_server_request_seconds", 1e6), "us")
	put("ldbms.request_us", meanDelta(before.obs, after.obs, "msql_server_request_seconds", 1e6), "us")

	// Local DBMS and storage counters.
	put("ldbms.execs_per_op", float64(after.ldbms.Execs-before.ldbms.Execs)/ops, "count")
	put("ldbms.commits_per_op", float64(after.ldbms.Commits-before.ldbms.Commits)/ops, "count")
	put("ldbms.prepares_per_op", float64(after.ldbms.Prepares-before.ldbms.Prepares)/ops, "count")
	put("ldbms.rollbacks_per_op", float64(after.ldbms.Rollbacks-before.ldbms.Rollbacks)/ops, "count")
	hits := after.pool.Hits - before.pool.Hits
	misses := after.pool.Misses - before.pool.Misses
	lt.counts.PoolMisses = misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	put("storage.pool_hit_ratio", ratio, "ratio")
	put("storage.pool_misses_per_op", float64(misses)/ops, "count")
	put("storage.pool_evictions_per_op", float64(after.pool.Evictions-before.pool.Evictions)/ops, "count")
	put("storage.pool_flushes_per_op", float64(after.pool.Flushes-before.pool.Flushes)/ops, "count")
	wb := after.io["write_bytes"] - before.io["write_bytes"]
	put("storage.write_bytes_per_op", float64(wb)/ops, "B")
	perUser := 0.0
	if ph.userBytes > 0 {
		perUser = float64(wb) / float64(ph.userBytes)
	}
	put("storage.write_bytes_per_user_byte", perUser, "ratio")

	// Coordinator and participant journals.
	fs := after.fsyncs - before.fsyncs
	put("mtlog.fsyncs_per_op", float64(fs)/ops, "count")
	dpf := 0.0
	if fs > 0 {
		dpf = float64(after.syncs-before.syncs) / float64(fs)
	}
	put("mtlog.decisions_per_fsync", dpf, "ratio")
	put("mtlog.fsync_ms", meanDelta(before.obs, after.obs, "msql_journal_fsync_seconds", 1e3), "ms")
	put("mtlog.participant_fsync_ms", meanDelta(before.obs, after.obs, "msql_lam_journal_fsync_seconds", 1e3), "ms")

	// Go runtime.
	put("go.allocs_per_op", float64(after.mallocs-before.mallocs)/ops, "count")
	put("go.alloc_kb_per_op", float64(after.bytes-before.bytes)/1024/ops, "KiB")
	gc := 0.0
	if d := after.allCPU - before.allCPU; d > 0 {
		gc = (after.gcCPU - before.gcCPU) / d
	}
	put("go.gc_cpu_fraction", gc, "ratio")
	put("trace.ops_per_s", ph.opsPerSec(), "1/s")

	// Front-end stages and the deparse/re-parse hop, re-run out of band
	// on each op's inputs after the phase so they never touch the run.
	fe := lt.rerunFrontEnd(e, ph)
	for _, k := range []string{"msqlparser.parse_us", "semvar.expand_us", "decompose.decompose_us",
		"translate.translate_us", "translate.dol_print_us"} {
		put(k, fe[k], "us")
	}
	var dep, rep time.Duration
	for _, c := range calls {
		if c.sql == "" {
			continue
		}
		t0 := time.Now()
		stmt, err := sqlparser.ParseStatement(c.sql)
		t1 := time.Now()
		if err != nil {
			continue
		}
		_ = sqlparser.Deparse(stmt)
		dep += time.Since(t1)
		rep += t1.Sub(t0)
	}
	put("sqlparser.deparse_us_per_op", float64(dep.Nanoseconds())/1e3/ops, "us")
	put("sqlparser.reparse_us_per_op", float64(rep.Nanoseconds())/1e3/ops, "us")
	return lt
}

// attribute maps each sample to its LAM calls by trace id. Scripts run
// through the coordinator server do not report their trace id, so those
// traces are matched to the session owning the tables they touched and
// to that session's op whose interval holds the trace's first call.
func (e *env) attribute(ph *phase, calls []call) map[int][]call {
	byTrace := map[string][]call{}
	for _, c := range calls {
		byTrace[c.trace] = append(byTrace[c.trace], c)
	}
	out := map[int][]call{}
	idx := map[string]int{}
	bySess := map[int][]int{}
	for i, s := range ph.samples {
		if s.trace != "" {
			idx[s.trace] = i
		}
		bySess[s.sess] = append(bySess[s.sess], i)
	}
	for id, cs := range byTrace {
		if i, ok := idx[id]; ok {
			out[i] = cs
			continue
		}
		sess := sessionOf(cs)
		if sess < 0 {
			continue
		}
		first := cs[0].start
		for _, c := range cs {
			if c.start.Before(first) {
				first = c.start
			}
		}
		for _, i := range bySess[sess] {
			s := ph.samples[i]
			start := ph.start.Add(s.off)
			if !first.Before(start) && !first.After(start.Add(s.dur)) {
				out[i] = append(out[i], cs...)
				break
			}
		}
	}
	return out
}

// sessionOf names the session whose sites a trace's calls reached: in
// vital-tcp-durable each session owns the sites whose names end in its
// index (-1 when the calls name no such site).
func sessionOf(cs []call) int {
	for _, c := range cs {
		if n := len(c.site); n > 0 && c.site[n-1] >= '0' && c.site[n-1] <= '9' {
			return int(c.site[n-1] - '0')
		}
	}
	return -1
}

// union is the length of the union of the calls' intervals clipped to
// [lo, hi].
func union(cs []call, lo, hi time.Time) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range cs {
		a, b := c.start, c.end
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		if i == 0 || v.a.After(cur.b) {
			total += cur.b.Sub(cur.a)
			cur = v
			continue
		}
		if v.b.After(cur.b) {
			cur.b = v.b
		}
	}
	total += cur.b.Sub(cur.a)
	return total
}

// frontEndOps caps how many ops the front-end stages are re-run on.
const frontEndOps = 2000

// rerunFrontEnd re-runs parse, expansion, decomposition, translation and
// DOL printing on each traced op's script, walking the script the way a
// coordinator session does, and returns mean microseconds per op.
func (lt *layerTrace) rerunFrontEnd(e *env, ph *phase) map[string]float64 {
	tc := &translate.Context{AD: e.fed.AD, GDD: e.fed.GDD}
	total := map[string]time.Duration{}
	n := 0
	for _, s := range ph.samples {
		if n == frontEndOps {
			break
		}
		n++
		var spans []stageSpan
		timed := func(name string, fn func()) {
			t0 := time.Now()
			fn()
			t1 := time.Now()
			total[name] += t1.Sub(t0)
			spans = append(spans, stageSpan{name, t0, t1})
		}
		var script *msqlparser.Script
		var err error
		timed("msqlparser.parse_us", func() { script, err = msqlparser.Parse(s.script) })
		if err != nil {
			lt.rerunErrs = append(lt.rerunErrs, err)
			continue
		}
		fail := func(err error) {
			if err != nil {
				lt.rerunErrs = append(lt.rerunErrs, err)
			}
		}
		var scope []semvar.ScopeEntry
		var lets []msqlparser.LetBinding
		var unit []translate.UnitQuery
		print := func(p *dol.Program) {
			if p != nil {
				timed("translate.dol_print_us", func() { _ = dol.Print(p) })
			}
		}
		flush := func() {
			if len(unit) == 0 {
				return
			}
			var p *dol.Program
			timed("translate.translate_us", func() { p, _, err = tc.TranslateUnit(scope, unit, translate.SyncCommit) })
			fail(err)
			print(p)
			unit = nil
		}
		expand := func(scope []semvar.ScopeEntry, lets []msqlparser.LetBinding, q *msqlparser.QueryStmt) {
			var res *semvar.Result
			timed("semvar.expand_us", func() { res, err = semvar.Expand(tc.GDD, scope, lets, q.Body) })
			fail(err)
			if res != nil && len(res.Queries) == 1 && res.Queries[0].Global {
				timed("decompose.decompose_us", func() { _, err = decompose.Decompose(tc.GDD, res.Queries[0]) })
				fail(err)
			}
		}
		for _, st := range script.Stmts {
			switch x := st.(type) {
			case *msqlparser.UseStmt:
				flush()
				scope, lets = semvar.ScopeFromUse(x), nil
			case *msqlparser.LetStmt:
				lets = append(lets, x.Bindings...)
			case *msqlparser.QueryStmt:
				expand(scope, lets, x)
				if _, isSel := x.Body.(*sqlparser.SelectStmt); isSel || semvar.IsGlobalQuery(x.Body, scope) {
					var p *dol.Program
					timed("translate.translate_us", func() { p, _, err = tc.TranslateQuery(scope, lets, x) })
					fail(err)
					print(p)
					continue
				}
				unit = append(unit, translate.UnitQuery{Lets: lets, Query: x})
			case *msqlparser.CommitStmt:
				flush()
			case *msqlparser.MultiTxStmt:
				flush()
				var sc []semvar.ScopeEntry
				for _, b := range x.Body {
					switch y := b.(type) {
					case *msqlparser.UseStmt:
						sc = semvar.ScopeFromUse(y)
					case *msqlparser.QueryStmt:
						expand(sc, nil, y)
					}
				}
				var p *dol.Program
				timed("translate.translate_us", func() { p, _, err = tc.TranslateMultiTx(x) })
				fail(err)
				print(p)
			}
		}
		flush()
		if n-1 < spanOps {
			lt.stages[n-1] = spans
		}
	}
	out := map[string]float64{}
	for k, d := range total {
		out[k] = float64(d.Nanoseconds()) / 1e3 / float64(max(1, n))
	}
	return out
}

// spanRec is one line of the span dump.
type spanRec struct {
	Op      int    `json:"op"`
	Trace   string `json:"trace,omitempty"`
	Name    string `json:"name"`
	Kind    string `json:"kind,omitempty"` // op kind, on op spans
	Site    string `json:"site,omitempty"`
	Parent  string `json:"parent,omitempty"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	// OutOfBand marks front-end stages re-run after the phase on the
	// op's inputs; their start is relative to the re-run, not the op.
	OutOfBand bool `json:"out_of_band,omitempty"`
}

// writeSpans dumps an op root span per script with its lam.<call>
// children and out-of-band stage.<module> spans, for the first spanOps
// ops of the traced phase.
func (lt *layerTrace) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, s := range lt.phase.samples {
		if i == spanOps {
			break
		}
		t0 := lt.phase.start.Add(s.off)
		recs := []spanRec{{Op: i, Trace: s.trace, Name: "op", Kind: s.kind, DurUS: s.dur.Microseconds()}}
		for _, c := range lt.ops[i] {
			recs = append(recs, spanRec{Op: i, Trace: c.trace, Name: "lam." + c.name, Site: c.site, Parent: "op",
				StartUS: c.start.Sub(t0).Microseconds(), DurUS: c.end.Sub(c.start).Microseconds()})
		}
		if st := lt.stages[i]; len(st) > 0 {
			base := st[0].start
			for _, x := range st {
				recs = append(recs, spanRec{Op: i, Name: "stage." + strings.TrimSuffix(x.name, "_us"), Parent: "op",
					StartUS: x.start.Sub(base).Microseconds(), DurUS: x.end.Sub(x.start).Microseconds(), OutOfBand: true})
			}
		}
		for _, r := range recs {
			if err := enc.Encode(r); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
