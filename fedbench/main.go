// Command fedbench is the federation's benchmark. It stands up one of
// three workloads in-process, drives it closed-loop for a fixed time,
// checks every answer and every site's final state against a model
// built from the seeded inputs, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer breakdown) ending in one JSON line.
//
//	go build -o fedbench . && ./fedbench -workload read-inproc -seed 1 -seconds 10 -trace 0
//
// NOTES.md in this directory says what each workload and metric is for.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setups is how many times a run stands its federation up; setup_s is
// the median.
const setups = 11

func main() {
	workloadName := flag.String("workload", "read-inproc", "read-inproc, vital-tcp-durable or join-scan-disk")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
	out := flag.String("out", ".bench_build/fedbench", "directory for data files and the span dump")
	flag.Parse()
	if err := run(*workloadName, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		os.Exit(1)
	}
}

// report is the run's last stdout line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checker counts correctness failures across a run.
type checker struct {
	mu       sync.Mutex
	failures []string
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.failures) < 20 {
		fmt.Fprintf(os.Stderr, "MISMATCH: "+format+"\n", args...)
	}
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

func (c *checker) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.failures)
}

func run(name string, seed int64, dur time.Duration, traced bool, out string) error {
	if _, err := newWorkload(name, seed); err != nil {
		return err
	}
	chk := &checker{}
	digest, err := checkDeterminism(name, seed)
	if err != nil {
		chk.fail("%v", err)
	}
	fmt.Printf("workload %s seed %d input digest %s (same seed twice: identical; seed %d: different)\n",
		name, seed, digest, seed+1)

	dataDir := filepath.Join(out, fmt.Sprintf("data-%d", os.Getpid()))
	defer os.RemoveAll(dataDir)
	var rec *recorder
	if traced {
		rec = &recorder{}
	}

	// Stand the federation up several times and measure the last one. A
	// traced join-scan-disk run also traces its counted window on the
	// second-to-last one: the counts must repeat exactly.
	exact := traced && name == "join-scan-disk"
	var setupTimes []float64
	var counts []countSet
	var e *env
	var m *model
	for i := 0; i < setups; i++ {
		w, _ := newWorkload(name, seed)
		// Collect the previous set-up's garbage now rather than during
		// this one.
		runtime.GC()
		start := time.Now()
		ei, err := setup(w, filepath.Join(dataDir, fmt.Sprint(i)), rec)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if i == setups-1 || (exact && i == setups-2) {
			e, m = ei, newModel(w)
			runPhase(e, m, chk, 0, w.warmup, false)
		}
		if i < setups-1 {
			if exact && i == setups-2 {
				counts = append(counts, tracePhase(e, m, chk, rec, 0, joinCountedOps).counts)
				finalCheck(e, m, chk)
			}
			discard(ei)
		}
	}
	defer e.close()

	if traced {
		var lt *layerTrace
		if exact {
			lt = tracePhase(e, m, chk, rec, 0, joinCountedOps)
			counts = append(counts, lt.counts)
		} else {
			lt = tracePhase(e, m, chk, rec, dur/2, 0)
		}
		return finishTraced(name, seed, e, m, chk, lt, dur, counts, out)
	}

	ph := runPhase(e, m, chk, dur, 0, false)
	finalCheck(e, m, chk)
	metrics, blocks := endToEnd(ph, setupTimes)
	fmt.Printf("set-up times (s): %.4f\n", setupTimes)
	metrics["failed_ratio"] = metric{float64(chk.count()) / float64(max(1, ph.attempted)), "ratio"}
	printMetrics(metrics)
	fmt.Printf("%d ops; tail_ms is the median p%d of %d blocks of %d ops; %d ops failed\n",
		ph.attempted, tailPct, blocks, tailBlock, chk.count())
	// The report carries the metrics that stay within their bounds
	// between runs on a shared host whose CPUs slow down and speed up
	// with its neighbours' load (NOTES.md). The CPU, latency and
	// throughput metrics follow that load and are in the traced report;
	// failed_ratio travels as failed/attempted.
	reported := map[string]metric{}
	for _, k := range []string{"setup_s", "peak_rss_mb"} {
		reported[k] = metrics[k]
	}
	return emit(report{Correct: chk.count() == 0, Attempted: ph.attempted, Failed: chk.count(), Metrics: reported})
}

// discard closes a set-up federation that will not be measured and
// returns its memory, so peak RSS reflects one federation.
func discard(e *env) {
	e.close()
	debug.FreeOSMemory()
}

// tracePhase runs one phase with the LAM probe recording, for dur or
// for count ops per session, and breaks it down by layer.
func tracePhase(e *env, m *model, chk *checker, rec *recorder, dur time.Duration, count int) *layerTrace {
	rec.on.Store(true)
	before := snapshotCounters(e)
	ph := runPhase(e, m, chk, dur, count, true)
	rec.on.Store(false)
	return layers(e, ph, before, rec.take())
}

// joinCountedOps is the length of join-scan-disk's counted window.
const joinCountedOps = 60

// finishTraced runs the untraced half for the tracing overhead, checks
// the final state and the repeated counts, and reports the per-layer
// metrics.
func finishTraced(name string, seed int64, e *env, m *model, chk *checker, lt *layerTrace,
	dur time.Duration, counts []countSet, out string) error {
	plain := runPhase(e, m, chk, dur/2, 0, false)
	finalCheck(e, m, chk)
	for _, err := range lt.rerunErrs {
		chk.fail("front-end re-run: %v", err)
	}
	if len(counts) == 2 && counts[0] != counts[1] {
		chk.fail("join-scan-disk counts differ between two setups of seed %d: %+v vs %+v", seed, counts[0], counts[1])
	}
	if len(counts) == 2 {
		fmt.Printf("counted window of %d ops repeated exactly on a second setup: %+v\n", joinCountedOps, counts[0])
	}
	lt.metrics["trace.untraced_ops_per_s"] = metric{plain.opsPerSec(), "1/s"}
	lt.metrics["trace.overhead_pct"] = metric{100 * (1 - lt.metrics["trace.ops_per_s"].Value/plain.opsPerSec()), "%"}
	for _, k := range kinds {
		lt.metrics["e2e."+k+"_p50_ms"] = metric{plain.p50(k), "ms"}
	}
	tail, _ := plain.tail()
	lt.metrics["e2e.tail_ms"] = metric{tail, "ms"}
	lt.metrics["e2e.p50_ms"] = metric{plain.p50(""), "ms"}
	lt.metrics["e2e.cpu_ms_per_op"] = metric{plain.cpuPerOp(), "ms"}
	lt.metrics["e2e.failed_ratio"] = metric{float64(chk.count()) / float64(max(1, plain.attempted+lt.phase.attempted)), "ratio"}
	printMetrics(lt.metrics)
	path := filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
	if err := lt.writeSpans(path); err != nil {
		return err
	}
	fmt.Printf("spans of the first %d traced ops written to %s\n", spanOps, path)
	attempted := lt.phase.attempted + plain.attempted
	return emit(report{Correct: chk.count() == 0, Attempted: attempted, Failed: chk.count(), Metrics: lt.metrics})
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-36s %14.4f %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

func emit(r report) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !r.Correct {
		return fmt.Errorf("%d correctness failures", r.Failed)
	}
	return nil
}

// ---------------------------------------------------------------------
// Closed-loop phases.

// sample is one op of a traced phase: its start as an offset from the
// phase start, its latency, its script and its trace id. Untraced
// phases keep no per-op record, so the memory the benchmark holds for
// its latencies does not grow with the op count and peak_rss_mb is the
// federation's.
type sample struct {
	off, dur time.Duration
	kind     string
	sess     int
	script   string
	trace    string
}

type phase struct {
	start     time.Time
	samples   []sample // traced phases only
	lat       *latencies
	rss       []float64 // resident set in MB, sampled every rssEvery
	attempted int
	elapsed   time.Duration
	cpu       time.Duration // process CPU time, user and system
	userBytes int
}

// rssEvery is the resident-set sampling period.
const rssEvery = 50 * time.Millisecond

// runPhase runs every session closed-loop until dur has passed (dur > 0)
// or each session has run count ops (count > 0). Traced phases keep each
// op's script for the out-of-band front-end re-run.
func runPhase(e *env, m *model, chk *checker, dur time.Duration, count int, traced bool) *phase {
	cpu0 := cpuTime()
	ph := &phase{start: time.Now(), lat: newLatencies()}
	deadline := ph.start.Add(dur)
	var mu sync.Mutex
	var wg sync.WaitGroup
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				// Only while the sessions run, not while they hand over
				// their results.
				if count > 0 || now.Before(deadline) {
					ph.rss = append(ph.rss, rssMB())
				}
			}
		}
	}()
	for i, r := range e.runners {
		wg.Add(1)
		go func(i int, r runner) {
			defer wg.Done()
			var local []sample
			lat := newLatencies()
			n, user := 0, 0
			for ; (count > 0 && n < count) || (count == 0 && time.Now().Before(deadline)); n++ {
				o := e.w.streams[i]()
				var want []string
				if o.read != nil {
					want = m.rows(*o.read)
				}
				t0 := time.Now()
				res, err := r.run(context.Background(), o.script)
				t1 := time.Now()
				user += m.check(chk, o, want, res, err)
				lat.add(o.kind, t1.Sub(t0))
				if traced {
					local = append(local, sample{off: t0.Sub(ph.start), dur: t1.Sub(t0), kind: o.kind, sess: i,
						script: o.script, trace: traceOf(res)})
				}
			}
			mu.Lock()
			ph.samples = append(ph.samples, local...)
			ph.lat.merge(lat)
			ph.attempted += n
			ph.userBytes += user
			mu.Unlock()
		}(i, r)
	}
	wg.Wait()
	ph.elapsed = time.Since(ph.start)
	ph.cpu = cpuTime() - cpu0
	close(stop)
	<-sampled
	return ph
}

func traceOf(o *outcome) string {
	if o == nil {
		return ""
	}
	return o.trace
}

func (ph *phase) opsPerSec() float64 { return float64(ph.attempted) / ph.elapsed.Seconds() }

func (ph *phase) cpuPerOp() float64 {
	return float64(ph.cpu.Microseconds()) / 1e3 / float64(max(1, ph.attempted))
}

// kinds are the op kinds that get their own median.
var kinds = []string{"select", "vital", "comp", "multitx", "join", "scan"}

// pct is the nearest-rank percentile of sorted values.
func pct(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p/100*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// p50 is the median latency in ms of one kind ("" = all), 0 where the
// kind did not occur.
func (ph *phase) p50(kind string) float64 { return ph.lat.byKind[kind].quantile(50) }

// tailBlock is the op count of one tail block. In 200 ops p95 is the
// highest percentile with ten samples beyond it, so tail_ms is p95 on
// every workload whatever its throughput.
const (
	tailBlock = 200
	tailPct   = 95
)

// tail is the median over the blocks of tailBlock consecutive ops of one
// session of each block's tailPct latency. Outside load on the shared
// host, which comes and goes, reaches few blocks' tails.
func (ph *phase) tail() (ms float64, blocks int) {
	return median(ph.lat.blockTails), len(ph.lat.blockTails)
}

func endToEnd(ph *phase, setupTimes []float64) (map[string]metric, int) {
	tail, blocks := ph.tail()
	ms := map[string]metric{
		"setup_s":       {median(setupTimes), "s"},
		"ops_per_s":     {ph.opsPerSec(), "1/s"},
		"p50_ms":        {ph.p50(""), "ms"},
		"tail_ms":       {tail, "ms"},
		"peak_rss_mb":   {slices.Max(append(ph.rss, 0)), "MB"},
		"cpu_ms_per_op": {ph.cpuPerOp(), "ms"},
	}
	// Per-kind medians, where that kind occurs in the workload.
	for _, k := range kinds {
		if ph.lat.byKind[k] != nil {
			ms[k+"_p50_ms"] = metric{ph.p50(k), "ms"}
		}
	}
	return ms, blocks
}

// latencies summarizes op latencies in memory that does not grow with
// the op count: a histogram per kind and the tail of each block.
type latencies struct {
	byKind     map[string]*hist // "" holds every kind
	block      []float64        // the current block's latencies, ms
	blockTails []float64        // tailPct latency of each full block
}

func newLatencies() *latencies { return &latencies{byKind: map[string]*hist{}} }

func (l *latencies) add(kind string, d time.Duration) {
	ms := float64(d.Nanoseconds()) / 1e6
	for _, k := range []string{"", kind} {
		h := l.byKind[k]
		if h == nil {
			h = &hist{}
			l.byKind[k] = h
		}
		h.add(ms)
	}
	l.block = append(l.block, ms)
	if len(l.block) == tailBlock {
		sort.Float64s(l.block)
		l.blockTails = append(l.blockTails, pct(l.block, tailPct))
		l.block = l.block[:0]
	}
}

func (l *latencies) merge(o *latencies) {
	for k, h := range o.byKind {
		if l.byKind[k] == nil {
			l.byKind[k] = &hist{}
		}
		l.byKind[k].merge(h)
	}
	l.blockTails = append(l.blockTails, o.blockTails...)
}

// hist is a latency histogram with logarithmic buckets: bucket i holds
// latencies from histMin·histGrowth^i up to the next bucket's start.
type hist struct {
	n      int
	counts [histBuckets]int
}

const (
	histMin     = 1e-3 // ms
	histGrowth  = 1.005
	histBuckets = 4000 // up to about 480 s
)

func (h *hist) add(ms float64) {
	i := 0
	if ms > histMin {
		i = min(int(math.Log(ms/histMin)/math.Log(histGrowth)), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// quantile is the nearest-rank percentile p, placed within its bucket
// by its rank among the bucket's latencies.
func (h *hist) quantile(p float64) float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	rank := min(max(int(p/100*float64(h.n)+0.5), 1), h.n)
	seen := 0
	for i, c := range h.counts {
		if seen+c >= rank {
			frac := (float64(rank-seen) - 0.5) / float64(c)
			return histMin * math.Pow(histGrowth, float64(i)+frac)
		}
		seen += c
	}
	return 0
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB reads the process's current resident set size.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			var kb float64
			fmt.Sscanf(v, "%g", &kb)
			return kb / 1024
		}
	}
	return 0
}
