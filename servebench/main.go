// Command servebench is the repository's benchmark of the serving stack.
// It drives the real internal/server HTTP stack in-process over loopback:
// a pool of two Blueprint workers, two closed-loop clients that each own
// one keep-alive connection, GOMAXPROCS at its default. Every reply is
// verified. It runs one named workload (see workload.go), or all three
// with -workload all:
//
//	servebench -workload sign-durable -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it prints the end-to-end metrics of the served run. With
// -trace 1 it splits the window between a served run (for counts and the
// untraced mean latency) and a traced run that replays the workload
// without HTTP, calling each layer's public functions in the handlers'
// order and timing each call from here; it prints the per-layer metrics.
// The last line of standard output is one JSON object; a readable report
// goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
)

// config is one benchmark run.
type config struct {
	w      workload
	seed   int64
	window time.Duration // measured time; split in two when tracing
	warmup time.Duration // unmeasured load before each measured phase
	setups int           // set-ups timed; setup_s is their median
	trace  bool
	dir    string // parent of the run's scratch directory ("" = system temp)
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is a finished run.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	reportOnly        []metric // in the readable report, not in the JSON result
	notes             []string // what failed, for the report
}

func main() {
	name := flag.String("workload", "", "attest | sign-durable | sign-batched | all")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs and of the boards")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	dir := flag.String("dir", "", "directory for the run's state dirs (default: the system temp dir)")
	flag.Parse()
	names := []string{*name}
	if *name == "all" {
		names = []string{"attest", "sign-durable", "sign-batched"}
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
			fmt.Fprintln(os.Stderr, "usage: servebench -workload attest|sign-durable|sign-batched|all -seed N -seconds S -trace 0|1")
			os.Exit(2)
		}
	}
	for _, n := range names {
		cfg := config{
			w:      workloads[n],
			seed:   *seed,
			window: time.Duration(*seconds) * time.Second,
			warmup: time.Second,
			setups: 5,
			trace:  *trace == 1,
			dir:    *dir,
		}
		res, err := run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(1)
		}
		report(cfg, res)
	}
}

// run performs one benchmark run: the served phase always, the traced
// phase with cfg.trace.
func run(cfg config) (result, error) {
	if cfg.dir != "" {
		if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
			return result{}, err
		}
	}
	work, err := os.MkdirTemp(cfg.dir, "servebench-*")
	if err != nil {
		return result{}, err
	}
	defer func() {
		if err := os.RemoveAll(work); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
		}
	}()

	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	setup, st, err := setUp(cfg, work)
	if err != nil {
		return result{}, err
	}
	sr, err := servePhase(cfg, st, window)
	if cerr := st.close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing the served stack: %w", cerr)
	}
	if err != nil {
		return result{}, err
	}
	res := result{attempted: sr.attempted(), failed: sr.failed()}
	res.notes = append(res.notes, sr.notes...)
	if cfg.w.sign {
		if err := checkDurable(cfg.w, cfg.seed, st.dir, sr.acked); err != nil {
			res.notes = append(res.notes, err.Error())
		}
	}
	if !cfg.trace {
		res.metrics, res.reportOnly = endToEnd(sr, setup)
	} else {
		tr, err := tracePhase(cfg, filepath.Join(work, "traced"), window)
		if err != nil {
			return result{}, err
		}
		res.notes = append(res.notes, tr.notes...)
		res.metrics = perLayer(cfg.w, sr, tr)
	}
	res.correct = res.failed == 0 && len(res.notes) == 0
	return res, nil
}

// setUp brings the served stack up cfg.setups times, each on a fresh
// state dir, and keeps the last one. It returns the median set-up time.
func setUp(cfg config, work string) (float64, *stack, error) {
	times := make([]float64, 0, cfg.setups)
	var st *stack
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return 0, nil, err
			}
			st = nil
			runtime.GC() // each set-up starts from the same heap
		}
		t0 := time.Now()
		s, err := openStack(cfg.w, cfg.seed, filepath.Join(work, fmt.Sprintf("state-%d", i)))
		if err != nil {
			return 0, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		st = s
	}
	return median(times), st, nil
}

// servedRun is the measured window of the served phase.
type servedRun struct {
	tallies       []tally
	window        time.Duration
	before, after server.StatsResponse
	alloc         uint64  // Go heap bytes allocated
	gcCPU, cpu    float64 // runtime/metrics GC and total CPU seconds
	acked         map[int]uint32
	notes         []string
}

func (r servedRun) attempted() (n int) {
	for _, t := range r.tallies {
		n += t.attempted
	}
	return n
}

func (r servedRun) failed() (n int) {
	for _, t := range r.tallies {
		n += t.failed
	}
	return n
}

func (r servedRun) latencies() []time.Duration { return sortedLatencies(r.tallies) }

// servePhase warms the stack up, then measures it for d with counters
// read around the window while every worker is idle.
func servePhase(cfg config, st *stack, d time.Duration) (servedRun, error) {
	var sr servedRun
	var qk [8]uint32
	if !cfg.w.sign {
		var err error
		if qk, err = st.quoteKey(); err != nil {
			return sr, err
		}
	}
	hcs := make([]*httpClient, clients)
	gens := make([]*generator, clients)
	corpus := newCorpus(cfg.seed)
	for i := range hcs {
		hcs[i] = newHTTPClient(st, qk)
		defer hcs[i].tr.CloseIdleConnections()
		gens[i] = newGenerator(cfg.w, cfg.seed, i, corpus)
	}
	op := func(i int, req request) (time.Duration, outcome, error) { return hcs[i].do(req) }
	led := newLedger()

	warm := drive(gens, op, led, cfg.w.batched, cfg.warmup)
	sr.notes = append(sr.notes, failures("warm-up", warm)...)
	if err := waitIdle(st.pool); err != nil {
		return sr, err
	}
	sr.before = st.srv.Stats()
	m0, gc0, cpu0 := readRuntime()
	sr.tallies = drive(gens, op, led, cfg.w.batched, d)
	sr.window = d
	if err := waitIdle(st.pool); err != nil {
		return sr, err
	}
	m1, gc1, cpu1 := readRuntime()
	sr.after = st.srv.Stats()
	sr.alloc = m1 - m0
	sr.gcCPU, sr.cpu = gc1-gc0, cpu1-cpu0
	sr.acked = led.highest()
	sr.notes = append(sr.notes, failures("served", sr.tallies)...)
	return sr, nil
}

// tracedRun is the measured window of the traced phase.
type tracedRun struct {
	ops       int
	sum       stages        // Σ over ops; a batch's stages count once per waiter
	submit    time.Duration // Σ Submit time (sign-batched)
	stageSum  time.Duration // Σ per-op traced latency
	retired   uint64
	enclaveNS int64
	appends   uint64 // WAL records appended
	fsyncDur  time.Duration
	walBytes  int64
	notes     []string
}

// tracePhase replays the workload through the traced composition on a
// fresh state dir: warm-up, then d measured.
func tracePhase(cfg config, dir string, d time.Duration) (tracedRun, error) {
	var tr tracedRun
	t, err := openTracer(cfg.w, cfg.seed, dir)
	if err != nil {
		return tr, fmt.Errorf("traced set-up: %w", err)
	}
	gens := make([]*generator, clients)
	corpus := newCorpus(cfg.seed)
	for i := range gens {
		gens[i] = newGenerator(cfg.w, cfg.seed, i, corpus)
	}
	acc := make([]tracedOp, clients)
	op := func(i int, req request) (time.Duration, outcome, error) {
		top, o, err := t.do(i, req)
		if err != nil {
			return 0, o, err
		}
		lat := top.st.sum()
		if cfg.w.batched {
			lat = top.submit
		}
		acc[i].st.add(top.st)
		acc[i].submit += top.submit
		return lat, o, nil
	}
	led := newLedger()
	warm := drive(gens, op, led, cfg.w.batched, cfg.warmup)
	tr.notes = append(tr.notes, failures("traced warm-up", warm)...)

	acc = make([]tracedOp, clients)
	ret0, ens0 := t.retired.Load(), t.enclaveNS.Load()
	dur0, wal0 := t.probe.read()
	var app0 uint64
	if t.cs != nil {
		app0 = t.cs.StoreStats().Appends
	}
	tallies := drive(gens, op, led, cfg.w.batched, d)
	if t.cs != nil {
		tr.appends = t.cs.StoreStats().Appends - app0
	}
	dur1, wal1 := t.probe.read()
	tr.retired, tr.enclaveNS = t.retired.Load()-ret0, t.enclaveNS.Load()-ens0
	tr.fsyncDur, tr.walBytes = dur1-dur0, wal1-wal0
	if err := t.close(); err != nil {
		return tr, fmt.Errorf("closing the traced stack: %w", err)
	}
	for i := range acc {
		tr.sum.add(acc[i].st)
		tr.submit += acc[i].submit
	}
	for _, l := range sortedLatencies(tallies) {
		tr.stageSum += l
		tr.ops++
	}
	tr.notes = append(tr.notes, failures("traced", tallies)...)
	return tr, nil
}

// failures lists a phase's errors for the report.
func failures(phase string, ts []tally) []string {
	var out []string
	for i, t := range ts {
		if t.failed == 0 {
			continue
		}
		out = append(out, fmt.Sprintf("%s: client %d: %d of %d failed", phase, i, t.failed, t.attempted))
		for _, err := range t.errs {
			out = append(out, fmt.Sprintf("  %v", err))
		}
	}
	return out
}

// slice is the length of the sub-windows the served window is cut into.
// Throughput and latency quantiles are taken per slice and reported as
// their median over the slices, so a few seconds of interference from
// outside the process move the result less than they would move one
// whole-window figure.
const slice = time.Second

// slices groups the served window's operations by the slice they
// completed in, each group's latencies sorted. Operations completing
// after the last whole slice are left out.
func slices(ts []tally, window time.Duration) [][]time.Duration {
	out := make([][]time.Duration, window/slice)
	for _, t := range ts {
		for i, end := range t.ends {
			if k := int(end / slice); k < len(out) {
				out[k] = append(out[k], t.lats[i])
			}
		}
	}
	for _, s := range out {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	return out
}

// endToEnd is what a user of the service sees, from the served run. The
// p90 latency goes to the readable report only: the two clients keep both
// cores busy, so the tail follows the host's load from outside the
// process, and from one run to the next it moved by more than the 25%
// a metric of the result may move.
func endToEnd(sr servedRun, setup float64) (ms, reportOnly []metric) {
	ss := slices(sr.tallies, sr.window)
	tput := make([]float64, len(ss))
	p50 := make([]float64, len(ss))
	p90 := make([]float64, len(ss))
	for i, s := range ss {
		tput[i] = float64(len(s)) / slice.Seconds()
		p50[i] = quantileUS(s, 0.50)
		p90[i] = quantileUS(s, 0.90)
	}
	return []metric{
		{"throughput_ops", median(tput), "ops/s"},
		{"latency_p50_us", median(p50), "us"},
		{"alloc_mb_per_op", ratio(float64(sr.alloc)/1e6, float64(len(sr.latencies()))), "MB"},
		{"peak_rss_mb", peakRSSMB(), "MB"},
		{"setup_s", setup, "s"},
	}, []metric{{"latency_p90_us", median(p90), "us"}}
}

// perLayer is the per-layer split: stage times from the traced run,
// counts from the served run.
func perLayer(w workload, sr servedRun, tr tracedRun) []metric {
	ops := float64(tr.ops)
	us := func(d time.Duration) float64 { return ratio(float64(d)/1e3, ops) }
	var servedMean float64
	lats := sr.latencies()
	for _, l := range lats {
		servedMean += float64(l) / 1e3
	}
	servedMean = ratio(servedMean, float64(len(lats)))
	traced := us(tr.stageSum)

	n := float64(len(lats)) // served ops the counts are divided by
	b, a := sr.before, sr.after
	tb, ta := b.Telemetry, a.Telemetry
	var batchWait, meanSize, dedup, topShare float64
	if w.batched {
		batchWait = us(tr.submit - tr.sum.sum())
		meanSize = ratio(float64(a.Batch.SizeSum-b.Batch.SizeSum), float64(a.Batch.Batches-b.Batch.Batches))
		dedup = ratio(float64(a.Batch.Dedup-b.Batch.Dedup), n)
		var top int
		for _, t := range sr.tallies {
			top += t.topRank
		}
		topShare = ratio(float64(top), float64(sr.attempted()))
	}
	var fsyncsPerOp, meanGroup float64
	if w.sign {
		fsyncsPerOp = ratio(float64(a.Store.Fsyncs-b.Store.Fsyncs), n)
		meanGroup = ratio(float64(a.Store.GroupSizeSum-b.Store.GroupSizeSum), float64(a.Store.Groups-b.Store.Groups))
	}
	return []metric{
		{"server.http_us", servedMean - traced, "us"},
		{"pool.get_us", us(tr.sum.get), "us"},
		{"pool.release_us", us(tr.sum.release), "us"},
		{"pool.rebase_us", us(tr.sum.rebase), "us"},
		{"pool.restore_words_per_op", ratio(float64(a.Pool.RestoreWords-b.Pool.RestoreWords), n), "words"},
		{"komodo.enclave_us", us(tr.sum.enclave), "us"},
		{"arm.insns_per_op", ratio(float64(tr.retired), ops), "insns"},
		{"arm.minsns_per_s", ratio(float64(tr.retired), float64(tr.enclaveNS)/1e3), "Minsn/s"},
		// A revalidated block is reused after a check, so it counts as a hit.
		{"arm.block_hit_rate", hitRate(ta.BlockCache.Hits+ta.BlockCache.Revalidated-tb.BlockCache.Hits-tb.BlockCache.Revalidated,
			ta.BlockCache.Misses-tb.BlockCache.Misses), "share"},
		{"arm.decode_hit_rate", hitRate(ta.DecodeCache.Hits-tb.DecodeCache.Hits, ta.DecodeCache.Misses-tb.DecodeCache.Misses), "share"},
		{"monitor.checkpoint_us", us(tr.sum.checkpoint), "us"},
		{"monitor.smc_per_op", ratio(float64(smcCount(ta)-smcCount(tb)), n), "count"},
		{"store.save_us", us(tr.sum.save), "us"},
		{"store.fsync_us", ratio(float64(tr.fsyncDur)/1e3, float64(tr.appends)), "us"},
		{"store.fsyncs_per_op", fsyncsPerOp, "count"},
		{"store.mean_group", meanGroup, "count"},
		{"store.wal_bytes_per_op", ratio(float64(tr.walBytes), ops), "B"},
		{"batch.wait_us", batchWait, "us"},
		{"batch.mean_size", meanSize, "count"},
		{"batch.dedup_share", dedup, "share"},
		{"batch.zipf_top_share", topShare, "share"},
		{"runtime.gc_cpu_share", ratio(sr.gcCPU, sr.cpu), "share"},
		{"trace.coverage", ratio(traced, servedMean), "ratio"},
	}
}

func smcCount(s telemetry.Snapshot) (n uint64) {
	for _, c := range s.SMC {
		n += c.Count
	}
	return n
}

// hitRate is the share of lookups served from a cache.
func hitRate(hits, misses uint64) float64 { return ratio(float64(hits), float64(hits+misses)) }

// ratio is a/b, or 0 when b is 0 (a layer the workload does not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedLatencies(ts []tally) []time.Duration {
	var all []time.Duration
	for _, t := range ts {
		all = append(all, t.lats...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// quantileUS is the q-quantile of sorted latencies, in µs (nearest rank).
func quantileUS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i]) / 1e3
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// readRuntime returns the bytes allocated so far and the GC and total
// CPU seconds runtime/metrics reports.
func readRuntime() (alloc uint64, gcCPU, cpu float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return ms.TotalAlloc, s[0].Value.Float64(), s[1].Value.Float64()
}

// peakRSSMB is this process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// report prints the readable report to stderr and the JSON result as the
// last line of stdout.
func report(cfg config, res result) {
	fmt.Fprintf(os.Stderr, "servebench: workload=%s seed=%d window=%v trace=%v clients=%d workers=%d GOMAXPROCS=%d %s\n",
		cfg.w.name, cfg.seed, cfg.window, cfg.trace, clients, workers, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(os.Stderr, "  %-28s %d\n  %-28s %d\n  %-28s %g share\n", "attempted", res.attempted, "failed", res.failed,
		"error_rate", ratio(float64(res.failed), float64(res.attempted)))
	for _, m := range append(res.metrics, res.reportOnly...) {
		fmt.Fprintf(os.Stderr, "  %-28s %.6g %s\n", m.name, m.value, m.unit)
	}
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, "  FAIL:", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]value{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
