// Command perfbench is the repository benchmark. It drives the engine
// only through its public entry points (core.NewDB, core.NewLockEngine,
// Session.Run, core.Tx, wal.Device, DB.WALStats, DB.CheckpointStats,
// DB.ReplayDirCheckpointed) with closed-loop clients, times every
// Session.Run call from outside the engine, checks each workload's
// oracle after the run, and prints every metric by name, unit and sample
// count. The last line of standard output is one JSON object with the
// end-to-end metrics (-trace 0) or the per-layer metrics of a traced run
// (-trace 1). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"bamboo/internal/core"
	"bamboo/internal/stats"
	"bamboo/internal/wal"
)

const (
	clients = 2                      // closed-loop clients, one per CPU of the reference host
	repLen  = 4 * time.Second        // measured span of one repetition of an untraced run
	winLen  = time.Second            // timing window within a repetition
	warmUp  = 500 * time.Millisecond // run before each measured span, not measured

	// samplesPerSec sizes each client's latency buffer: above the
	// fastest workload's per-client rate on the reference host.
	samplesPerSec = 100000
)

// metric is one printed measurement.
type metric struct {
	name    string
	value   float64
	unit    string
	samples uint64
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: hotspot, tpcc or ycsb-durable")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory for logs, checkpoints and trace files")
	rev := flag.String("rev", "unknown", "source revision recorded with the result")
	flag.Parse()

	wl, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload hotspot|tpcc|ycsb-durable, -seconds ≥ 1, -trace 0|1\n")
		os.Exit(2)
	}
	fmt.Printf("# host: %s/%s GOMAXPROCS=%d NumCPU=%d %s\n",
		runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	fmt.Printf("# rev: %s\n", *rev)
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d clients=%d\n", wl.name, *seed, *seconds, *trace, clients)

	r := &runner{wl: wl, seed: *seed, seconds: *seconds, workdir: *workdir}
	var res result
	var err error
	if *trace == 1 {
		res, err = r.traced()
	} else {
		res, err = r.untraced()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runner holds one invocation's settings and its failure accounting.
type runner struct {
	wl      workload
	seed    int64
	seconds int
	workdir string

	failures []string
}

func (r *runner) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	fmt.Printf("# FAIL: %s\n", msg)
}

// scratch returns a fresh directory for the i-th set-up.
func (r *runner) scratch(i int) string {
	return filepath.Join(r.workdir, fmt.Sprintf("%s-%d-%d", r.wl.name, os.Getpid(), i))
}

// finish runs the checks that follow the clients, outside the timed
// window: oracle, non-vacuity, then (after Close) recovery. It returns
// the replay time.
func (r *runner) finish(in *instance, o *outcome) time.Duration {
	if err := in.oracle(o); err != nil {
		r.fail("oracle: %v", err)
	}
	if err := in.engaged(o); err != nil {
		r.fail("mechanism did not engage: %v", err)
	}
	if err := in.db.Close(); err != nil {
		r.fail("close: %v", err)
	}
	var replay time.Duration
	if in.recover != nil {
		var err error
		if replay, err = in.recover(o); err != nil {
			r.fail("recovery: %v", err)
		}
	}
	if in.cleanup != nil {
		in.cleanup()
	}
	return replay
}

func (r *runner) engine(in *instance, tr *tracer) core.Engine {
	var e core.Engine = core.NewLockEngine(in.db)
	if tr != nil || in.probe {
		e = &probeEngine{Engine: e, tr: tr}
	}
	return e
}

// untraced is the timed run. It splits the measured seconds into
// repetitions of about repLen; each sets up a fresh instance, drives it
// and runs the checks. Short repetitions bound the retained log (the
// shipped default keeps every record). Timings are taken per window of
// about winLen and reported as means over the better half of all windows:
// other tenants of the host only ever slow a window down, so the better
// half follows the engine, not the neighbours, while a change that slows
// most windows still shows, and averaging many windows is steadier than
// any single order statistic. Every window spans several collections of
// the retained log, so their cost stays in. Memory and set-up time are
// medians over the repetitions.
func (r *runner) untraced() (result, error) {
	reps := max(1, int(time.Duration(r.seconds)*time.Second/repLen))
	span := time.Duration(r.seconds) * time.Second / time.Duration(reps)
	nw := max(1, int(span/winLen))
	var tps, p50, p99, cpu, mem, setup []float64
	var attempted, failed, samples, completed uint64
	bufs := make([][]int64, clients)
	for c := range bufs {
		bufs[c] = make([]int64, 0, int(span.Seconds()*samplesPerSec))
	}
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		in, err := r.wl.load(r.seed, r.scratch(i), nil)
		setup = append(setup, time.Since(start).Seconds())
		if err != nil {
			return result{}, err
		}
		heap0 := liveHeap()
		l := runClients(r.engine(in, nil), in.gen, bufs, warmUp, span, nw)
		var line strings.Builder
		for _, w := range l.windows {
			t, a, b, c, err := w.endToEnd()
			if err != nil {
				r.fail("rep %d: %v", i, err)
			}
			tps, p50, p99, cpu = append(tps, t), append(p50, a), append(p99, b), append(cpu, c)
			fmt.Fprintf(&line, " [tps %.0f p50 %.1fus p99 %.1fus cpu %.1fus]", t, a, b, c)
		}
		samples += l.measured
		l.windows = nil // the latency samples are not the engine's memory
		heap1 := liveHeap()
		m := (float64(heap1) - float64(heap0)) / float64(max(l.completed, 1))
		mem = append(mem, m)
		fmt.Printf("# rep %d: setup %.4fs mem %.0fB%s\n", i, setup[i], m, line.String())

		o := &outcome{completed: l.completed, updates: probedUpdates(l),
			report: stats.Summarize(in.db.ProtocolName(), 0, l.cols, in.db.Global)}
		failed += r.clientErrors(l)
		r.finish(in, o)
		attempted += l.attempted
		completed += l.completed
	}
	ms := []metric{
		{"tps", betterHalf(tps, true), "1/s", uint64(len(tps))},
		{"p50_us", betterHalf(p50, false), "us", samples},
		{"p99_us", betterHalf(p99, false), "us", samples},
		{"cpu_us_per_txn", betterHalf(cpu, false), "us", completed},
		{"mem_b_per_txn", median(mem), "B", completed},
		{"setup_s", median(setup), "s", uint64(reps)},
	}
	failed += uint64(len(r.failures))
	fmt.Printf("# %d reps × (%v warm-up + %d × %v measured); timings are means over the better half of the windows, mem and setup medians over reps\n",
		reps, warmUp, nw, span/time.Duration(nw))
	fmt.Printf("# error_rate %.6g (%d failed of %d attempted)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	return r.result(ms, attempted, failed), nil
}

// traced derives the per-layer metrics. Like the timed run it works in
// repetitions of about repLen on fresh instances; each runs one
// untraced and one traced phase, in alternating order, so the tracing
// overhead compares interleaved phases.
func (r *runner) traced() (result, error) {
	tr := newTracer(clients)
	reps := max(1, int(time.Duration(r.seconds)*time.Second/repLen))
	half := time.Duration(r.seconds) * time.Second / time.Duration(2*reps)
	var attempted, completed, runErrs, allocs, untracedTxns, tracedTxns uint64
	var commits, wounds, cascades, snapReads, replays uint64
	var lockWait time.Duration
	var walStats wal.DeviceStats
	var ckpt core.CheckpointStats
	var live, replay []float64
	var devTraced bool
	for i := 0; i < reps; i++ {
		dev := &traceDevice{}
		runtime.GC()
		in, err := r.wl.load(r.seed, r.scratch(i), dev)
		if err != nil {
			return result{}, err
		}
		devTraced = dev.inner != nil
		var cols []*stats.Collector
		var repCompleted uint64
		var updates int64
		for ph := 0; ph < 2; ph++ {
			on := (ph == 1) != (i%2 == 1)
			var ptr *tracer
			if on {
				ptr = tr
			}
			if dev != nil {
				dev.tr = ptr
			}
			warm := warmUp
			if ph > 0 {
				warm = 0
			}
			m0 := mallocs()
			l := runClients(r.engine(in, ptr), in.gen, make([][]int64, clients), warm, half, 1)
			m1 := mallocs()
			if n := l.measured; on {
				tracedTxns += n
			} else {
				untracedTxns += n
				allocs += m1 - m0
			}
			cols = append(cols, l.cols...)
			attempted += l.attempted
			repCompleted += l.completed
			updates += probedUpdates(l)
			runErrs += r.clientErrors(l)
		}
		completed += repCompleted
		walStats = walStats.Add(in.db.WALStats())
		cs := in.db.CheckpointStats()
		ckpt.Checkpoints += cs.Checkpoints
		ckpt.Time += cs.Time
		live = append(live, float64(in.db.LogLiveBytes())/1e6)
		rep := stats.Summarize(in.db.ProtocolName(), 0, cols, in.db.Global)
		commits += rep.Commits
		wounds += rep.Wounds
		cascades += rep.Cascades
		snapReads += rep.SnapshotReads
		for _, c := range cols {
			lockWait += c.LockWait
		}
		o := &outcome{completed: repCompleted, updates: updates, report: rep, tr: tr}
		if in.recover != nil {
			replays++
		}
		replay = append(replay, r.finish(in, o).Seconds())
	}

	var agg clientTrace
	for _, ct := range tr.clients {
		agg.merge(ct)
	}
	phaseSecs := half.Seconds() * float64(reps)
	tpsU, tpsT := float64(untracedTxns)/phaseSecs, float64(tracedTxns)/phaseSecs
	perTxn := func(v uint64) float64 { return float64(v) / float64(max(completed, 1)) }
	us := func(h *stats.Hist) float64 { return float64(h.Mean()) / 1e3 }
	ms := []metric{
		{"core.attempts_per_txn", ratio(agg.attempts, agg.txns), "count", agg.txns},
		{"core.retry_us", us(&agg.retry), "us", agg.retry.Count()},
		{"core.body_us", us(&agg.body), "us", agg.body.Count()},
		{"core.commit_us", us(&agg.commit), "us", agg.commit.Count()},
		{"core.commit_p99_us", histP99(&agg.commit), "us", agg.commit.Count()},
		{"lock.read_us", us(&agg.total[kRead]), "us", agg.total[kRead].Count()},
		{"lock.update_us", us(&agg.total[kUpdate]), "us", agg.total[kUpdate].Count()},
		{"lock.op_fail_rate", ratio(agg.lockFails, agg.lockOps), "ratio", agg.lockOps},
		{"lock.wait_us_per_txn", float64(lockWait) / 1e3 / float64(max(commits, 1)), "us", commits},
		{"lock.wounds_per_ktxn", 1e3 * perTxn(wounds), "count", completed},
		{"lock.cascades_per_ktxn", 1e3 * perTxn(cascades), "count", completed},
		{"storage.snapshot_read_us", us(&agg.total[kSnapRead]), "us", agg.total[kSnapRead].Count()},
		{"storage.snapshot_reads_per_txn", perTxn(snapReads), "count", completed},
		{"wal.append_us", us(&agg.total[kWALAppend]), "us", agg.total[kWALAppend].Count()},
		{"wal.bytes_per_txn", perTxn(walStats.Bytes), "B", completed},
		{"wal.fsyncs_per_txn", perTxn(walStats.Syncs), "count", completed},
		{"wal.records_per_write", ratio(walStats.Appends, walStats.Batches), "count", walStats.Batches},
		{"wal.fsync_us", float64(walStats.SyncTime) / 1e3 / float64(max(walStats.Syncs, 1)), "us", walStats.Syncs},
		{"checkpoint.count", float64(ckpt.Checkpoints) / float64(reps), "count", ckpt.Checkpoints},
		{"checkpoint.ms", float64(ckpt.Time) / 1e6 / float64(max(ckpt.Checkpoints, 1)), "ms", ckpt.Checkpoints},
		{"wal.live_log_mb", median(live), "MB", uint64(reps)},
		{"recover.replay_s", median(replay), "s", replays},
		{"runtime.allocs_per_txn", ratio(allocs, untracedTxns), "count", untracedTxns},
	}
	for k := kind(0); k < nKinds; k++ {
		h := &agg.self[k]
		ms = append(ms,
			metric{"span." + k.String() + ".count", float64(h.Count()), "count", h.Count()},
			metric{"span." + k.String() + ".self_us", us(h), "us", h.Count()},
			metric{"span." + k.String() + ".self_p99_us", histP99(h), "us", h.Count()},
		)
	}
	ms = append(ms,
		metric{"trace.tps_untraced", tpsU, "1/s", untracedTxns},
		metric{"trace.tps_traced", tpsT, "1/s", tracedTxns},
		metric{"trace.overhead_pct", 100 * (1 - tpsT/max(tpsU, 1)), "%", uint64(2 * reps)},
	)
	if n := tr.orphans.Load(); n > 0 {
		r.fail("%d log device calls matched no running transaction", n)
	}
	if path, err := writeTrace(r.workdir, r.wl.name, r.seed, tr); err != nil {
		r.fail("write trace: %v", err)
	} else {
		fmt.Printf("# spans of the first %d transactions per client: %s\n", keepTxns, path)
	}
	fmt.Printf("# %d reps × (%v warm-up + %v untraced + %v traced, order alternating); checkpoint.count is per rep\n", reps, warmUp, half, half)
	if !devTraced {
		fmt.Printf("# the engine opens this workload's log devices: wal.append spans are not recorded, WAL figures come from DB.WALStats\n")
	}
	failed := runErrs + uint64(len(r.failures))
	fmt.Printf("# error_rate %.6g (%d failed of %d attempted)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	return r.result(ms, attempted, failed), nil
}

// result prints every metric line and builds the JSON result.
func (r *runner) result(ms []metric, attempted, failed uint64) result {
	res := result{
		Correct:   failed == 0 && len(r.failures) == 0,
		Attempted: max(attempted, 1),
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(ms)),
	}
	for _, m := range ms {
		fmt.Printf("%-34s %14.6g %-6s samples=%d\n", m.name, m.value, m.unit, m.samples)
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	if len(r.failures) > 0 {
		fmt.Printf("# %d check(s) failed: %s\n", len(r.failures), strings.Join(r.failures, "; "))
	}
	return res
}

// clientErrors reports and counts the Run calls that returned an error.
func (r *runner) clientErrors(l *load) uint64 {
	var n uint64
	for c, err := range l.errs {
		if err != nil {
			n++
			fmt.Printf("# FAIL: client %d: Session.Run: %v\n", c, err)
		}
	}
	return n
}

func probedUpdates(l *load) int64 {
	var n int64
	for _, s := range l.sessions {
		if ps, ok := s.(*probeSession); ok {
			n += ps.updates
		}
	}
	return n
}

func ratio(a, b uint64) float64 { return float64(a) / float64(max(b, 1)) }

func histP99(h *stats.Hist) float64 { return float64(h.Quantile(0.99)) / 1e3 }
