package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"bamboo/internal/core"
	"bamboo/internal/stats"
)

// minTail is the sample-count rule for percentiles: a percentile is
// reported only when at least this many samples lie beyond it, so p99
// needs 1000 samples and p50 needs 20.
const minTail = 10

// percentile returns the nearest-rank q-quantile of sorted and whether
// the sample supports it under the minTail rule.
func percentile(sorted []int64, q float64) (int64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	return sorted[rank], n-1-rank >= minTail
}

// quantile returns the q-quantile of vs, interpolating between the two
// nearest values; vs is sorted in place.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	pos := q * float64(len(vs)-1)
	i := int(pos)
	if i+1 >= len(vs) {
		return vs[len(vs)-1]
	}
	return vs[i] + (pos-float64(i))*(vs[i+1]-vs[i])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// betterHalf returns the mean of the better half of vs (the larger values
// when higher is better, else the smaller; the middle value of an odd
// count included); vs is sorted in place.
func betterHalf(vs []float64, higher bool) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	k := (len(vs) + 1) / 2
	best := vs[:k]
	if higher {
		best = vs[len(vs)-k:]
	}
	var sum float64
	for _, v := range best {
		sum += v
	}
	return sum / float64(k)
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// mallocs returns the cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// load is the outcome of one closed-loop client phase.
type load struct {
	attempted uint64   // Session.Run calls started
	completed uint64   // calls that returned nil, warm-up included
	measured  uint64   // calls that returned inside the measured span
	windows   []window // the measured span, cut into equal windows
	errs      []error
	sessions  []core.Session
	cols      []*stats.Collector
}

// window is one slice of the measured span.
type window struct {
	d   time.Duration
	lat []int64 // ns per Run that returned inside the window, sorted
	cpu time.Duration
}

// runClients drives eng with one closed-loop client per element of bufs:
// each issues its next transaction only once Session.Run returned the
// previous one, and times every Run call from call to return (retries,
// backoff and the commit point included). The clients run for warm,
// unmeasured, and then for d, measured, which is cut into nw equal
// windows; a call that returns after d still counts as attempted and
// completed. Client c records its latencies into bufs[c], which is
// returned grown for reuse: preallocated buffers keep the benchmark's own
// allocations from triggering collections mid-run.
func runClients(eng core.Engine, gen core.Generator, bufs [][]int64, warm, d time.Duration, nw int) *load {
	n := len(bufs)
	l := &load{cols: make([]*stats.Collector, n), errs: make([]error, n), sessions: make([]core.Session, n)}
	attempted := make([]uint64, n)
	completed := make([]uint64, n)
	for c := range l.sessions {
		l.cols[c] = &stats.Collector{}
		l.sessions[c] = eng.NewSession(c, l.cols[c])
	}

	first := time.Now().Add(warm)
	edges := make([]time.Time, nw+1) // window i is [edges[i], edges[i+1])
	for i := range edges {
		edges[i] = first.Add(d * time.Duration(i) / time.Duration(nw))
	}
	end := edges[nw]
	// cuts[c][i] is the index in bufs[c] of client c's first sample in
	// window i; cuts[c][nw] is the sample count.
	cuts := make([][]int, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		cuts[c] = make([]int, 0, nw+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := l.sessions[c]
			// Counted locally: adjacent slots of a shared slice would
			// put both clients' counters on one cache line.
			var att, comp uint64
			mine, cut := bufs[c][:0], cuts[c]
			defer func() {
				for len(cut) <= nw {
					cut = append(cut, len(mine))
				}
				attempted[c], completed[c], bufs[c], cuts[c] = att, comp, mine, cut
			}()
			for seq := 0; ; seq++ {
				fn := gen(c, seq)
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				att++
				err := s.Run(fn)
				t1 := time.Now()
				if err != nil {
					l.errs[c] = err
					return
				}
				comp++
				if !t1.Before(first) && t1.Before(end) {
					for len(cut) < nw && !t1.Before(edges[len(cut)]) {
						cut = append(cut, len(mine))
					}
					mine = append(mine, int64(t1.Sub(t0)))
				}
			}
		}()
	}
	cpus := make([]time.Duration, nw+1)
	for i := range edges {
		time.Sleep(time.Until(edges[i]))
		cpus[i] = cpuTime()
	}
	wg.Wait()

	l.windows = make([]window, nw)
	for i := range l.windows {
		w := &l.windows[i]
		w.d, w.cpu = edges[i+1].Sub(edges[i]), cpus[i+1]-cpus[i]
		for c := 0; c < n; c++ {
			w.lat = append(w.lat, bufs[c][cuts[c][i]:cuts[c][i+1]]...)
		}
		slices.Sort(w.lat)
		l.measured += uint64(len(w.lat))
	}
	for c := 0; c < n; c++ {
		l.attempted += attempted[c]
		l.completed += completed[c]
	}
	return l
}

// endToEnd derives the end-to-end metrics of one window. It fails when
// the window holds too few samples for a p99 under the minTail rule.
func (w *window) endToEnd() (tps, p50, p99, cpuPerTxn float64, err error) {
	n := len(w.lat)
	a, okA := percentile(w.lat, 0.50)
	b, okB := percentile(w.lat, 0.99)
	if !okA || !okB {
		return 0, 0, 0, 0, fmt.Errorf("%d samples in a %v window are too few for a p99 with %d beyond it", n, w.d, minTail)
	}
	return float64(n) / w.d.Seconds(), float64(a) / 1e3, float64(b) / 1e3, float64(w.cpu) / 1e3 / float64(n), nil
}
