package core

import (
	"sync"
	"time"

	"bamboo/internal/storage"
	"bamboo/internal/txn"
)

// Background version pruning for the MVCC read path.
//
// Hot rows reclaim their own version tails: every commit-time install
// detaches (and reuses a node of) the tail superseded below the reclaim
// watermark, so turnover on contended rows allocates nothing in steady
// state. What installs cannot do is advance the watermark or trim rows
// that stopped being written — that is this goroutine's job. Each tick it
// advances the watermark (SnapshotTable.AdvanceReclaim, keyed off the
// oldest active snapshot and in-flight commit); every sweepEvery ticks it
// also drains its queue of rows whose chains may hold a tail to reclaim,
// feeding the versions_pruned / version_chain_max telemetry.
//
// The queue is filled at commit: an install is the only way a chain
// grows past one version (loads, inserts and recovery seed one-version
// chains), so installVersions queues every row it leaves longer than one
// version, once — the row's prune-queued bit stays set while it is
// queued. A sweep prunes each queued row and keeps only those whose
// chains are still longer than one version. Prune does nothing on a
// one-version chain, so the queue holds exactly the rows a walk over the
// whole catalog could reclaim from, and a sweep costs the rows written
// since the last one, not the size of the catalog.

// defaultPruneInterval is the watermark-advance tick when
// Config.MVCCPruneInterval is zero.
const defaultPruneInterval = 2 * time.Millisecond

// sweepEvery is the number of watermark ticks per queue sweep. Watermark
// advance is cheap and keeps install-time reuse effective; sweeps batch
// the queued rows so each prunes against a watermark that has moved.
const sweepEvery = 25

// prunerSlot is the TSAlloc slot the pruner draws watermark candidates
// from: the last slot of the folded worker-id space, which no benchmark
// or test session uses (sessions would need 1024 concurrent workers to
// collide).
const prunerSlot = txn.TSWorkerSlots - 1

type pruner struct {
	db    *DB
	alloc *txn.TSAlloc
	quit  chan struct{}
	done  chan struct{}
	once  sync.Once

	// mu guards queue: the rows that may hold a version tail to reclaim,
	// appended by committing sessions (enqueue) and drained by sweep.
	mu    sync.Mutex
	queue []*storage.Row
	// spare is the sweep's second buffer. Each sweep swaps it in for the
	// queue it drains, so the queue allocates nothing in steady state.
	spare []*storage.Row
}

func startPruner(db *DB) *pruner {
	p := &pruner{
		db:    db,
		alloc: txn.NewTSAlloc(prunerSlot),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	db.Snap.Register(prunerSlot)
	go p.run()
	return p
}

func (p *pruner) stop() {
	p.once.Do(func() { close(p.quit) })
	<-p.done
}

func (p *pruner) run() {
	defer close(p.done)
	interval := p.db.cfg.MVCCPruneInterval
	if interval <= 0 {
		interval = defaultPruneInterval
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for n := 0; ; n++ {
		select {
		case <-p.quit:
			return
		case <-tick.C:
		}
		w := p.db.Snap.AdvanceReclaim(p.alloc)
		if n%sweepEvery == sweepEvery-1 {
			p.sweep(w)
		}
	}
}

// noteInstall is the commit side of the prune queue: after an install
// left r's chain at length versions, it appends r to queued if r must
// join the queue. The caller hands queued to enqueue once per commit.
func noteInstall(queued []*storage.Row, r *storage.Row, length int) []*storage.Row {
	if length > 1 && r.MarkPruneQueued() {
		queued = append(queued, r)
	}
	return queued
}

// enqueue adds rows, each with its prune-queued bit newly set, to the
// queue.
func (p *pruner) enqueue(rows []*storage.Row) {
	p.mu.Lock()
	p.queue = append(p.queue, rows...)
	p.mu.Unlock()
}

// sweep prunes every queued row's chain against watermark w, keeps the
// rows whose chains are still longer than one version, and records the
// telemetry. Chain pruning is latch-free; arbitration with concurrent
// installs is a CAS on the detach link.
func (p *pruner) sweep(w uint64) {
	p.mu.Lock()
	batch := p.queue
	p.queue = p.spare[:0]
	p.mu.Unlock()

	var pruned, maxLen uint64
	keep := batch[:0]
	for _, r := range batch {
		n, rec := r.Versions.Prune(w)
		pruned += uint64(rec)
		if uint64(n) > maxLen {
			maxLen = uint64(n)
		}
		if stillQueued(r, n-rec) {
			keep = append(keep, r)
		}
	}

	p.mu.Lock()
	p.queue = append(p.queue, keep...)
	p.mu.Unlock()
	clear(batch)
	p.spare = batch[:0]

	p.db.Global.RecordVersionsPruned(pruned)
	p.db.Global.RecordVersionChainLen(maxLen)
}

// stillQueued reports whether r stays in the queue after a prune left
// its chain at length versions. A row that is down to one version leaves
// the queue and its bit is cleared. An install that landed after the
// prune saw the bit still set and did not queue the row, so the chain
// is re-checked after the clear; if it grew, the row stays, unless the
// install raced the clear and queued the row itself.
func stillQueued(r *storage.Row, length int) bool {
	if length > 1 {
		return true
	}
	r.ClearPruneQueued()
	return r.Versions.Len() > 1 && r.MarkPruneQueued()
}
