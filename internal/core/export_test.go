package core

// Test hooks into the MVCC version pruner, compiled only into this
// package's tests.

// ParkPruner stops db's background version pruner for good, so a test
// can run prune cycles itself (PruneCycle) without racing it. Close
// still works afterwards.
func ParkPruner(db *DB) { db.pruner.stop() }

// PruneCycle runs one pruner cycle on the caller's goroutine: advance
// the reclaim watermark, then sweep the queue. The background pruner
// must be parked or idle on a long tick.
func PruneCycle(db *DB) {
	db.pruner.sweep(db.Snap.AdvanceReclaim(db.pruner.alloc))
}

// PruneQueueLen returns the number of rows in the pruner's queue.
func PruneQueueLen(db *DB) int {
	p := db.pruner
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}
