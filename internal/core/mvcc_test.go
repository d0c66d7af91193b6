package core_test

import (
	"testing"
	"time"

	"bamboo/internal/core"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
	"bamboo/internal/txn"
	"bamboo/internal/verify/verifytest"
	"bamboo/internal/workload/tpcc"
)

func mvccConfig(base core.Config) core.Config {
	base.MVCC = true
	// A tight pruner tick so short tests actually exercise watermark
	// advance and background sweeps, not just install-time reuse.
	base.MVCCPruneInterval = 500 * time.Microsecond
	return base
}

// TestMVCCSnapshotConsistency runs the snapshot oracle against every lock
// variant with MVCC on: concurrent transfers on the locking path, read-
// only sums on the snapshot path, and every observed sum must equal the
// invariant — a torn (non-transaction-consistent) snapshot fails fast.
func TestMVCCSnapshotConsistency(t *testing.T) {
	configs := map[string]core.Config{
		"BAMBOO":     core.Bamboo(),
		"WOUND_WAIT": core.WoundWait(),
		"WAIT_DIE":   core.WaitDie(),
		"NO_WAIT":    core.NoWait(),
	}
	for name, cfg := range configs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			db := core.NewDB(mvccConfig(cfg))
			defer db.Close()
			verifytest.RunSnapshotConsistency(t, core.NewLockEngine(db), 16, 4, 200)
		})
	}
}

// TestMVCCSnapshotConsistencyPartitioned repeats the oracle over a
// partitioned table: snapshot reads must stay transaction-consistent
// across partition boundaries (one commit timestamp covers a transfer
// whose legs live in different partitions).
func TestMVCCSnapshotConsistencyPartitioned(t *testing.T) {
	cfg := mvccConfig(core.Bamboo())
	cfg.Partitions = 4
	db := core.NewDB(cfg)
	defer db.Close()
	verifytest.RunSnapshotConsistency(t, core.NewLockEngine(db), 16, 4, 200)
}

// TestMVCCReadOnlyFallback pins the write-inside-read-only contract: a
// transaction that opts into the snapshot path and then writes restarts
// transparently through the locking path, commits exactly once, and is
// not counted as an abort.
func TestMVCCReadOnlyFallback(t *testing.T) {
	db := core.NewDB(mvccConfig(core.Bamboo()))
	defer db.Close()
	schema := storage.NewSchema("kv", storage.Column{Name: "v", Type: storage.ColInt64})
	tbl := db.Catalog.MustCreateTable(schema, 4)
	for k := 0; k < 4; k++ {
		tbl.MustInsertRow(uint64(k), schema.NewRowImage())
	}
	eng := core.NewLockEngine(db)
	col := &stats.Collector{}
	sess := eng.NewSession(0, col)

	attempts := 0
	marked := make([]bool, 0, 2)
	err := sess.Run(func(tx core.Tx) error {
		attempts++
		marked = append(marked, core.MarkReadOnly(tx))
		if _, err := tx.Read(tbl.Get(0)); err != nil {
			return err
		}
		return tx.Update(tbl.Get(1), func(img []byte) {
			schema.SetInt64(img, 0, 42)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("ran %d attempts, want 2 (snapshot attempt + locking retry)", attempts)
	}
	if !marked[0] || marked[1] {
		t.Fatalf("MarkReadOnly returned %v, want [true false] "+
			"(snapshot granted first, refused on the locking retry)", marked)
	}
	if col.Commits != 1 || col.Aborts != 0 {
		t.Fatalf("commits=%d aborts=%d, want 1 commit and 0 aborts "+
			"(the fallback restart must not count as an abort)", col.Commits, col.Aborts)
	}
	if got := schema.GetInt64(tbl.Get(1).Entry.CurrentData(), 0); got != 42 {
		t.Fatalf("update lost: v=%d, want 42", got)
	}

	// A subsequent declared-read-only transaction sees the committed write
	// from its snapshot.
	var seen int64
	if err := sess.Run(func(tx core.Tx) error {
		if !core.MarkReadOnly(tx) {
			t.Error("MarkReadOnly refused a fresh read-only transaction")
		}
		img, err := tx.Read(tbl.Get(1))
		if err != nil {
			return err
		}
		seen = schema.GetInt64(img, 0)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 42 {
		t.Fatalf("snapshot read saw %d, want 42", seen)
	}
	if col.SnapshotReads == 0 {
		t.Fatal("no snapshot reads recorded")
	}
}

// TestMVCCCommitHookRetainedImages pins the recycling opt-out across the
// MVCC install path: commit hooks retain AccessInfo whose Wrote/Read
// slices reference installed images, so no superseded version-chain
// image may be harvested into a request's spare buffer while a hook is
// installed — the lock-side SetImageRecycling flag covers only the
// release-time capture, not installVersions' harvest. Without the gate,
// each update to one hot row recycles the image a hook retained two
// commits earlier and the next write copy overwrites its bytes.
//
// The reclaim watermark is advanced by hand between commits (the
// background pruner is parked on an hour-long tick) so the very next
// Install deterministically detaches the superseded version instead of
// racing the pruner's sweep for it.
func TestMVCCCommitHookRetainedImages(t *testing.T) {
	cfg := core.Bamboo()
	cfg.MVCC = true
	cfg.MVCCPruneInterval = time.Hour // keep the sweep out of the race
	db := core.NewDB(cfg)
	defer db.Close()
	schema := storage.NewSchema("kv", storage.Column{Name: "v", Type: storage.ColInt64})
	tbl := db.Catalog.MustCreateTable(schema, 1)
	tbl.MustInsertRow(0, schema.NewRowImage())

	type retained struct {
		img  []byte // referenced, not copied — exactly what the verifier keeps
		want int64
	}
	var kept []retained
	db.SetOnCommit(func(_ int, _, _ uint64, accesses []core.AccessInfo, _ int) {
		for _, a := range accesses {
			if a.Wrote != nil {
				kept = append(kept, retained{img: a.Wrote, want: schema.GetInt64(a.Wrote, 0)})
			}
		}
	})

	// Watermark-advance allocator on its own slot (the session runs on
	// worker 0, the parked pruner on TSWorkerSlots-1).
	alloc := txn.NewTSAlloc(1)
	db.Snap.Register(1)

	const commits = 64
	eng := core.NewLockEngine(db)
	sess := eng.NewSession(0, &stats.Collector{})
	for i := 0; i < commits; i++ {
		v := int64(i + 1)
		if err := sess.Run(func(tx core.Tx) error {
			tx.DeclareOps(1)
			return tx.Update(tbl.Get(0), func(img []byte) {
				schema.SetInt64(img, 0, v)
			})
		}); err != nil {
			t.Fatal(err)
		}
		db.Snap.AdvanceReclaim(alloc)
	}
	if len(kept) != commits {
		t.Fatalf("hook saw %d writes, want %d", len(kept), commits)
	}
	for i, r := range kept {
		if got := schema.GetInt64(r.img, 0); got != r.want {
			t.Fatalf("retained image from commit %d corrupted: v=%d, want %d "+
				"(a superseded version image was recycled while a commit hook held it)",
				i, got, r.want)
		}
	}
}

// TestMVCCMarkReadOnlyOff: without MVCC, MarkReadOnly is a refusal, not
// an error — the transaction runs through the locking path unchanged.
func TestMVCCMarkReadOnlyOff(t *testing.T) {
	db := core.NewDB(core.Bamboo())
	defer db.Close()
	schema := storage.NewSchema("kv", storage.Column{Name: "v", Type: storage.ColInt64})
	tbl := db.Catalog.MustCreateTable(schema, 1)
	tbl.MustInsertRow(0, schema.NewRowImage())
	eng := core.NewLockEngine(db)
	col := &stats.Collector{}
	sess := eng.NewSession(0, col)
	if err := sess.Run(func(tx core.Tx) error {
		if core.MarkReadOnly(tx) {
			t.Error("MarkReadOnly granted snapshot mode on a non-MVCC engine")
		}
		_, err := tx.Read(tbl.Get(0))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if col.Commits != 1 || col.SnapshotReads != 0 {
		t.Fatalf("commits=%d snapshotReads=%d, want 1 and 0", col.Commits, col.SnapshotReads)
	}
}

// TestMVCCRecoveryReseed: after a crash and WAL replay, snapshot reads
// must serve the *recovered* images, not the loader's base seed — replay
// applies images beneath the version chains, and the post-replay reseed
// pass is what re-anchors them.
func TestMVCCRecoveryReseed(t *testing.T) {
	dir := t.TempDir()
	run := mvccConfig(core.Bamboo())
	run.WALDir = dir

	db := core.NewDB(run)
	tbl := loadXfer(t, db)
	schema := tbl.Schema
	eng := core.NewLockEngine(db)
	sess := eng.NewSession(0, &stats.Collector{})
	for i := 0; i < 10; i++ {
		if err := sess.Run(func(tx core.Tx) error {
			tx.DeclareOps(1)
			return tx.Update(tbl.Get(0), func(img []byte) {
				schema.AddInt64(img, 0, 7)
			})
		}); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	// Recover into a fresh MVCC instance: same deterministic loader, then
	// replay. (No WALDir on the recovering config — replay reads the files
	// directly, as the recovery tooling does.)
	rec := mvccConfig(core.Bamboo())
	db2 := core.NewDB(rec)
	defer db2.Close()
	tbl2 := loadXfer(t, db2)
	if _, err := db2.ReplayDir(dir, false); err != nil {
		t.Fatal(err)
	}

	want := int64(xferInitial + 10*7)
	eng2 := core.NewLockEngine(db2)
	col := &stats.Collector{}
	sess2 := eng2.NewSession(0, col)
	var got int64
	if err := sess2.Run(func(tx core.Tx) error {
		if !core.MarkReadOnly(tx) {
			t.Error("MarkReadOnly refused on the recovered MVCC instance")
		}
		img, err := tx.Read(tbl2.Get(0))
		if err != nil {
			return err
		}
		got = tbl2.Schema.GetInt64(img, 0)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-recovery snapshot read saw %d, want %d (stale version chain)", got, want)
	}
	if col.SnapshotReads == 0 {
		t.Fatal("post-recovery read did not use the snapshot path")
	}
}

// TestMVCCPruneColdRow: a row written once while the reclaim watermark
// lags, and never written again, keeps its superseded version until the
// pruner reclaims it. Install-time reclaim cannot cover this case — it
// only runs when the row is written again — which is why the sweep
// exists. One watermark advance plus one sweep must bring the chain
// back to one version and count the reclaimed node in versions_pruned.
func TestMVCCPruneColdRow(t *testing.T) {
	cfg := core.Bamboo()
	cfg.MVCC = true
	cfg.MVCCPruneInterval = time.Hour // the test drives the cycles
	db := core.NewDB(cfg)
	defer db.Close()
	schema := storage.NewSchema("kv", storage.Column{Name: "v", Type: storage.ColInt64})
	tbl := db.Catalog.MustCreateTable(schema, 2)
	for k := 0; k < 2; k++ {
		tbl.MustInsertRow(uint64(k), schema.NewRowImage())
	}
	sess := core.NewLockEngine(db).NewSession(0, &stats.Collector{})
	write := func(v int64) {
		t.Helper()
		if err := sess.Run(func(tx core.Tx) error {
			tx.DeclareOps(1)
			return tx.Update(tbl.Get(0), func(img []byte) { schema.SetInt64(img, 0, v) })
		}); err != nil {
			t.Fatal(err)
		}
	}

	cold := tbl.Get(0)
	write(1)
	if n := cold.Versions.Len(); n != 2 {
		t.Fatalf("chain length after one write with the watermark lagging = %d, want 2", n)
	}
	if q := core.PruneQueueLen(db); q != 1 {
		t.Fatalf("prune queue holds %d rows after one write, want 1", q)
	}
	core.PruneCycle(db)
	if n := cold.Versions.Len(); n != 1 {
		t.Fatalf("cold row's chain length after a prune cycle = %d, want 1", n)
	}
	if got := db.Global.VersionsPruned.Load(); got != 1 {
		t.Fatalf("versions_pruned = %d, want 1", got)
	}
	if q := core.PruneQueueLen(db); q != 0 {
		t.Fatalf("prune queue holds %d rows after the sweep, want 0", q)
	}
	if got := schema.GetInt64(cold.Versions.Head().Image(), 0); got != 1 {
		t.Fatalf("surviving version holds v=%d, want the committed 1", got)
	}

	// The sweep cleared the row's queued bit, so the next write queues
	// it again and the next cycle reclaims again.
	write(2)
	if q := core.PruneQueueLen(db); q != 1 {
		t.Fatalf("prune queue holds %d rows after a second write, want 1", q)
	}
	core.PruneCycle(db)
	if n := cold.Versions.Len(); n != 1 {
		t.Fatalf("chain length after the second cycle = %d, want 1", n)
	}
	if got := db.Global.VersionsPruned.Load(); got != 2 {
		t.Fatalf("versions_pruned = %d, want 2", got)
	}
	if n := tbl.Get(1).Versions.Len(); n != 1 {
		t.Fatalf("unwritten row's chain length = %d, want 1", n)
	}
}

// TestMVCCPruneCensus runs MVCC TPC-C on 4 workers with a short pruner
// tick, so sweeps race commit-time installs throughout. Once the
// workers stop and two prune cycles run, every chain in every table must
// be back at one version: a row the queue lost (an install racing a
// sweep's clear of the queued bit) would keep its superseded versions
// forever. The background sweeps must have pruned something while the
// workers ran, or the race was never exercised.
func TestMVCCPruneCensus(t *testing.T) {
	cfg := mvccConfig(core.Bamboo())
	db := core.NewDB(cfg)
	defer db.Close()
	tc := tpcc.DefaultConfig()
	tc.Items = 200
	tc.CustomersPerDistrict = 60
	tc.StockLevelFraction = 0.1
	w, err := tpcc.Load(db, tc)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewLockEngine(db)
	deadline := time.Now().Add(20 * time.Second)
	for round := 0; ; round++ {
		res := core.RunFor(eng, 4, 200*time.Millisecond, w.Generator())
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if db.Global.VersionsPruned.Load() > 0 && round > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no background sweep pruned a version while the workers ran")
		}
	}
	if err := w.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	swept := db.Global.VersionsPruned.Load()

	core.ParkPruner(db)
	core.PruneCycle(db)
	core.PruneCycle(db)
	rows, long := 0, 0
	for _, tbl := range db.Catalog.AllTables() {
		tbl.Range(func(key uint64, r *storage.Row) bool {
			rows++
			if n := r.Versions.Len(); n != 1 {
				long++
				if long <= 5 {
					t.Errorf("%s row %d: chain length %d after two prune cycles, want 1",
						tbl.Schema.Name, key, n)
				}
			}
			return true
		})
	}
	t.Logf("%d rows, %d versions pruned by sweeps during the run, %d after",
		rows, swept, db.Global.VersionsPruned.Load()-swept)
	if long > 0 {
		t.Fatalf("%d of %d rows kept more than one version", long, rows)
	}
	if q := core.PruneQueueLen(db); q != 0 {
		t.Fatalf("prune queue holds %d rows with every chain at one version", q)
	}
}
