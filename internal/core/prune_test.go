package core

import (
	"testing"
	"time"

	"bamboo/internal/storage"
)

func versionedRow(t testing.TB) (*storage.Row, []byte) {
	t.Helper()
	cat := storage.NewCatalog()
	cat.SetMVCC(true)
	schema := storage.NewSchema("kv", storage.Column{Name: "v", Type: storage.ColInt64})
	tbl := cat.MustCreateTable(schema, 1)
	return tbl.MustInsertRow(0, schema.NewRowImage()), schema.NewRowImage()
}

// TestPruneQueueInstallRace replays, step by step, an install that lands
// while the sweep is between pruning a row and clearing its queued bit.
// The install sees the bit still set and does not queue the row; the
// sweep must notice the grown chain after the clear and keep the row, or
// the row's new tail is never reclaimed.
func TestPruneQueueInstallRace(t *testing.T) {
	r, img := versionedRow(t)

	// A commit leaves the row at two versions and queues it.
	n, _, _ := r.Versions.Install(img, 10, 0)
	if q := noteInstall(nil, r, n); len(q) != 1 {
		t.Fatalf("install to length %d queued %d rows, want 1", n, len(q))
	}

	// The sweep prunes it back to one version at watermark 10 ...
	n, rec := r.Versions.Prune(10)
	left := n - rec
	if left != 1 {
		t.Fatalf("prune left length %d, want 1", left)
	}
	// ... and before it clears the bit, another commit installs. The
	// bit is still set, so the committer does not queue the row.
	n, _, _ = r.Versions.Install(img, 20, 10)
	if q := noteInstall(nil, r, n); len(q) != 0 {
		t.Fatalf("install queued a row whose bit was set (length %d)", n)
	}
	// The sweep now clears the bit; the re-check must keep the row.
	if !stillQueued(r, left) {
		t.Fatal("sweep dropped a row an install grew while the bit was being cleared")
	}
	if r.MarkPruneQueued() {
		t.Fatal("row kept by the sweep has its queued bit clear")
	}
}

// TestPrunerSweepKeepsLongChains: a sweep keeps exactly the rows whose
// chains the watermark has not yet let it shorten to one version, and
// drops the rest with their bits cleared.
func TestPrunerSweepKeepsLongChains(t *testing.T) {
	cfg := Bamboo()
	cfg.MVCC = true
	cfg.MVCCPruneInterval = time.Hour
	db := NewDB(cfg)
	defer db.Close()
	schema := storage.NewSchema("kv", storage.Column{Name: "v", Type: storage.ColInt64})
	tbl := db.Catalog.MustCreateTable(schema, 2)
	old := tbl.MustInsertRow(0, schema.NewRowImage())
	fresh := tbl.MustInsertRow(1, schema.NewRowImage())
	img := schema.NewRowImage()

	var queued []*storage.Row
	n, _, _ := old.Versions.Install(img, 10, 0)
	queued = noteInstall(queued, old, n)
	n, _, _ = fresh.Versions.Install(img, 30, 0)
	queued = noteInstall(queued, fresh, n)
	db.pruner.enqueue(queued)

	db.pruner.sweep(20)
	if got := PruneQueueLen(db); got != 1 {
		t.Fatalf("queue holds %d rows after the sweep, want 1", got)
	}
	if db.pruner.queue[0] != fresh {
		t.Fatal("sweep kept the wrong row")
	}
	if old.Versions.Len() != 1 || fresh.Versions.Len() != 2 {
		t.Fatalf("chain lengths %d/%d, want 1/2", old.Versions.Len(), fresh.Versions.Len())
	}
	if !old.MarkPruneQueued() {
		t.Fatal("dropped row's queued bit is still set")
	}
	if got := db.Global.VersionsPruned.Load(); got != 1 {
		t.Fatalf("versions_pruned = %d, want 1", got)
	}
	if got := db.Global.VersionChainMax.Load(); got != 2 {
		t.Fatalf("version_chain_max = %d, want 2", got)
	}
}

// BenchmarkPrunerSweep measures one sweep over a 500k-row MVCC catalog
// in which 1% of the rows were written since the last sweep. Run with
// -benchmem; each op is one sweep, with the rows re-dirtied outside the
// timer.
func BenchmarkPrunerSweep(b *testing.B) {
	const rows, dirty = 500_000, 5_000
	cfg := Bamboo()
	cfg.MVCC = true
	cfg.MVCCPruneInterval = time.Hour // the benchmark drives the sweeps
	db := NewDB(cfg)
	defer db.Close()
	schema := storage.NewSchema("kv", storage.Column{Name: "v", Type: storage.ColInt64})
	tbl := db.Catalog.MustCreateTable(schema, rows)
	for k := 0; k < rows; k++ {
		tbl.MustInsertRow(uint64(k), schema.NewRowImage())
	}
	img := schema.NewRowImage()
	var queued []*storage.Row
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ts := uint64(i + 1)
		queued = queued[:0]
		for k := 0; k < dirty; k++ {
			r := tbl.Get(uint64(k * (rows / dirty)))
			n, _, _ := r.Versions.Install(img, ts, 0)
			queued = noteInstall(queued, r, n)
		}
		db.pruner.enqueue(queued)
		b.StartTimer()
		db.pruner.sweep(ts)
	}
}
