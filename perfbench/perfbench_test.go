package main

import (
	"slices"
	"testing"
	"time"

	"bamboo/internal/core"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
	"bamboo/internal/wal"
)

func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{kind: kTxn, parent: -1, start: 0, end: 100},
		{kind: kAttempt, parent: 0, start: 10, end: 60},
		{kind: kRead, parent: 1, start: 20, end: 30},
		{kind: kUpdate, parent: 1, start: 25, end: 40}, // overlaps the read
		{kind: kCommit, parent: 0, start: 60, end: 100},
		{kind: kWALAppend, parent: 4, start: 70, end: 80},
		{kind: kWALAppend, parent: 4, start: 95, end: 110}, // sticks out of commit
	}
	got, _ := selfTimes(spans, nil, nil)
	want := []int64{
		100 - 50 - 40, // txn: attempt and commit cover 90
		50 - 20,       // attempt: read ∪ update = [20,40)
		10, 15,        // leaves keep their duration
		40 - 10 - 5, // commit: the second append counts only up to 100
		10, 15,
	}
	if !slices.Equal(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestSelfTimesIgnoresSpanOrder(t *testing.T) {
	// endTxn appends the commit span after the device spans that are its
	// children; self time must not depend on slice order.
	spans := []span{
		{kind: kTxn, parent: -1, start: 0, end: 50},
		{kind: kWALAppend, parent: 2, start: 30, end: 35},
		{kind: kCommit, parent: 0, start: 20, end: 50},
		{kind: kAttempt, parent: 0, start: 0, end: 20},
	}
	got, _ := selfTimes(spans, nil, nil)
	if want := []int64{0, 5, 25, 20}; !slices.Equal(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestPercentileSampleRule(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		want int64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // exactly 10 samples beyond
		{999, 0.99, 990, false}, // 9 beyond
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{1, 0.50, 1, false},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) = %d, %v; want %d, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v, want 2.5", m)
	}
	vs := []float64{9, 1, 5, 3, 7} // sorted: 1 3 5 7 9
	if q := quantile(vs, 0.25); q != 3 {
		t.Errorf("lower quartile %v, want 3", q)
	}
	if q := quantile(vs, 0.875); q != 8 {
		t.Errorf("0.875-quantile %v, want 8 (interpolated)", q)
	}
	if b := betterHalf([]float64{9, 1, 5, 3, 7}, false); b != 3 {
		t.Errorf("lower better half of 1 3 5 7 9 = %v, want 3 (mean of 1 3 5)", b)
	}
	if b := betterHalf([]float64{4, 1, 3, 2}, true); b != 3.5 {
		t.Errorf("upper better half of 1 2 3 4 = %v, want 3.5", b)
	}
}

// mvccDB returns an MVCC DB with a few loaded rows.
func mvccDB(t *testing.T) (*core.DB, *storage.Table) {
	t.Helper()
	cfg := core.Bamboo()
	cfg.MVCC = true
	db := core.NewDB(cfg)
	t.Cleanup(func() { db.Close() })
	schema := storage.NewSchema("t", storage.Column{Name: "v", Type: storage.ColInt64})
	tbl := db.Catalog.MustCreateTable(schema, 4)
	for k := uint64(0); k < 4; k++ {
		tbl.MustInsertRow(k, nil)
	}
	return db, tbl
}

// TestRunClientsWindows checks that every measured sample lands in
// exactly one window, in order, and that the windows tile the span.
func TestRunClientsWindows(t *testing.T) {
	db, tbl := mvccDB(t)
	gen := func(int, int) core.TxnFunc {
		return func(tx core.Tx) error {
			time.Sleep(time.Millisecond)
			_, err := tx.Read(tbl.Get(1))
			return err
		}
	}
	const d, nw = 300 * time.Millisecond, 3
	l := runClients(core.NewLockEngine(db), gen, make([][]int64, 2), 20*time.Millisecond, d, nw)
	if len(l.windows) != nw {
		t.Fatalf("%d windows, want %d", len(l.windows), nw)
	}
	var n uint64
	var span time.Duration
	for i, w := range l.windows {
		if len(w.lat) == 0 || !slices.IsSorted(w.lat) {
			t.Errorf("window %d: %d samples, sorted %v; want some, sorted", i, len(w.lat), slices.IsSorted(w.lat))
		}
		n += uint64(len(w.lat))
		span += w.d
	}
	if n != l.measured || l.measured > l.completed {
		t.Errorf("windows hold %d samples, measured %d, completed %d", n, l.measured, l.completed)
	}
	if span != d {
		t.Errorf("windows span %v, want %v", span, d)
	}
}

// TestProbeTxForwardsMarkReadOnly fails if the Tx wrapper stops
// forwarding MarkReadOnly: core.MarkReadOnly would then see a plain Tx,
// and a read-only transaction would run through shared locks.
func TestProbeTxForwardsMarkReadOnly(t *testing.T) {
	for _, traced := range []bool{false, true} {
		db, tbl := mvccDB(t)
		var tr *tracer
		if traced {
			tr = newTracer(1)
		}
		var col stats.Collector
		s := (&probeEngine{Engine: core.NewLockEngine(db), tr: tr}).NewSession(0, &col)
		var marked bool
		err := s.Run(func(tx core.Tx) error {
			marked = core.MarkReadOnly(tx)
			_, err := tx.Read(tbl.Get(1))
			return err
		})
		if err != nil {
			t.Fatalf("traced=%v: Run: %v", traced, err)
		}
		if !marked || col.SnapshotReads != 1 {
			t.Fatalf("traced=%v: MarkReadOnly returned %v and the engine served %d snapshot reads; want true and 1",
				traced, marked, col.SnapshotReads)
		}
		if traced {
			if n := spanCount(tr, kSnapRead); n != 1 {
				t.Fatalf("recorded %d snapshot_read spans, want 1", n)
			}
			if n := spanCount(tr, kRead); n != 0 {
				t.Fatalf("recorded %d locking read spans, want 0", n)
			}
		}
	}
}

func TestProbeCountsCommittedUpdates(t *testing.T) {
	db, tbl := mvccDB(t)
	s := (&probeEngine{Engine: core.NewLockEngine(db)}).NewSession(0, &stats.Collector{})
	for i := 0; i < 3; i++ {
		if err := s.Run(func(tx core.Tx) error {
			return tx.Update(tbl.Get(uint64(i)), func([]byte) {})
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(func(tx core.Tx) error {
		if err := tx.Update(tbl.Get(3), func([]byte) {}); err != nil {
			return err
		}
		return core.ErrUserAbort // rolled back: its update must not count
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.(*probeSession).updates; got != 3 {
		t.Fatalf("counted %d committed updates, want 3", got)
	}
}

func TestTraceDeviceForwardsBatchAndStats(t *testing.T) {
	inner := wal.NewMemDevice(true)
	d := &traceDevice{inner: inner}
	recs := [][]byte{wal.Encode(&wal.Record{TxnID: 1}), wal.Encode(&wal.Record{TxnID: 2})}
	if _, err := d.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if inner.Len() != 2 || inner.Batches() != 1 {
		t.Fatalf("inner device holds %d records in %d writes, want 2 in 1", inner.Len(), inner.Batches())
	}
	var sd wal.StatsDevice = d
	if got, want := sd.Stats(), inner.Stats(); got != want {
		t.Fatalf("Stats %+v, want the inner device's %+v", got, want)
	}

	// Through a DB: DB.WALStats reads the wrapper's Stats.
	cfg := core.Bamboo()
	cfg.LogDevice = &traceDevice{inner: wal.NewMemDevice(true)}
	db := core.NewDB(cfg)
	defer db.Close()
	schema := storage.NewSchema("t", storage.Column{Name: "v", Type: storage.ColInt64})
	tbl := db.Catalog.MustCreateTable(schema, 1)
	tbl.MustInsertRow(0, nil)
	s := core.NewLockEngine(db).NewSession(0, &stats.Collector{})
	if err := s.Run(func(tx core.Tx) error { return tx.Update(tbl.Get(0), func([]byte) {}) }); err != nil {
		t.Fatal(err)
	}
	if ws := db.WALStats(); ws.Appends != 1 || ws.Bytes == 0 {
		t.Fatalf("DB.WALStats %+v through the wrapper, want 1 append with bytes", ws)
	}
}

func TestTraceDeviceAttributesSpans(t *testing.T) {
	tr := newTracer(2)
	tr.clients[1].txnID.Store(42)
	d := &traceDevice{inner: wal.NewMemDevice(false), tr: tr}
	if _, err := d.Append(wal.Encode(&wal.Record{TxnID: 42})); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.clients[1].spans); n != 1 || tr.clients[1].spans[0].kind != kWALAppend {
		t.Fatalf("client 1 holds spans %+v, want one wal.append", tr.clients[1].spans)
	}
	if _, err := d.Append(wal.Encode(&wal.Record{TxnID: 7})); err != nil {
		t.Fatal(err)
	}
	if tr.orphans.Load() != 1 || len(tr.clients[0].spans) != 0 {
		t.Fatalf("a record of no running transaction must count as an orphan")
	}
}

func TestTracedRunSpans(t *testing.T) {
	// One committed transaction with a retry-free attempt: txn, attempt,
	// update, commit and the commit's device call.
	tr := newTracer(1)
	cfg := core.Bamboo()
	cfg.LogDevice = &traceDevice{inner: wal.NewMemDevice(true), tr: tr}
	db := core.NewDB(cfg)
	defer db.Close()
	schema := storage.NewSchema("t", storage.Column{Name: "v", Type: storage.ColInt64})
	tbl := db.Catalog.MustCreateTable(schema, 1)
	tbl.MustInsertRow(0, nil)
	s := (&probeEngine{Engine: core.NewLockEngine(db), tr: tr}).NewSession(0, &stats.Collector{})
	if err := s.Run(func(tx core.Tx) error { return tx.Update(tbl.Get(0), func([]byte) {}) }); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[kind]uint64{kTxn: 1, kAttempt: 1, kUpdate: 1, kCommit: 1, kWALAppend: 1, kRead: 0} {
		if n := spanCount(tr, k); n != want {
			t.Errorf("%d %s spans, want %d", n, k, want)
		}
	}
	spans := tr.clients[0].kept[0]
	for _, sp := range spans {
		if sp.kind == kWALAppend && spans[sp.parent].kind != kCommit {
			t.Errorf("wal.append span parented to %s, want commit", spans[sp.parent].kind)
		}
	}
	if tr.orphans.Load() != 0 {
		t.Errorf("device call not attributed to the running transaction")
	}
}
