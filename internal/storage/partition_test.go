package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestHashIndexDeleteReinsert(t *testing.T) {
	idx := NewHashIndex(0)
	const n = 500
	for i := 0; i < n; i++ {
		if !idx.Insert(uint64(i), &Row{Key: uint64(i)}) {
			t.Fatalf("insert %d failed", i)
		}
	}
	// Delete every third key; the rest must survive untouched.
	for i := 0; i < n; i += 3 {
		if !idx.Delete(uint64(i)) {
			t.Fatalf("delete %d reported absent", i)
		}
		if idx.Delete(uint64(i)) {
			t.Fatalf("double delete %d reported present", i)
		}
	}
	for i := 0; i < n; i++ {
		got := idx.Get(uint64(i))
		if i%3 == 0 && got != nil {
			t.Fatalf("deleted key %d still present", i)
		}
		if i%3 != 0 && (got == nil || got.Key != uint64(i)) {
			t.Fatalf("surviving key %d lost", i)
		}
	}
	if idx.Delete(uint64(n + 7)) {
		t.Fatal("delete of never-inserted key reported present")
	}
	// Deleted keys can be re-inserted (fresh rows).
	for i := 0; i < n; i += 3 {
		if !idx.Insert(uint64(i), &Row{Key: uint64(i)}) {
			t.Fatalf("re-insert %d failed", i)
		}
	}
	if idx.Len() != n {
		t.Fatalf("len = %d, want %d", idx.Len(), n)
	}
}

// TestCatalogConcurrentCreateLookup races CreateTable against Table/Tables
// lookups: exactly one creator of each name must win, lookups must only
// ever observe fully registered tables, and the run must be -race clean.
func TestCatalogConcurrentCreateLookup(t *testing.T) {
	c := NewCatalog()
	const names = 8
	const workers = 4
	var wg sync.WaitGroup
	wins := make([][]bool, names)
	for n := range wins {
		wins[n] = make([]bool, workers)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < names; n++ {
				schema := NewSchema(fmt.Sprintf("t%d", n), Column{Name: "v", Type: ColInt64})
				if _, err := c.CreateTable(schema, 4); err == nil {
					wins[n][w] = true
				}
				// Interleaved lookups: either nil (not yet created) or a
				// usable table.
				if tbl := c.Table(fmt.Sprintf("t%d", n)); tbl != nil {
					if tbl.Schema.Name != fmt.Sprintf("t%d", n) {
						t.Errorf("lookup returned table %q for t%d", tbl.Schema.Name, n)
					}
				}
				_ = c.Tables()
			}
		}(w)
	}
	wg.Wait()
	for n := range wins {
		winners := 0
		for _, won := range wins[n] {
			if won {
				winners++
			}
		}
		if winners != 1 {
			t.Fatalf("table t%d created %d times", n, winners)
		}
		if c.Table(fmt.Sprintf("t%d", n)) == nil {
			t.Fatalf("table t%d missing after create race", n)
		}
	}
	if got := len(c.Tables()); got != names {
		t.Fatalf("catalog holds %d tables, want %d", got, names)
	}
}

// TestPartitionerInvariants is the partition property test: for any
// partitioner and any key, the key routes to exactly one partition in
// range, the routing is deterministic, and an inserted row lands in (and
// only in) the partition its key routes to.
func TestPartitionerInvariants(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Partitioner
	}{
		{"single", SinglePartition{}},
		{"hash2", HashPartitioner{N: 2}},
		{"hash7", HashPartitioner{N: 7}},
		{"range", FuncPartitioner{N: 4, Fn: func(k uint64) int { return int(k>>32) & 3 }}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := func(key uint64) bool {
				pid := tc.p.Partition(key)
				return pid >= 0 && pid < tc.p.NumPartitions() && pid == tc.p.Partition(key)
			}
			if err := quick.Check(f, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPartitionedTableRouting inserts a keyspace into a partitioned table
// and checks: every key is present in exactly the partition it routes to,
// per-partition counts sum to the total, and Range visits each row exactly
// once across partitions.
func TestPartitionedTableRouting(t *testing.T) {
	const parts = 4
	const n = 2000
	tbl := NewPartitionedTable(testSchema(), n, HashPartitioner{N: parts})
	if tbl.NumPartitions() != parts {
		t.Fatalf("partitions = %d", tbl.NumPartitions())
	}
	rng := rand.New(rand.NewSource(1))
	keys := make(map[uint64]bool, n)
	for len(keys) < n {
		keys[rng.Uint64()] = true
	}
	var anyKey uint64
	for k := range keys {
		anyKey = k
		r := tbl.MustInsertRow(k, nil)
		if want := tbl.PartitionFor(k); int(r.PartitionID) != want {
			t.Fatalf("row %d landed in partition %d, routed to %d", k, r.PartitionID, want)
		}
	}
	// Exactly one partition holds each key.
	for k := range keys {
		holders := 0
		for i := 0; i < parts; i++ {
			if tbl.Partition(i).Get(k) != nil {
				holders++
			}
		}
		if holders != 1 {
			t.Fatalf("key %d present in %d partitions", k, holders)
		}
		if tbl.Get(k) == nil {
			t.Fatalf("routed Get(%d) missed", k)
		}
	}
	var sum int64
	for _, c := range tbl.PartitionRows() {
		if c == 0 {
			t.Fatalf("empty partition in a %d-row hash-partitioned table: %v", n, tbl.PartitionRows())
		}
		sum += c
	}
	if sum != n || tbl.Rows() != n {
		t.Fatalf("partition counts sum to %d, Rows()=%d, want %d", sum, tbl.Rows(), n)
	}
	// Range visits each row exactly once.
	visited := make(map[uint64]int, n)
	tbl.Range(func(k uint64, r *Row) bool {
		visited[k]++
		return true
	})
	if len(visited) != n {
		t.Fatalf("Range visited %d distinct keys, want %d", len(visited), n)
	}
	for k, c := range visited {
		if c != 1 {
			t.Fatalf("Range visited key %d %d times", k, c)
		}
		if !keys[k] {
			t.Fatalf("Range invented key %d", k)
		}
	}
	// Early termination still works across the partition seam.
	seen := 0
	tbl.Range(func(uint64, *Row) bool { seen++; return seen < parts+1 })
	if seen != parts+1 {
		t.Fatalf("early-terminated Range visited %d", seen)
	}
	// Duplicate inserts are rejected partition-locally.
	if _, err := tbl.InsertRow(anyKey, nil); err == nil {
		t.Fatal("duplicate insert accepted")
	}
}

// TestTableOutOfRangeRouting pins the contract for keys a misbehaving
// (or domain-bounded) partitioner routes outside [0, NumPartitions()):
// Get misses cleanly, InsertRow errors rather than panicking.
func TestTableOutOfRangeRouting(t *testing.T) {
	// Routes keys ≥ 100 out of range, like a range partitioner probed
	// beyond its domain.
	p := FuncPartitioner{N: 2, Fn: func(k uint64) int { return int(k / 100) }}
	tbl := NewPartitionedTable(testSchema(), 8, p)
	tbl.MustInsertRow(5, nil)
	if tbl.Get(5) == nil {
		t.Fatal("in-range key missing")
	}
	if got := tbl.Get(250); got != nil {
		t.Fatalf("out-of-range Get returned %v, want nil", got)
	}
	if _, err := tbl.InsertRow(250, nil); err == nil {
		t.Fatal("out-of-range insert accepted")
	}
}

// TestSinglePartitionTableMatchesFlat pins the Partitions=1 compatibility
// contract at the storage layer: a default table has one partition, every
// key routes to it, and rows carry PartitionID 0.
func TestSinglePartitionTableMatchesFlat(t *testing.T) {
	tbl := NewTable(testSchema(), 8)
	if tbl.NumPartitions() != 1 {
		t.Fatalf("default table has %d partitions", tbl.NumPartitions())
	}
	for _, k := range []uint64{0, 1, 1 << 40, ^uint64(0)} {
		if tbl.PartitionFor(k) != 0 {
			t.Fatalf("key %d routed to partition %d", k, tbl.PartitionFor(k))
		}
	}
	r := tbl.MustInsertRow(99, nil)
	if r.PartitionID != 0 {
		t.Fatalf("PartitionID = %d", r.PartitionID)
	}
}

// TestApplyRecord covers the recovery apply path: replaying an
// after-image over an existing row replaces its image (with a private
// copy — the caller may reuse decode buffers), replaying a write for a
// missing row re-creates it in the partition, and misrouted keys or
// wrong-sized images fail loudly.
func TestApplyRecord(t *testing.T) {
	tbl := NewPartitionedTable(testSchema(), 16, HashPartitioner{N: 4})
	schema := tbl.Schema
	r := tbl.MustInsertRow(3, nil)
	pid := tbl.PartitionFor(3)
	p := tbl.Partition(pid)

	img := schema.NewRowImage()
	schema.SetInt64(img, 0, 42)
	applied, err := p.ApplyRecord(tbl, 3, img)
	if err != nil {
		t.Fatal(err)
	}
	if applied != r {
		t.Fatal("apply over an existing row must reuse the row")
	}
	img[0] = 0xFF // mutate the source buffer: the row must own a copy
	if got := schema.GetInt64(r.Entry.CurrentData(), 0); got != 42 {
		t.Fatalf("applied image = %d, want 42 (buffer not copied?)", got)
	}

	// Missing row: re-created in this partition with the image.
	key := uint64(0)
	for k := uint64(100); ; k++ {
		if tbl.PartitionFor(k) == pid {
			key = k
			break
		}
	}
	img2 := schema.NewRowImage()
	schema.SetInt64(img2, 0, 7)
	fresh, err := p.ApplyRecord(tbl, key, img2)
	if err != nil {
		t.Fatal(err)
	}
	if int(fresh.PartitionID) != pid || tbl.Get(key) != fresh {
		t.Fatalf("replayed insert not indexed: %+v", fresh)
	}
	if before := p.Rows(); before != 2 {
		t.Fatalf("partition rows = %d, want 2", before)
	}

	// Misrouted key: rejected.
	wrong := uint64(0)
	for k := uint64(200); ; k++ {
		if tbl.PartitionFor(k) != pid {
			wrong = k
			break
		}
	}
	if _, err := p.ApplyRecord(tbl, wrong, schema.NewRowImage()); err == nil {
		t.Fatal("misrouted replay accepted")
	}
	// Wrong image size: rejected.
	if _, err := p.ApplyRecord(tbl, 3, make([]byte, schema.RowSize()+1)); err == nil {
		t.Fatal("wrong-size replay image accepted")
	}
}
