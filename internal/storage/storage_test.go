package storage

import (
	"bytes"
	"testing"
	"testing/quick"
	"unsafe"
)

func testSchema() *Schema {
	return NewSchema("t",
		Column{Name: "id", Type: ColInt64},
		Column{Name: "name", Type: ColBytes, Size: 12},
		Column{Name: "score", Type: ColFloat64},
		Column{Name: "pad", Type: ColBytes, Size: 3},
	)
}

func TestSchemaLayout(t *testing.T) {
	s := testSchema()
	if s.RowSize() != 8+12+8+3 {
		t.Fatalf("row size = %d", s.RowSize())
	}
	if s.NumColumns() != 4 {
		t.Fatalf("columns = %d", s.NumColumns())
	}
	if s.Offset(0) != 0 || s.Offset(1) != 8 || s.Offset(2) != 20 || s.Offset(3) != 28 {
		t.Fatalf("offsets: %d %d %d %d", s.Offset(0), s.Offset(1), s.Offset(2), s.Offset(3))
	}
	if s.ColWidth(1) != 12 || s.ColWidth(0) != 8 {
		t.Fatal("widths wrong")
	}
	if s.ColIndex("score") != 2 {
		t.Fatal("ColIndex wrong")
	}
}

func TestSchemaDuplicateColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSchema("bad", Column{Name: "a", Type: ColInt64}, Column{Name: "a", Type: ColInt64})
}

func TestSchemaMissingColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	testSchema().ColIndex("nope")
}

func TestInt64RoundTrip(t *testing.T) {
	s := testSchema()
	f := func(v int64) bool {
		img := s.NewRowImage()
		s.SetInt64(img, 0, v)
		return s.GetInt64(img, 0) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddInt64(t *testing.T) {
	s := testSchema()
	img := s.NewRowImage()
	s.SetInt64(img, 0, 10)
	if got := s.AddInt64(img, 0, -3); got != 7 {
		t.Fatalf("AddInt64 = %d", got)
	}
	if s.GetInt64(img, 0) != 7 {
		t.Fatal("AddInt64 did not persist")
	}
}

func TestBytesPadAndTruncate(t *testing.T) {
	s := testSchema()
	img := s.NewRowImage()
	s.SetBytes(img, 1, []byte("hi"))
	got := s.GetBytes(img, 1)
	if !bytes.Equal(got[:2], []byte("hi")) || got[2] != 0 {
		t.Fatalf("padding wrong: %q", got)
	}
	s.SetBytes(img, 1, []byte("0123456789abcdefgh")) // longer than 12
	if !bytes.Equal(s.GetBytes(img, 1), []byte("0123456789ab")) {
		t.Fatalf("truncation wrong: %q", s.GetBytes(img, 1))
	}
}

func TestCopyCols(t *testing.T) {
	s := testSchema()
	src := s.NewRowImage()
	dst := s.NewRowImage()
	s.SetInt64(src, 0, 42)
	s.SetBytes(src, 1, []byte("abc"))
	s.SetFloat64(src, 2, 7)
	// Copy only columns 0 and 2.
	s.CopyCols(dst, src, 1<<0|1<<2)
	if s.GetInt64(dst, 0) != 42 || s.GetFloat64(dst, 2) != 7 {
		t.Fatal("selected columns not copied")
	}
	if !bytes.Equal(s.GetBytes(dst, 1), make([]byte, 12)) {
		t.Fatal("unselected column was copied")
	}
}

func TestTableInsertGet(t *testing.T) {
	tbl := NewTable(testSchema(), 16)
	img := tbl.Schema.NewRowImage()
	tbl.Schema.SetInt64(img, 0, 5)
	r, err := tbl.InsertRow(100, img)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Get(100) != r || tbl.Get(101) != nil {
		t.Fatal("Get wrong")
	}
	if _, err := tbl.InsertRow(100, nil); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	if tbl.Rows() != 1 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	if r.Schema() != tbl.Schema || r.Key != 100 {
		t.Fatal("row back-references wrong")
	}
	if _, err := tbl.InsertRow(101, make([]byte, 3)); err == nil {
		t.Fatal("bad image size accepted")
	}
}

func TestHashIndexBasics(t *testing.T) {
	idx := NewHashIndex(8)
	rows := make([]*Row, 100)
	for i := range rows {
		rows[i] = &Row{Key: uint64(i)}
		if !idx.Insert(uint64(i), rows[i]) {
			t.Fatal("insert failed")
		}
	}
	if idx.Len() != 100 {
		t.Fatalf("len = %d", idx.Len())
	}
	for i := range rows {
		if idx.Get(uint64(i)) != rows[i] {
			t.Fatalf("get %d wrong", i)
		}
	}
	if !idx.Delete(50) || idx.Delete(50) {
		t.Fatal("delete semantics wrong")
	}
	if idx.Get(50) != nil {
		t.Fatal("deleted key still present")
	}
	seen := 0
	idx.Range(func(k uint64, r *Row) bool {
		seen++
		return true
	})
	if seen != 99 {
		t.Fatalf("range visited %d", seen)
	}
	// Early termination.
	seen = 0
	idx.Range(func(k uint64, r *Row) bool {
		seen++
		return false
	})
	if seen != 1 {
		t.Fatalf("range did not stop: %d", seen)
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	tbl, err := c.CreateTable(testSchema(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Table("t") != tbl || c.Table("missing") != nil {
		t.Fatal("lookup wrong")
	}
	if _, err := c.CreateTable(testSchema(), 4); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if names := c.Tables(); len(names) != 1 || names[0] != "t" {
		t.Fatalf("tables = %v", names)
	}
}

// TestRowSize pins Row at 240 bytes, an exact Go allocation size class:
// one more word rounds every row up to the 256-byte class, 16 bytes more
// per row across the whole catalog. The MVCC prune-queued bit shares a
// word with the 32-bit PartitionID for this reason.
func TestRowSize(t *testing.T) {
	if got := unsafe.Sizeof(Row{}); got != 240 {
		t.Fatalf("unsafe.Sizeof(Row{}) = %d, want 240", got)
	}
}

// TestRowPruneQueuedBit: the bit is taken once until cleared.
func TestRowPruneQueuedBit(t *testing.T) {
	var r Row
	if !r.MarkPruneQueued() {
		t.Fatal("first mark on a fresh row failed")
	}
	if r.MarkPruneQueued() {
		t.Fatal("second mark succeeded while the row was queued")
	}
	r.ClearPruneQueued()
	if !r.MarkPruneQueued() {
		t.Fatal("mark after clear failed")
	}
}
