package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"bamboo/internal/core"
	"bamboo/internal/stats"
	"bamboo/internal/storage"
	"bamboo/internal/wal"
)

// kind names a span: one layer boundary the benchmark records from its
// own wrappers around the engine's public entry points.
type kind uint8

const (
	kTxn       kind = iota // Session.Run, call to return
	kAttempt               // one TxnFunc call, under txn
	kRead                  // locking Tx.Read, under attempt
	kSnapRead              // Tx.Read after MarkReadOnly returned true, under attempt
	kUpdate                // Tx.Update, under attempt
	kInsert                // Tx.Insert, under attempt
	kCommit                // final attempt return to Run return, under txn
	kWALAppend             // one log device call, under commit
	nKinds
)

var kindNames = [nKinds]string{"txn", "attempt", "read", "snapshot_read", "update", "insert", "commit", "wal.append"}

func (k kind) String() string { return kindNames[k] }

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch; parent indexes the same transaction's span slice (-1
// for the root).
type span struct {
	kind       kind
	parent     int32
	start, end int64
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap each
// other or stick out of their parent; only the union inside the parent
// counts. order is scratch space, returned for reuse.
func selfTimes(spans []span, out []int64, order []int32) ([]int64, []int32) {
	out, order = out[:0], order[:0]
	for i, s := range spans {
		out = append(out, s.end-s.start)
		if s.parent >= 0 {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		sa, sb := &spans[a], &spans[b]
		if sa.parent != sb.parent {
			return int(sa.parent - sb.parent)
		}
		switch {
		case sa.start < sb.start:
			return -1
		case sa.start > sb.start:
			return 1
		}
		return 0
	})
	for k := 0; k < len(order); {
		p := spans[order[k]].parent
		ps, pe := spans[p].start, spans[p].end
		var covered, lo, hi int64 // [lo, hi) is the current merged run
		for ; k < len(order) && spans[order[k]].parent == p; k++ {
			c := &spans[order[k]]
			s, e := max(c.start, ps), min(c.end, pe)
			if e <= s {
				continue
			}
			if s > hi {
				covered += hi - lo
				lo, hi = s, e
			} else if e > hi {
				hi = e
			}
		}
		out[p] -= covered + hi - lo
	}
	return out, order
}

// keepTxns is how many transactions per client keep their raw spans for
// the trace file; every transaction feeds the histograms.
const keepTxns = 500

// clientTrace is one client's span recorder. Only its own client's
// goroutine writes it, except txnID, which the log device wrapper reads
// to find the transaction a record belongs to.
type clientTrace struct {
	epoch time.Time
	txnID atomic.Uint64
	spans []span
	stack []int32 // open spans

	lastAttempt int32 // index of the latest attempt span
	attempts    uint64
	txns        uint64

	self   [nKinds]stats.Hist // self time per span kind
	total  [nKinds]stats.Hist // full duration per span kind
	retry  stats.Hist         // Run start to final attempt start
	body   stats.Hist         // final attempt duration
	commit stats.Hist         // final attempt return to Run return

	lockOps, lockFails uint64 // locking Read/Update calls and their errors

	selfBuf  []int64
	orderBuf []int32
	kept     [][]span
}

func (t *clientTrace) now() int64 { return int64(time.Since(t.epoch)) }

func (t *clientTrace) open(k kind) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: k, parent: parent, start: t.now()})
	t.stack = append(t.stack, i)
	return i
}

func (t *clientTrace) close(i int32) {
	t.spans[i].end = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *clientTrace) beginTxn() {
	t.spans, t.stack = t.spans[:0], t.stack[:0]
	t.lastAttempt = -1
	t.open(kTxn)
}

func (t *clientTrace) beginAttempt(id uint64) {
	t.txnID.Store(id)
	t.attempts++
	t.lastAttempt = t.open(kAttempt)
}

func (t *clientTrace) endAttempt() { t.close(t.lastAttempt) }

// endTxn closes the txn span, adds the commit span (final attempt return
// to Run return) and folds the transaction into the histograms.
func (t *clientTrace) endTxn() {
	t.close(0)
	t.txnID.Store(0)
	t.txns++
	if t.lastAttempt < 0 {
		return
	}
	root, last := t.spans[0], t.spans[t.lastAttempt]
	ci := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: kCommit, parent: 0, start: last.end, end: root.end})
	for i := range t.spans {
		if t.spans[i].kind == kWALAppend {
			t.spans[i].parent = ci
		}
	}
	t.retry.Record(time.Duration(last.start - root.start))
	t.body.Record(time.Duration(last.end - last.start))
	t.commit.Record(time.Duration(root.end - last.end))
	t.selfBuf, t.orderBuf = selfTimes(t.spans, t.selfBuf, t.orderBuf)
	for i, s := range t.spans {
		t.self[s.kind].Record(time.Duration(t.selfBuf[i]))
		t.total[s.kind].Record(time.Duration(s.end - s.start))
	}
	if len(t.kept) < keepTxns {
		t.kept = append(t.kept, slices.Clone(t.spans))
	}
}

// walSpan records a log device call made on this client's goroutine.
// Its parent is fixed up to the commit span in endTxn.
func (t *clientTrace) walSpan(start, end int64) {
	t.spans = append(t.spans, span{kind: kWALAppend, parent: 0, start: start, end: end})
}

// tracer holds the per-client recorders of one traced run.
type tracer struct {
	epoch   time.Time
	clients []*clientTrace
	orphans atomic.Uint64 // device calls no running transaction claimed
}

func newTracer(n int) *tracer {
	tr := &tracer{epoch: time.Now(), clients: make([]*clientTrace, n)}
	for i := range tr.clients {
		tr.clients[i] = &clientTrace{epoch: tr.epoch}
	}
	return tr
}

// probeEngine wraps an engine's sessions the way internal/rpcsim does.
// Every wrapped session counts its transactions' committed updates (the
// ycsb-durable oracle needs them); with a tracer it also records spans.
type probeEngine struct {
	core.Engine
	tr *tracer // nil: count only
}

// NewSession implements core.Engine.
func (e *probeEngine) NewSession(worker int, col *stats.Collector) core.Session {
	s := &probeSession{inner: e.Engine.NewSession(worker, col)}
	if e.tr != nil {
		s.ct = e.tr.clients[worker]
	}
	s.tx.s = s
	s.body = s.attempt // bound once: a per-Run closure would allocate
	return s
}

type probeSession struct {
	inner   core.Session
	ct      *clientTrace
	fn      core.TxnFunc
	body    core.TxnFunc
	tx      probeTx
	last    error // the latest attempt's result
	updates int64 // updates of committed transactions
}

// Run implements core.Session.
func (s *probeSession) Run(fn core.TxnFunc) error {
	s.fn = fn
	if s.ct != nil {
		s.ct.beginTxn()
	}
	err := s.inner.Run(s.body)
	if s.ct != nil {
		s.ct.endTxn()
	}
	// Run returns nil for user aborts too; their updates rolled back.
	if err == nil && s.last == nil {
		s.updates += s.tx.updates
	}
	s.fn = nil
	return err
}

func (s *probeSession) attempt(tx core.Tx) error {
	s.tx.Tx, s.tx.updates, s.tx.snapshot = tx, 0, false
	if s.ct != nil {
		s.ct.beginAttempt(tx.ID())
	}
	s.last = s.fn(&s.tx)
	if s.ct != nil {
		s.ct.endAttempt()
	}
	return s.last
}

// probeTx wraps one attempt's Tx.
type probeTx struct {
	core.Tx
	s        *probeSession
	updates  int64
	snapshot bool
}

// MarkReadOnly forwards the snapshot opt-in. core.Tx does not include
// it, so without this method core.MarkReadOnly would see a plain Tx and
// send read-only transactions through shared locks.
func (t *probeTx) MarkReadOnly() bool {
	t.snapshot = core.MarkReadOnly(t.Tx)
	return t.snapshot
}

// Read implements core.Tx.
func (t *probeTx) Read(row *storage.Row) ([]byte, error) {
	ct := t.s.ct
	if ct == nil {
		return t.Tx.Read(row)
	}
	k := kRead
	if t.snapshot {
		k = kSnapRead
	}
	i := ct.open(k)
	img, err := t.Tx.Read(row)
	ct.close(i)
	if !t.snapshot {
		ct.countLockOp(err)
	}
	return img, err
}

// Update implements core.Tx.
func (t *probeTx) Update(row *storage.Row, mutate func([]byte)) error {
	var err error
	if ct := t.s.ct; ct != nil {
		i := ct.open(kUpdate)
		err = t.Tx.Update(row, mutate)
		ct.close(i)
		ct.countLockOp(err)
	} else {
		err = t.Tx.Update(row, mutate)
	}
	if err == nil {
		t.updates++
	}
	return err
}

// Insert implements core.Tx.
func (t *probeTx) Insert(tbl *storage.Table, key uint64, img []byte) error {
	ct := t.s.ct
	if ct == nil {
		return t.Tx.Insert(tbl, key, img)
	}
	i := ct.open(kInsert)
	err := t.Tx.Insert(tbl, key, img)
	ct.close(i)
	return err
}

func (t *clientTrace) countLockOp(err error) {
	t.lockOps++
	if err != nil {
		t.lockFails++
	}
}

// traceDevice wraps the recording in-memory log device the default
// configuration creates. With tr set it records a wal.append span per
// call and hands it to the client whose transaction the record belongs
// to; with tr nil it only forwards. It forwards the optional AppendBatch
// and Stats too: DB.WALStats reads Stats through the wal.StatsDevice
// assertion, and the group committer uses AppendBatch.
type traceDevice struct {
	inner *wal.MemDevice
	tr    *tracer
}

// Append implements wal.Device.
func (d *traceDevice) Append(rec []byte) (uint64, error) {
	if d.tr == nil {
		return d.inner.Append(rec)
	}
	start := int64(time.Since(d.tr.epoch))
	lsn, err := d.inner.Append(rec)
	d.attach(rec, start, int64(time.Since(d.tr.epoch)))
	return lsn, err
}

// AppendBatch implements wal.BatchDevice.
func (d *traceDevice) AppendBatch(recs [][]byte) (uint64, error) {
	if d.tr == nil || len(recs) == 0 {
		return d.inner.AppendBatch(recs)
	}
	start := int64(time.Since(d.tr.epoch))
	lsn, err := d.inner.AppendBatch(recs)
	d.attach(recs[0], start, int64(time.Since(d.tr.epoch)))
	return lsn, err
}

// Stats implements wal.StatsDevice.
func (d *traceDevice) Stats() wal.DeviceStats { return d.inner.Stats() }

// attach gives a device span to the client running the record's
// transaction. A record starts with its transaction id
// (wal.AppendRecord), the same id Tx.ID reported to the attempt. Without
// group commit the device is called on that client's own goroutine.
func (d *traceDevice) attach(rec []byte, start, end int64) {
	if len(rec) >= 8 {
		id := binary.LittleEndian.Uint64(rec)
		for _, ct := range d.tr.clients {
			if ct.txnID.Load() == id {
				ct.walSpan(start, end)
				return
			}
		}
	}
	d.tr.orphans.Add(1)
}

// merge folds o's counters and histograms into t.
func (t *clientTrace) merge(o *clientTrace) {
	t.attempts += o.attempts
	t.txns += o.txns
	t.lockOps += o.lockOps
	t.lockFails += o.lockFails
	for k := range t.self {
		t.self[k].Merge(&o.self[k])
		t.total[k].Merge(&o.total[k])
	}
	t.retry.Merge(&o.retry)
	t.body.Merge(&o.body)
	t.commit.Merge(&o.commit)
}

// spanJSON is one span of the trace file.
type spanJSON struct {
	Name    string `json:"name"`
	Parent  int32  `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// writeTrace writes the kept spans as JSON lines, one transaction per
// line, to dir/trace-<workload>-seed<seed>.jsonl and returns the path.
func writeTrace(dir, name string, seed int64, tr *tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var self []int64
	var order []int32
	for c, ct := range tr.clients {
		for _, spans := range ct.kept {
			self, order = selfTimes(spans, self, order)
			line := struct {
				Client int        `json:"client"`
				Spans  []spanJSON `json:"spans"`
			}{Client: c}
			for i, s := range spans {
				line.Spans = append(line.Spans, spanJSON{s.kind.String(), s.parent, s.start, s.end, self[i]})
			}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
