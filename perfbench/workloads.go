package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bamboo/internal/core"
	"bamboo/internal/stats"
	"bamboo/internal/wal"
	"bamboo/internal/workload/synth"
	"bamboo/internal/workload/tpcc"
	"bamboo/internal/workload/ycsb"
)

// outcome is what a workload's checks see once the clients stopped.
type outcome struct {
	completed uint64 // Run calls that returned nil, warm-up included
	updates   int64  // updates of committed transactions, from the Tx wrapper
	report    stats.Report
	tr        *tracer // nil on untraced runs
}

// instance is one loaded workload, ready for clients.
type instance struct {
	db  *core.DB
	gen core.Generator
	// probe wraps sessions even on untraced runs, because the oracle
	// needs the committed-update count only the Tx wrapper sees.
	probe bool
	// oracle checks the program's output; engaged checks that the
	// mechanism the workload exists to measure did run.
	oracle  func(o *outcome) error
	engaged func(o *outcome) error
	// recover replays the durable state into a fresh DB and checks it
	// (nil when the workload keeps no durable state); it runs after the
	// DB is closed and returns the replay time.
	recover func(o *outcome) (time.Duration, error)
	cleanup func()
}

// workload builds instances. dir is a fresh scratch directory; dev,
// when non-nil, is offered to newDB for tracing the log device.
type workload struct {
	name string
	load func(seed int64, dir string, dev *traceDevice) (*instance, error)
}

var workloads = []workload{
	{name: "hotspot", load: loadHotspot},
	{name: "tpcc", load: loadTPCC},
	{name: "ycsb-durable", load: loadYCSBDurable},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// newDB opens a DB. When the configuration uses the default log, a traced
// run swaps in the wrapper around the same recording in-memory device the
// default would create; with a WALDir the engine opens its own file
// devices and dev stays unused (dev.inner nil).
func newDB(cfg core.Config, dev *traceDevice) *core.DB {
	if dev != nil && cfg.WALDir == "" {
		dev.inner = wal.NewMemDevice(true)
		cfg.LogDevice = dev
	}
	return core.NewDB(cfg)
}

// loadHotspot is the paper's §5.2 shape: 16-op transactions over 100k
// rows, a read-modify-write of one shared hot tuple at op 0 and 15
// uniform reads, on core.Bamboo() as shipped.
func loadHotspot(seed int64, _ string, dev *traceDevice) (*instance, error) {
	db := newDB(core.Bamboo(), dev)
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	w, err := synth.Load(db, cfg)
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("load hotspot: %w", err)
	}
	return &instance{
		db:  db,
		gen: w.Generator(),
		oracle: func(o *outcome) error {
			if got := w.HotValue(0); got != int64(o.completed) {
				return fmt.Errorf("hot counter %d, want %d completed transactions", got, o.completed)
			}
			return nil
		},
		engaged: func(o *outcome) error {
			if o.report.PerTxnLockWait <= 0 {
				return fmt.Errorf("no lock wait recorded")
			}
			if o.report.Retires == 0 {
				return fmt.Errorf("no lock was retired early")
			}
			return nil
		},
	}, nil
}

// loadTPCC is TPC-C at one warehouse and tpcc.DefaultConfig scale, mix
// Payment 45%, NewOrder 51%, StockLevel 4%, on core.Bamboo() with MVCC
// and the default log.
func loadTPCC(seed int64, _ string, dev *traceDevice) (*instance, error) {
	cfg := core.Bamboo()
	cfg.MVCC = true
	db := newDB(cfg, dev)
	tc := tpcc.DefaultConfig()
	tc.PaymentFraction = 0.45
	tc.StockLevelFraction = 0.04
	tc.Seed = seed
	w, err := tpcc.Load(db, tc)
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("load tpcc: %w", err)
	}
	return &instance{
		db:     db,
		gen:    w.Generator(),
		oracle: func(*outcome) error { return w.CheckConsistency() },
		engaged: func(o *outcome) error {
			if o.report.SnapshotReads == 0 {
				return fmt.Errorf("engine served no snapshot reads")
			}
			if o.tr != nil && spanCount(o.tr, kSnapRead) == 0 {
				return fmt.Errorf("Tx wrapper saw no snapshot reads")
			}
			return nil
		},
	}, nil
}

// ycsbConfig is YCSB with 100k rows of 2×10 B columns, 16 ops at 50/50
// read/update and Zipf θ 0.6. With the paper's 10×100 B columns the log
// and checkpoints wrote close to 300 MB/s to disk and the host disk slowed
// down over a batch of runs; at 10×10 B, slow-disk spells still stretched
// the checkpoints and with them the p99.
func ycsbConfig(seed int64) ycsb.Config {
	c := ycsb.DefaultConfig()
	c.Rows = 100000
	c.Columns = 2
	c.ColumnBytes = 10
	c.Theta = 0.6
	c.Seed = seed
	return c
}

// loadYCSBDurable runs YCSB over 2 hash partitions, each with a file WAL
// of 64-MB segments under dir, group commit, an fsync at most every 200 ms
// per device, and fuzzy checkpoints every second with log truncation. An
// fsync per device write would make every figure follow the host disk's
// fsync latency, which swings 2× from one 4-s repetition to the next. With
// the interval the syncs stay on the commit path, but few enough
// transactions wait for one that the disk does not set the p99.
func loadYCSBDurable(seed int64, dir string, dev *traceDevice) (*instance, error) {
	walDir, ckptDir := filepath.Join(dir, "wal"), filepath.Join(dir, "ckpt")
	cfg := core.Bamboo()
	cfg.Partitions = 2
	cfg.WALDir = walDir
	cfg.WALFsync = wal.FsyncInterval
	cfg.WALFsyncInterval = 200 * time.Millisecond
	cfg.GroupCommit = true
	cfg.Checkpoint = core.CheckpointConfig{Dir: ckptDir, Interval: time.Second, Truncate: true, SegmentBytes: 64 << 20}
	db := newDB(cfg, dev)
	yc := ycsbConfig(seed)
	w, err := ycsb.Load(db, yc)
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("load ycsb: %w", err)
	}
	db.StartCheckpointer()
	conserved := func(w *ycsb.Workload, o *outcome, where string) error {
		if got := w.TotalWrites(); got != o.updates {
			return fmt.Errorf("%s: row stamps sum to %d, want %d committed updates", where, got, o.updates)
		}
		return nil
	}
	return &instance{
		db:     db,
		gen:    w.Generator(),
		probe:  true,
		oracle: func(o *outcome) error { return conserved(w, o, "live DB") },
		engaged: func(*outcome) error {
			if db.WALStats().Syncs == 0 {
				return fmt.Errorf("no fsync issued")
			}
			if db.CheckpointStats().Checkpoints == 0 {
				return fmt.Errorf("no checkpoint taken")
			}
			return nil
		},
		recover: func(o *outcome) (time.Duration, error) {
			rcfg := core.Bamboo()
			rcfg.Partitions = cfg.Partitions
			fresh := core.NewDB(rcfg)
			defer fresh.Close()
			w2, err := ycsb.Load(fresh, yc)
			if err != nil {
				return 0, fmt.Errorf("reload ycsb: %w", err)
			}
			start := time.Now()
			if _, err := fresh.ReplayDirCheckpointed(walDir, ckptDir, true); err != nil {
				return 0, fmt.Errorf("replay: %w", err)
			}
			took := time.Since(start)
			return took, conserved(w2, o, "replayed DB")
		},
		cleanup: func() { os.RemoveAll(dir) },
	}, nil
}

func spanCount(tr *tracer, k kind) uint64 {
	var n uint64
	for _, ct := range tr.clients {
		n += ct.total[k].Count()
	}
	return n
}
