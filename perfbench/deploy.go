package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"mantle/internal/core"
	"mantle/internal/experiments"
	"mantle/internal/indexnode"
	"mantle/internal/netsim"
	"mantle/internal/tafdb"
	"mantle/internal/types"
)

// The deployment is fixed: experiments.DefaultMantleOpts (TopDirPathCache
// k=3, raft log batching with pipelining, auto delta records, follower
// read) on the Table-2 cost model of internal/experiments/deploy.go, with
// a TafDB WAL attached so storage sits on the write path. The 2 ms RTT is
// the repository's 10x-stretched clock: host sleeps round sub-millisecond
// waits up to about 1 ms, so a shorter RTT would measure the timer.
const (
	rtt         = 2 * time.Millisecond
	fsyncCost   = 400 * time.Microsecond
	walSyncCost = 400 * time.Microsecond

	tafShards  = 18
	tafWorkers = 20
	tafOpCost  = 400 * time.Microsecond
	tafTxnCost = 1500 * time.Microsecond

	idxVoters    = 3
	idxWorkers   = 12
	idxBaseCost  = 200 * time.Microsecond
	idxLevelCost = 100 * time.Microsecond
	idxWriteCost = 200 * time.Microsecond

	raftBatch = 256
	retryBase = 200 * time.Microsecond
	retryMax  = 20 * time.Millisecond
)

// newDeployment builds and starts the production Mantle deployment; it
// returns once the IndexNode group has elected a leader.
func newDeployment() (*core.Mantle, error) {
	o := experiments.DefaultMantleOpts()
	return core.New(core.Config{
		Fabric: netsim.NewFabric(netsim.Config{RTT: rtt}),
		TafDB: tafdb.Config{
			Shards: tafShards, Workers: tafWorkers,
			OpCost: tafOpCost, TxnCost: tafTxnCost,
			Delta:       o.MantleDelta,
			WALSyncCost: walSyncCost,
			Batch2PC:    o.MantleBatch,
			RetryBase:   retryBase, RetryMax: retryMax,
		},
		RetryBase: retryBase, RetryMax: retryMax,
		Index: indexnode.Config{
			Voters: idxVoters,
			K:      o.MantleK, CacheEnabled: o.MantleCache,
			FollowerRead:   o.MantleFollowerRead,
			Workers:        idxWorkers,
			LookupBaseCost: idxBaseCost, LookupLevelCost: idxLevelCost,
			WriteCost: idxWriteCost,
			FsyncCost: fsyncCost, BatchEnabled: o.MantleBatch, MaxBatch: raftBatch,
			Pipeline: o.MantleBatch,
		},
	})
}

// setupTimes splits one set-up into its parts.
type setupTimes struct {
	total, bulkInsert, bulkAdd time.Duration
}

// With the WAL attached every loaded row waits for a sync. Concurrent
// loaders on a shard share each sync through group commit, so loading
// in small batches on many goroutines takes rows/(loaders per shard)
// syncs instead of one per row.
const (
	populateWorkers = 2048
	populateBatch   = 16
)

// populate loads ns into m. Directories load level by level and objects
// last, so every row's parent attribute row exists before a child's
// link-count delta reaches it. Each batch holds rows of one parent, which
// keeps its link-count repair to one delta per batch.
func populate(m *core.Mantle, ns *namespace) (bulkInsert, bulkAdd time.Duration, err error) {
	db := m.DB()
	var maxID types.InodeID
	for _, d := range ns.dirs {
		maxID = max(maxID, d.id)
	}
	db.ReserveIDs(maxID)

	start := time.Now()
	var batches [][]types.Entry
	flush := func() error {
		err := loadBatches(db, batches)
		batches = batches[:0]
		return err
	}
	level := -1
	for i := 0; i < len(ns.dirs); {
		d := ns.dirs[i]
		if d.level != level {
			if err := flush(); err != nil {
				return 0, 0, err
			}
			level = d.level
		}
		j := i
		var b []types.Entry
		for ; j < len(ns.dirs) && j-i < populateBatch && ns.dirs[j].level == level && ns.dirs[j].pid == d.pid; j++ {
			e := ns.dirs[j]
			b = append(b, types.Entry{Pid: e.pid, Name: e.name, ID: e.id, Kind: types.KindDir, Perm: types.PermAll})
		}
		batches = append(batches, b)
		i = j
	}
	if err := flush(); err != nil {
		return 0, 0, err
	}
	for i := 0; i < len(ns.objs); {
		pid := ns.objs[i].pid
		j := i
		var b []types.Entry
		for ; j < len(ns.objs) && j-i < populateBatch && ns.objs[j].pid == pid; j++ {
			o := ns.objs[j]
			b = append(b, types.Entry{Pid: pid, Name: o.name, ID: db.NewID(), Kind: types.KindObject,
				Perm: types.PermAll, Attr: types.Attr{Size: o.size}})
		}
		batches = append(batches, b)
		i = j
	}
	if err := flush(); err != nil {
		return 0, 0, err
	}
	bulkInsert = time.Since(start)

	start = time.Now()
	access := make([]types.AccessEntry, len(ns.dirs))
	for i, d := range ns.dirs {
		access[i] = types.AccessEntry{Pid: d.pid, Name: d.name, ID: d.id, Perm: types.PermAll}
	}
	m.Index().BulkAdd(access)
	return bulkInsert, time.Since(start), nil
}

// loadBatches bulk-inserts the batches concurrently. Parents hash
// across shards, so consecutive batches spread the loaders over them.
func loadBatches(db *tafdb.DB, batches [][]types.Entry) error {
	errs := parallel(len(batches), populateWorkers, func(i int) error { return db.BulkInsert(batches[i]) })
	if len(errs) > 0 {
		return fmt.Errorf("bulk insert: %w", errs[0])
	}
	return nil
}

// warmup resolves every directory in paths once, concurrently, so the
// replicas' TopDirPathCaches hold the working set before measuring.
func warmup(m *core.Mantle, paths []string) error {
	errs := parallel(len(paths), 64, func(i int) error {
		if _, err := m.Lookup(m.Caller().Begin(), paths[i]); err != nil {
			return fmt.Errorf("warmup lookup %s: %w", paths[i], err)
		}
		return nil
	})
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// parallel calls fn(i) for every i in [0, n) on up to workers
// goroutines, worker w taking i = w, w+workers, ..., and returns the
// non-nil errors in index order.
func parallel(n, workers int, fn func(i int) error) []error {
	workers = min(workers, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				errs[i] = fn(i)
			}
		}(w)
	}
	wg.Wait()
	var out []error
	for _, err := range errs {
		if err != nil {
			out = append(out, err)
		}
	}
	return out
}

// setUp builds a deployment holding a freshly generated namespace and
// warms it. The returned times cover namespace generation, population,
// leader election and warmup.
func setUp(p *plan) (*core.Mantle, int, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	ns := p.namespace()
	entries := len(ns.dirs) + len(ns.objs)
	m, err := newDeployment()
	if err != nil {
		return nil, 0, t, fmt.Errorf("deploy: %w", err)
	}
	if t.bulkInsert, t.bulkAdd, err = populate(m, ns); err != nil {
		m.Stop()
		return nil, 0, t, err
	}
	warm := ns.warm
	ns = nil
	if err := warmup(m, warm); err != nil {
		m.Stop()
		return nil, 0, t, err
	}
	t.total = time.Since(start)
	return m, entries, t, nil
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
