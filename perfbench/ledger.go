package main

import (
	"runtime"
	"syscall"
	"time"

	"mantle/internal/core"
	"mantle/internal/metrics"
	"mantle/internal/netsim"
	"mantle/internal/raft"
	"mantle/internal/storage"
)

type buckets = [metrics.NumBuckets]int64

// snapshot holds every public counter and histogram of the deployment's
// layers at one instant; two snapshots around a window give the window's
// per-layer ledger.
type snapshot struct {
	at  time.Time
	cpu time.Duration // process user+sys

	mallocs, allocBytes uint64
	gcs                 uint32

	rpcs                   int64
	rpcRetries, timeouts   int64
	raft                   raft.BatchStats
	elections              int64
	ingestWait, commitWait time.Duration
	propose                buckets

	wal                   storage.WALStats
	txns, batched, rounds int64
	txnLat                buckets
	dbRetries             int64
	shardWork             []int64 // reads + txn pieces per shard

	hits, misses              int64
	coalesced                 int64
	leader, follower, learner int64

	idxQueue, tafQueue []buckets
	idxBusy, tafBusy   []time.Duration
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeSnapshot(m *core.Mantle) snapshot {
	db, idx := m.DB(), m.Index()
	s := snapshot{at: time.Now(), cpu: processCPU()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocBytes, s.gcs = ms.Mallocs, ms.TotalAlloc, ms.NumGC

	s.rpcs = m.Caller().Fabric().RPCs()
	s.rpcRetries, s.timeouts, _ = m.Caller().Stats()
	s.raft = idx.RaftBatchStats()
	for _, r := range idx.Rafts() {
		mr := r.MetricsRef()
		_, _, proposals, elections := mr.Snapshot()
		in, cm := mr.StageWaits()
		s.elections += elections
		s.ingestWait += in * time.Duration(proposals)
		s.commitWait += cm * time.Duration(proposals)
	}
	s.propose = idx.ProposeLatency().Buckets()

	s.wal = db.WALStats()
	s.txns, s.batched, s.rounds = db.Batch2PCStats()
	s.txnLat = db.TxnLatency().Buckets()
	s.dbRetries = db.Retries()
	for _, l := range db.ShardLoads() {
		s.shardWork = append(s.shardWork, l.Reads+l.TxnPieces)
	}

	_, _, s.hits, s.misses = idx.CacheStats()
	s.coalesced = idx.CoalescedWalks()
	s.leader, s.follower, s.learner = idx.ReadMix()

	s.idxQueue, s.idxBusy = nodeStats(idx.Nodes())
	s.tafQueue, s.tafBusy = nodeStats(db.Nodes())
	return s
}

func nodeStats(nodes []*netsim.Node) ([]buckets, []time.Duration) {
	q := make([]buckets, len(nodes))
	b := make([]time.Duration, len(nodes))
	for i, n := range nodes {
		q[i] = n.QueueWait().Buckets()
		b[i] = n.BusyTime()
	}
	return q, b
}

// bucketQuantile is the q-quantile of the observations between two
// bucket snapshots, interpolated inside its bucket as metrics.Latency
// does.
func bucketQuantile(before, after buckets, q float64) time.Duration {
	var d buckets
	var n int64
	for i := range d {
		d[i] = after[i] - before[i]
		n += d[i]
	}
	if n == 0 {
		return 0
	}
	target := min(int64(q*float64(n)), n-1)
	var cum int64
	for i, c := range d {
		if c == 0 {
			continue
		}
		if cum+c > target {
			lower := time.Duration(0)
			if i > 0 {
				lower = metrics.BucketBound(i - 1)
			}
			if i == len(d)-1 {
				return lower
			}
			frac := (float64(target-cum) + 0.5) / float64(c)
			return lower + time.Duration(frac*float64(metrics.BucketBound(i)-lower))
		}
		cum += c
	}
	return 0
}

// windowCounts are the benchmark-side counts of the measured window that
// the ledger divides by.
type windowCounts struct {
	ops, writes int
}

// ledger derives the per-layer counter metrics of the window between a
// and b (names and units as in perLayerMetrics).
func ledger(a, b snapshot, c windowCounts) map[string]float64 {
	ops, writes := float64(c.ops), float64(c.writes)
	window := b.at.Sub(a.at)
	out := map[string]float64{}

	out["runtime.allocs_per_op"] = ratio(float64(b.mallocs-a.mallocs), ops)
	out["runtime.alloc_bytes_per_op"] = ratio(float64(b.allocBytes-a.allocBytes), ops)
	out["runtime.gc_per_kop"] = ratio(1000*float64(b.gcs-a.gcs), ops)

	out["rpc.retries_per_kop"] = ratio(1000*float64(b.rpcRetries-a.rpcRetries), ops)
	out["rpc.timeouts"] = float64(b.timeouts - a.timeouts)

	syncs := float64(b.raft.Syncs - a.raft.Syncs)
	proposals := float64(b.raft.Proposals - a.raft.Proposals)
	out["raft.proposals_per_sync"] = ratio(proposals, syncs)
	out["raft.syncs_per_write"] = ratio(syncs, writes)
	out["raft.propose_p50_ms"] = ms(bucketQuantile(a.propose, b.propose, 0.5))
	out["raft.propose_p99_ms"] = ms(bucketQuantile(a.propose, b.propose, 0.99))
	out["raft.ingest_wait_us"] = ratio(us(b.ingestWait-a.ingestWait), proposals)
	out["raft.commit_wait_us"] = ratio(us(b.commitWait-a.commitWait), proposals)
	out["raft.flush_timer_frac"] = ratio(float64(b.raft.FlushTimer-a.raft.FlushTimer), float64(b.raft.Appends-a.raft.Appends))
	out["raft.elections"] = float64(b.elections - a.elections)

	walSyncs := float64(b.wal.Syncs - a.wal.Syncs)
	out["storage.wal_syncs_per_write"] = ratio(walSyncs, writes)
	out["storage.wal_batches_per_sync"] = ratio(float64(b.wal.Covered-a.wal.Covered), walSyncs)

	txns := float64(b.txns - a.txns)
	out["txn.txns_per_round"] = ratio(txns, float64(b.rounds-a.rounds))
	out["txn.batched_frac"] = ratio(float64(b.batched-a.batched), txns)

	out["tafdb.txn_p50_ms"] = ms(bucketQuantile(a.txnLat, b.txnLat, 0.5))
	out["tafdb.txn_p99_ms"] = ms(bucketQuantile(a.txnLat, b.txnLat, 0.99))
	out["tafdb.retries_per_write"] = ratio(float64(b.dbRetries-a.dbRetries), writes)
	var work, peak float64
	for i := range b.shardWork {
		d := float64(b.shardWork[i] - a.shardWork[i])
		work += d
		peak = max(peak, d)
	}
	out["tafdb.shard_load_skew"] = ratio(peak, work/float64(len(b.shardWork)))

	lookups := float64((b.leader + b.follower + b.learner) - (a.leader + a.follower + a.learner))
	out["indexnode.cache_hit_ratio"] = ratio(float64(b.hits-a.hits), float64((b.hits+b.misses)-(a.hits+a.misses)))
	out["indexnode.coalesced_frac"] = ratio(float64(b.coalesced-a.coalesced), lookups)
	out["indexnode.follower_share"] = ratio(float64((b.follower+b.learner)-(a.follower+a.learner)), lookups)

	var busy time.Duration
	var util float64
	queueP99 := func(qa, qb []buckets) float64 {
		var p float64
		for i := range qb {
			p = max(p, ms(bucketQuantile(qa[i], qb[i], 0.99)))
		}
		return p
	}
	out["netsim.indexnode_queue_p99_ms"] = queueP99(a.idxQueue, b.idxQueue)
	out["netsim.tafdb_queue_p99_ms"] = queueP99(a.tafQueue, b.tafQueue)
	for _, set := range []struct {
		a, b    []time.Duration
		workers int
	}{{a.idxBusy, b.idxBusy, idxWorkers}, {a.tafBusy, b.tafBusy, tafWorkers}} {
		for i := range set.b {
			d := set.b[i] - set.a[i]
			busy += d
			util = max(util, float64(d)/(float64(window)*float64(set.workers)))
		}
	}
	out["netsim.util_max"] = util
	modelled := time.Duration(b.rpcs-a.rpcs)*rtt + time.Duration(syncs)*fsyncCost +
		time.Duration(walSyncs)*walSyncCost + busy
	out["netsim.modelled_ms_per_op"] = ratio(ms(modelled), ops)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
