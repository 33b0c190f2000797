package raft

import (
	"fmt"
	"sync"
	"time"

	"mantle/internal/types"
)

var readWaitTimeout = 5 * time.Second

type readResult struct {
	idx uint64
	err error
}

// maxReadRounds bounds the read-index rounds one follower keeps in flight
// to the leader. One round at a time makes a read that arrives mid-round
// wait out that round and then a whole round of its own (~1.5 leader
// round trips); a few overlapping rounds let it start its own at once,
// while a burst still collapses into a handful of RPCs, because arrivals
// beyond the cap queue and the first round to return carries them all.
const maxReadRounds = 4

// readState batches concurrent follower-read index queries, as §5.1.3
// describes ("queries for the commitIndex are batched"): each round is
// one leader RPC carrying every reader queued when the round started.
// Up to maxReadRounds rounds overlap; readers that arrive while all of
// them are in flight queue for the next round to start.
type readState struct {
	mu       sync.Mutex
	waiters  []chan readResult
	inflight int // round carriers running, at most maxReadRounds
}

// ReadIndex returns an index such that any read of state applied up to it
// is linearisable at the time of the call.
//
// On the leader this is the current commit index. (A production
// implementation confirms leadership with a heartbeat round first; in
// this single-process reproduction there are no network partitions, so a
// deposed leader observes its own step-down before serving — the
// simplification is documented in DESIGN.md.)
//
// On a follower or learner the replica queries the leader for its commit
// index through the read batcher; the caller then waits for local apply
// to catch up via WaitApplied. The caller joins only a round that starts
// after it arrives, so the leader's answer is at least the commit index
// at the time of the call. With fewer than maxReadRounds rounds in
// flight its round starts at once; otherwise it waits for the first
// in-flight round to return.
func (r *Raft) ReadIndex() (uint64, error) {
	if r.stopped() {
		return 0, types.ErrStopped
	}
	r.mu.Lock()
	if r.role == Leader {
		idx := r.commitIndex
		r.mu.Unlock()
		return idx, nil
	}
	r.mu.Unlock()

	ch := make(chan readResult, 1)
	r.reads.mu.Lock()
	r.reads.waiters = append(r.reads.waiters, ch)
	if r.reads.inflight < maxReadRounds {
		r.reads.inflight++
		go r.carryReadRounds()
	}
	r.reads.mu.Unlock()

	select {
	case res := <-ch:
		return res.idx, res.err
	case <-r.stopCh:
		return 0, types.ErrStopped
	}
}

// carryReadRounds runs read rounds back to back: each captures every
// queued waiter, asks the leader once, and hands the answer to all of
// them. It exits when a round finds the queue empty.
func (r *Raft) carryReadRounds() {
	for {
		r.reads.mu.Lock()
		waiters := r.reads.waiters
		r.reads.waiters = nil
		if len(waiters) == 0 {
			r.reads.inflight--
			r.reads.mu.Unlock()
			return
		}
		r.reads.mu.Unlock()

		res := r.queryLeaderCommit()
		r.metrics.noteReadRound(len(waiters))
		for _, ch := range waiters {
			ch <- res
		}
	}
}

// queryLeaderCommit issues one RPC to the current leader for its commit
// index.
func (r *Raft) queryLeaderCommit() readResult {
	r.mu.Lock()
	leaderID := r.leaderID
	r.mu.Unlock()
	if leaderID == "" {
		return readResult{err: types.ErrNotLeader}
	}
	leader, ok := r.peers[leaderID]
	if !ok {
		return readResult{err: types.ErrNotLeader}
	}
	if err := r.deliver(leader); err != nil {
		// Leader unreachable (partition or blackhole): surface the fabric
		// error so callers can distinguish "no leader known" from "leader
		// cut off" and degrade accordingly.
		return readResult{err: err}
	}
	if leader.stopped() {
		return readResult{err: types.ErrNotLeader}
	}
	if role, _, _ := leader.Status(); role != Leader {
		return readResult{err: types.ErrNotLeader}
	}
	return readResult{idx: leader.CommitIndex()}
}

// ConsistentRead performs fn once the replica is read-consistent: it
// obtains a ReadIndex and waits for local apply to reach it. Works on the
// leader, followers, and learners.
func (r *Raft) ConsistentRead(fn func() error) error {
	idx, err := r.ReadIndex()
	if err != nil {
		return err
	}
	if err := r.waitAppliedTimeout(idx, readWaitTimeout); err != nil {
		return err
	}
	return fn()
}

// ErrStale reports that a bounded-staleness read could not be served
// locally because the replica's last leader contact is older than the
// caller's staleness bound (partitioned or lagging replica). Callers
// fall back to a linearisable ConsistentRead.
var ErrStale = fmt.Errorf("raft: leader contact exceeds staleness bound: %w", types.ErrUnavailable)

// BoundedStaleRead performs fn at a bounded-staleness read point with no
// leader round trip: the replica uses the leader commit index advertised
// by the most recent AppendEntries/heartbeat exchange as its read index,
// provided that exchange happened within maxStale. After local apply
// catches up to that index, fn observes every write that was committed
// at the leader as of (now − maxStale) — the staleness promise — because
// the leader advertises its commit index on every exchange and exchanges
// are at most a heartbeat interval apart (configure maxStale comfortably
// above HeartbeatInterval).
//
// On the leader it degenerates to a local consistent read. On a replica
// without fresh leader contact it fails with ErrStale instead of serving
// data of unknown age.
func (r *Raft) BoundedStaleRead(maxStale time.Duration, fn func() error) error {
	if r.stopped() {
		return types.ErrStopped
	}
	r.mu.Lock()
	var idx uint64
	if r.role == Leader {
		idx = r.commitIndex
	} else {
		if r.staleContact.IsZero() || time.Since(r.staleContact) > maxStale {
			r.mu.Unlock()
			return ErrStale
		}
		idx = r.staleCommit
	}
	r.mu.Unlock()
	if err := r.waitAppliedTimeout(idx, readWaitTimeout); err != nil {
		return err
	}
	return fn()
}

// TransferLeadership asks the current leader to hand leadership to the
// named peer (§7.2 of the paper rebalances namespace leaders across a
// shared server pool, which needs exactly this). The leader waits
// briefly for the target to be fully caught up, then tells it to campaign
// immediately (the TimeoutNow message of Raft's leadership-transfer
// extension). Returns types.ErrNotLeader when called on a non-leader, or
// an error if the target is unknown, a learner, or cannot catch up.
func (r *Raft) TransferLeadership(targetID string) error {
	r.mu.Lock()
	if r.role != Leader {
		r.mu.Unlock()
		return types.ErrNotLeader
	}
	target, ok := r.peers[targetID]
	if !ok || target.IsLearner() {
		r.mu.Unlock()
		return fmt.Errorf("raft: transfer target %q unknown or learner", targetID)
	}
	term := r.term
	r.mu.Unlock()

	// Wait (bounded) for the target to match our log.
	deadline := time.Now().Add(2 * time.Second)
	for {
		r.mu.Lock()
		last, _ := r.lastLogLocked()
		caughtUp := r.matchIndex[targetID] >= last
		stillLeader := r.role == Leader && r.term == term
		r.mu.Unlock()
		if !stillLeader {
			return types.ErrNotLeader
		}
		if caughtUp {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("raft: transfer target %s cannot catch up", targetID)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := r.deliver(target); err != nil {
		return fmt.Errorf("raft: transfer to %s: %w", targetID, err)
	}
	target.handleTimeoutNow(term)
	return nil
}

// handleTimeoutNow makes the replica campaign immediately (leadership
// transfer).
func (r *Raft) handleTimeoutNow(term uint64) {
	if r.stopped() || r.cfg.Learner {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if term < r.term {
		return
	}
	r.startElectionLocked()
}
