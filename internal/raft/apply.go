package raft

import (
	"fmt"
	"time"

	"mantle/internal/types"
)

func errNotLeader() error { return types.ErrNotLeader }

// Propose submits cmd to the leader's log and blocks until the entry is
// committed and applied on this replica, returning its log index. On a
// non-leader (or if leadership is lost mid-flight) it fails with
// types.ErrNotLeader and the caller retries against the current leader.
func (r *Raft) Propose(cmd []byte) (uint64, error) {
	return r.ProposeTimeout(cmd, 0)
}

// ProposeTimeout is Propose with a bound on how long the proposal may
// wait for commit (0 means forever). When the group has no reachable
// quorum — a partitioned leader keeps accepting proposals until
// check-quorum steps it down — the entry cannot commit; the timeout
// fails the call with types.ErrTimeout so the caller can fail fast
// instead of hanging. An abandoned entry may still commit later; callers
// that retry rely on command idempotence, as they already do across
// leader changes.
func (r *Raft) ProposeTimeout(cmd []byte, d time.Duration) (uint64, error) {
	r.mu.Lock()
	if r.role != Leader {
		r.mu.Unlock()
		return 0, types.ErrNotLeader
	}
	r.mu.Unlock()
	var timeout <-chan time.Time
	if d > 0 {
		tm := time.NewTimer(d)
		defer tm.Stop()
		timeout = tm.C
	}
	p := &proposal{cmd: cmd, done: make(chan proposalResult, 1), enqueued: time.Now()}
	select {
	case r.proposeCh <- p:
	case <-r.stopCh:
		return 0, types.ErrStopped
	case <-timeout:
		return 0, fmt.Errorf("raft: proposal not accepted within %s: %w", d, types.ErrTimeout)
	}
	select {
	case res := <-p.done:
		return res.index, res.err
	case <-r.stopCh:
		return 0, types.ErrStopped
	case <-timeout:
		// The proposal stays pending; its buffered done channel absorbs a
		// late completion without leaking a goroutine.
		return 0, fmt.Errorf("raft: proposal not committed within %s: %w", d, types.ErrTimeout)
	}
}

// applier applies committed entries to the state machine in order and
// completes pending proposals on the leader.
func (r *Raft) applier() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stopCh:
			return
		case <-r.applyCh:
		}
		for r.applyNext() {
			r.maybeCompact()
		}
	}
}

// applyNext applies the entry after lastApplied, if it is committed, and
// reports whether it did. It holds applyMu throughout, so a snapshot
// install cannot restore the state machine while an older entry is
// being applied to it.
func (r *Raft) applyNext() bool {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.mu.Lock()
	if r.lastApplied >= r.commitIndex {
		r.mu.Unlock()
		return false
	}
	idx := r.lastApplied + 1
	entry := r.entryAtLocked(idx)
	r.mu.Unlock()

	// No-op entries (leader-election barriers) skip the state machine.
	if r.cfg.SM != nil && len(entry.Cmd) > 0 {
		r.cfg.SM.Apply(entry.Index, entry.Cmd)
	}

	r.mu.Lock()
	if r.lastApplied != idx-1 {
		// lastApplied was reset while r.mu was released; keep the
		// reset position rather than writing an older one over it.
		r.mu.Unlock()
		return true
	}
	r.lastApplied = idx
	var p *proposal
	if r.pending != nil {
		p = r.pending[idx]
		delete(r.pending, idx)
	}
	r.applyCond.Broadcast()
	r.mu.Unlock()
	if p != nil {
		now := time.Now()
		r.metrics.mu.Lock()
		r.metrics.IngestWait += p.appended.Sub(p.enqueued)
		r.metrics.CommitWait += now.Sub(p.appended)
		r.metrics.mu.Unlock()
		if r.cfg.ProposeLatency != nil {
			r.cfg.ProposeLatency.Observe(now.Sub(p.enqueued))
		}
		p.done <- proposalResult{index: idx}
	}
	return true
}

// maybeCompact snapshots the state machine once SnapshotThreshold
// entries have been applied past the previous snapshot, and truncates the
// log at that previous snapshot. The log so keeps one threshold of
// entries below the newest snapshot: a follower that trails the leader by
// a few entries when it compacts catches up from the log, not by a full
// snapshot install. Runs on the apply goroutine under applyMu, so
// Snapshot races neither Apply nor a snapshot install.
func (r *Raft) maybeCompact() {
	if r.cfg.SnapshotThreshold <= 0 {
		return
	}
	sm, ok := r.cfg.SM.(Snapshotter)
	if !ok {
		return
	}
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.mu.Lock()
	applied := r.lastApplied
	if applied < r.snapIndex+uint64(r.cfg.SnapshotThreshold) {
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()

	// Snapshot outside r.mu: state-machine reads can be slow.
	data := sm.Snapshot()

	r.mu.Lock()
	// The log may have been reset while r.mu was released: keep the
	// snapshot only if it still covers exactly the applied prefix and
	// that prefix is still in the log.
	first := r.firstIndexLocked()
	last, _ := r.lastLogLocked()
	if r.lastApplied != applied || applied <= r.snapIndex || applied < first || applied > last {
		r.mu.Unlock()
		return
	}
	cut := r.snapIndex
	r.snapIndex, r.snapTerm, r.snapData = applied, r.entryAtLocked(applied).Term, data
	if cut > first {
		suffix := r.log[cut-first+1:]
		newLog := make([]Entry, 0, len(suffix)+1)
		newLog = append(newLog, Entry{Term: r.entryAtLocked(cut).Term, Index: cut})
		newLog = append(newLog, suffix...)
		r.log = newLog
	}
	r.mu.Unlock()
	r.fsync() // persisting the snapshot costs a disk sync
}

// WaitApplied blocks until the replica has applied at least index, or the
// replica stops.
func (r *Raft) WaitApplied(index uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.lastApplied < index {
		if r.stopped() {
			return types.ErrStopped
		}
		r.applyCond.Wait()
	}
	return nil
}

// waitAppliedTimeout is WaitApplied with a deadline, used by follower
// reads so a partitioned replica does not block readers forever.
func (r *Raft) waitAppliedTimeout(index uint64, d time.Duration) error {
	// Fast path: on a caught-up replica (every consistent read whose
	// apply already landed — the overwhelmingly common case) the index
	// is already applied, so skip the goroutine + channel + timer that
	// the slow path spends per call.
	r.mu.Lock()
	if r.lastApplied >= index {
		r.mu.Unlock()
		return nil
	}
	r.mu.Unlock()
	done := make(chan error, 1)
	go func() { done <- r.WaitApplied(index) }()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return types.ErrStopped
	}
}
