package raft

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mantle/internal/netsim"
)

// awaitLeaderKnown waits until every replica of rs knows the leader, and
// returns a voter other than leader.
func awaitLeaderKnown(t *testing.T, rs []*Raft, leader *Raft) *Raft {
	t.Helper()
	var follower *Raft
	deadline := time.Now().Add(5 * time.Second)
	for _, r := range rs {
		for {
			if _, _, l := r.Status(); l != "" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never learned the leader", r.ID())
			}
			time.Sleep(time.Millisecond)
		}
		if follower == nil && r != leader && !r.IsLearner() {
			follower = r
		}
	}
	return follower
}

// A follower read that arrives while another read's leader round trip is
// in flight starts a round of its own at once: it returns after about one
// round trip, not after the rest of the earlier round plus its own.
func TestReadIndexOverlapsInFlightRound(t *testing.T) {
	const rtt = 50 * time.Millisecond
	fabric := netsim.NewFabric(netsim.Config{RTT: rtt})
	rs, _ := newTestGroup(t, 3, 0, func(c *Config) {
		c.Fabric = fabric
		c.ElectionTimeout = time.Second
		c.HeartbeatInterval = 200 * time.Millisecond
	})
	leader, err := WaitLeader(rs, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	follower := awaitLeaderKnown(t, rs, leader)

	first := make(chan error, 1)
	go func() {
		_, err := follower.ReadIndex()
		first <- err
	}()
	time.Sleep(rtt / 5)
	start := time.Now()
	if _, err := follower.ReadIndex(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > rtt*3/2 {
		t.Fatalf("read arriving mid-round took %v (%.2f RTT); want at most 1.5 RTT",
			took, float64(took)/float64(rtt))
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
}

// Under proposal load, every follower and learner read index covers the
// leader's commit index as of the moment the read began (linearisability
// of overlapping read rounds), and the round counters account for every
// read.
func TestReadIndexCoversLeaderCommit(t *testing.T) {
	fabric := netsim.NewFabric(netsim.Config{RTT: 200 * time.Microsecond})
	rs, _ := newTestGroup(t, 3, 1, func(c *Config) {
		c.Fabric = fabric
		c.BatchEnabled = true
		c.ElectionTimeout = time.Second
		c.HeartbeatInterval = 50 * time.Millisecond
	})
	leader, err := WaitLeader(rs, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	awaitLeaderKnown(t, rs, leader)
	_, term, _ := leader.Status()

	stop := make(chan struct{})
	var proposers sync.WaitGroup
	for i := 0; i < 2; i++ {
		proposers.Add(1)
		go func() {
			defer proposers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := leader.Propose([]byte("x")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	const readersPerReplica, readsPerReader = 4, 40
	var reads atomic.Int64
	var readers sync.WaitGroup
	for _, r := range rs {
		if r == leader {
			continue
		}
		for i := 0; i < readersPerReplica; i++ {
			readers.Add(1)
			go func(r *Raft) {
				defer readers.Done()
				for j := 0; j < readsPerReader; j++ {
					before := leader.CommitIndex()
					idx, err := r.ReadIndex()
					if err != nil {
						t.Errorf("%s: %v", r.ID(), err)
						return
					}
					if idx < before {
						t.Errorf("%s: read index %d below leader commit %d at call time", r.ID(), idx, before)
					}
					reads.Add(1)
				}
			}(r)
		}
	}
	readers.Wait()
	close(stop)
	proposers.Wait()

	if _, now, _ := leader.Status(); now != term {
		t.Fatalf("leadership changed during the run (term %d -> %d)", term, now)
	}
	var rounds, waiters int64
	for _, r := range rs {
		b := r.MetricsRef().Batch()
		rounds += b.ReadRounds
		waiters += b.ReadWaiters
	}
	if waiters != reads.Load() {
		t.Fatalf("read rounds carried %d waiters, want %d reads", waiters, reads.Load())
	}
	if rounds == 0 || rounds > waiters {
		t.Fatalf("read rounds = %d for %d waiters", rounds, waiters)
	}
}
