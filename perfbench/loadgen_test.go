package main

import (
	"sync"
	"testing"
	"time"
)

// A unit sent late, because the generator fell behind, is charged the
// delay: latency runs from the due time, not the send time.
func TestLatencyCountsFromDueTime(t *testing.T) {
	const behind = 50 * time.Millisecond
	arr, _ := runOpenLoop(time.Now().Add(-behind), 1000, 20, func(int, time.Time) {})
	for i, a := range arr {
		due := behind - time.Duration(i)*time.Millisecond
		if a.late() < due || a.latency() < due {
			t.Errorf("unit %d: late %v, latency %v; both should be at least %v", i, a.late(), a.latency(), due)
		}
	}
}

// A stall in the system raises the latency of every later unit that
// queues behind it, and the open loop keeps sending on schedule.
func TestStallRaisesLaterLatency(t *testing.T) {
	const stall = 60 * time.Millisecond
	var mu sync.Mutex
	arr, peak := runOpenLoop(time.Now(), 1000, 40, func(i int, _ time.Time) {
		mu.Lock()
		defer mu.Unlock()
		if i == 2 {
			time.Sleep(stall)
		}
	})
	stallEnd := arr[2].sent.Add(stall)
	for i := 3; i < 40; i++ {
		if want := stallEnd.Sub(arr[i].due); arr[i].latency() < want {
			t.Errorf("unit %d: latency %v, want at least %v behind the stall", i, arr[i].latency(), want)
		}
	}
	if arr[39].sent.After(stallEnd) {
		t.Errorf("generator waited for the stall: unit 39 sent %v after it ended", arr[39].sent.Sub(stallEnd))
	}
	if peak < 10 {
		t.Errorf("inflight peak %d, want the queued units counted", peak)
	}
}
