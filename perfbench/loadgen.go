package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// arrival is the schedule record of one unit: when it was due, when the
// generator sent it, and when it finished.
type arrival struct {
	due, sent, done time.Time
}

// latency is the unit's latency from its due time, so a late send or a
// stall anywhere ahead of the unit counts against it.
func (a arrival) latency() time.Duration { return a.done.Sub(a.due) }

// late is how far behind schedule the generator sent the unit.
func (a arrival) late() time.Duration { return a.sent.Sub(a.due) }

// runOpenLoop issues n units on a constant-spacing schedule, unit i due
// at start + i/rate, from one generator goroutine. Each unit runs on its
// own goroutine, so a slow unit never delays the next send. It returns
// once every unit has finished, with the schedule records and the
// highest number of units in flight at once.
func runOpenLoop(start time.Time, rate float64, n int, exec func(i int, due time.Time)) ([]arrival, int64) {
	arr := make([]arrival, n)
	var inflight atomic.Int64
	var peak int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		arr[i].due, arr[i].sent = due, time.Now()
		peak = max(peak, inflight.Add(1))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			exec(i, arr[i].due)
			arr[i].done = time.Now()
			inflight.Add(-1)
		}(i)
	}
	wg.Wait()
	return arr, peak
}
