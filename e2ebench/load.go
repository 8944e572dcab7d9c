package main

import (
	"sync"
	"time"
)

// stream is one open-loop op stream: op i is due at start+due(i)
// whatever happened to earlier ops, so a stall delays every later op
// and shows in their latencies, which are timed from the due time.
type stream struct {
	n       int
	due     func(i int) time.Duration
	workers int
	// atDue, when set, runs on the dispatcher exactly at the due time
	// (an upstream page change); do runs on a worker, which stands for
	// one of the generator's request connections.
	atDue func(i int)
	do    func(i int, due time.Time)
}

// run dispatches every op and returns once all have completed. It
// returns how late the dispatcher ran behind each op's due time (ms):
// the generator's own lateness, as distinct from the system's.
func (s stream) run(start time.Time) []float64 {
	type job struct {
		i   int
		due time.Time
	}
	// Sized to the number of sends, so the dispatcher never blocks on
	// busy workers and stays on schedule.
	jobs := make(chan job, s.n)
	var wg sync.WaitGroup
	for range s.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				s.do(j.i, j.due)
			}
		}()
	}
	late := make([]float64, 0, s.n)
	for i := range s.n {
		due := start.Add(s.due(i))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late = append(late, ms(time.Since(due)))
		if s.atDue != nil {
			s.atDue(i)
		}
		if s.do != nil {
			jobs <- job{i, due}
		}
	}
	close(jobs)
	wg.Wait()
	return late
}

// runStreams runs several streams concurrently from one start time and
// returns their combined dispatcher lateness.
func runStreams(start time.Time, ss ...stream) []float64 {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var late []float64
	for _, s := range ss {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := s.run(start)
			mu.Lock()
			late = append(late, l...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return late
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(20 * time.Millisecond)
	}
	return true
}
