//go:build !race

package simtime

// Allocation-regression tests. Excluded under -race: the race detector's
// instrumentation adds bookkeeping allocations that would fail these
// assertions for reasons unrelated to the code under test.

import (
	"sync"
	"testing"
	"time"
)

// allocsPerOp runs a whole fresh Env per measurement and divides its
// allocations by the ops it performs, so the per-Run setup (the Env, the
// goroutines, the first waiters) is amortized away and what remains is the
// steady-state cost of one blocking hand-off.
func allocsPerOp(ops int, run func(e *Env)) float64 {
	return testing.AllocsPerRun(5, func() {
		e := NewEnv()
		e.Run(func() { run(e) })
	}) / float64(ops)
}

// TestHandoffDoesNotAllocate: Sleep, contended RWLock acquisitions and
// WaitTimeout reuse recycled waiters instead of allocating a waiter and a
// channel per block.
func TestHandoffDoesNotAllocate(t *testing.T) {
	const rounds = 2000

	t.Run("Sleep", func(t *testing.T) {
		const workers = 4
		got := allocsPerOp(workers*rounds, func(e *Env) {
			wg := e.NewWaitGroup()
			for g := 0; g < workers; g++ {
				wg.Add(1)
				e.Go(func() {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						e.Sleep(time.Duration(1+(i+g)%5) * time.Millisecond)
					}
				})
			}
			wg.Wait()
		})
		if got > 0.05 {
			t.Errorf("%.3f allocs per Sleep, want <= 0.05", got)
		}
	})

	t.Run("RWLockContended", func(t *testing.T) {
		const workers = 8
		got := allocsPerOp(workers*rounds, func(e *Env) {
			l := e.NewRWLock()
			wg := e.NewWaitGroup()
			for g := 0; g < workers; g++ {
				wg.Add(1)
				e.Go(func() {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						if (i+g)%4 == 0 {
							l.Lock()
							e.Sleep(time.Millisecond)
							l.Unlock()
						} else {
							l.RLock()
							e.Sleep(time.Millisecond)
							l.RUnlock()
						}
					}
				})
			}
			wg.Wait()
		})
		if got > 0.5 {
			t.Errorf("%.3f allocs per contended acquisition, want <= 0.5", got)
		}
	})

	t.Run("WaitTimeout", func(t *testing.T) {
		got := allocsPerOp(rounds, func(e *Env) {
			var mu sync.Mutex
			c := e.NewCond(&mu)
			done := false
			e.Go(func() {
				for {
					e.Sleep(2 * time.Millisecond)
					mu.Lock()
					if done {
						mu.Unlock()
						return
					}
					c.Signal()
					mu.Unlock()
				}
			})
			mu.Lock()
			defer mu.Unlock()
			timeouts := 0
			for i := 0; i < rounds; i++ {
				if c.WaitTimeout(time.Duration(1+i%3) * time.Millisecond) {
					timeouts++
				}
			}
			done = true
			if timeouts == 0 || timeouts == rounds {
				t.Errorf("%d of %d waits timed out, want a mix", timeouts, rounds)
			}
		})
		if got > 1 {
			t.Errorf("%.3f allocs per WaitTimeout, want <= 1", got)
		}
	})
}
