package simtime

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	e := NewEnv()
	var at time.Duration
	start := time.Now()
	e.Run(func() {
		e.Sleep(10 * time.Minute)
		at = e.Now()
	})
	if at != 10*time.Minute {
		t.Fatalf("virtual time = %v, want 10m", at)
	}
	if real := time.Since(start); real > 2*time.Second {
		t.Fatalf("took %v of real time for virtual sleep", real)
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		e.Sleep(0)
		e.Sleep(-5 * time.Second)
		if e.Now() != 0 {
			t.Errorf("now = %v, want 0", e.Now())
		}
	})
}

func TestConcurrentSleepOrdering(t *testing.T) {
	e := NewEnv()
	var mu sync.Mutex
	var order []int
	e.Run(func() {
		wg := e.NewWaitGroup()
		for i, d := range []time.Duration{30, 10, 20} {
			i, d := i, d
			wg.Add(1)
			e.Go(func() {
				defer wg.Done()
				e.Sleep(d * time.Millisecond)
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		}
		wg.Wait()
	})
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNestedGo(t *testing.T) {
	e := NewEnv()
	var total time.Duration
	e.Run(func() {
		wg := e.NewWaitGroup()
		wg.Add(1)
		e.Go(func() {
			defer wg.Done()
			e.Sleep(time.Second)
			inner := e.NewWaitGroup()
			inner.Add(1)
			e.Go(func() {
				defer inner.Done()
				e.Sleep(2 * time.Second)
			})
			inner.Wait()
		})
		wg.Wait()
		total = e.Now()
	})
	if total != 3*time.Second {
		t.Fatalf("total = %v, want 3s", total)
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	e := NewEnv()
	var mu sync.Mutex
	var woke []int
	e.Run(func() {
		cond := e.NewCond(&mu)
		ready := e.NewWaitGroup()
		done := e.NewWaitGroup()
		for i := 0; i < 3; i++ {
			i := i
			ready.Add(1)
			done.Add(1)
			e.Go(func() {
				defer done.Done()
				mu.Lock()
				ready.Done()
				cond.Wait()
				woke = append(woke, i)
				mu.Unlock()
			})
			// Serialize arrival order so FIFO expectation is deterministic.
			e.Sleep(time.Millisecond)
		}
		ready.Wait()
		for i := 0; i < 3; i++ {
			cond.Signal()
			e.Sleep(time.Millisecond)
		}
		done.Wait()
	})
	for i, v := range woke {
		if v != i {
			t.Fatalf("wake order = %v, want FIFO", woke)
		}
	}
}

func TestCondWaitTimeout(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		var mu sync.Mutex
		cond := e.NewCond(&mu)
		mu.Lock()
		timedOut := cond.WaitTimeout(5 * time.Second)
		mu.Unlock()
		if !timedOut {
			t.Error("expected timeout")
		}
		if e.Now() != 5*time.Second {
			t.Errorf("now = %v, want 5s", e.Now())
		}
	})
}

func TestCondWaitTimeoutSignaledFirst(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		var mu sync.Mutex
		cond := e.NewCond(&mu)
		e.Go(func() {
			e.Sleep(time.Second)
			cond.Signal()
		})
		mu.Lock()
		timedOut := cond.WaitTimeout(time.Minute)
		mu.Unlock()
		if timedOut {
			t.Error("expected signal, got timeout")
		}
		if e.Now() != time.Second {
			t.Errorf("now = %v, want 1s", e.Now())
		}
	})
}

func TestQueueFIFO(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		q := NewQueue[int](e)
		for i := 0; i < 5; i++ {
			q.Push(i)
		}
		for i := 0; i < 5; i++ {
			if got := q.Pop(); got != i {
				t.Fatalf("Pop = %d, want %d", got, i)
			}
		}
	})
}

func TestQueuePopBlocksUntilPush(t *testing.T) {
	e := NewEnv()
	var popped int
	var at time.Duration
	e.Run(func() {
		q := NewQueue[int](e)
		e.Go(func() {
			e.Sleep(3 * time.Second)
			q.Push(42)
		})
		popped = q.Pop()
		at = e.Now()
	})
	if popped != 42 || at != 3*time.Second {
		t.Fatalf("popped %d at %v, want 42 at 3s", popped, at)
	}
}

func TestQueuePopTimeout(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		q := NewQueue[int](e)
		if _, ok := q.PopTimeout(time.Second); ok {
			t.Error("expected timeout")
		}
		if e.Now() != time.Second {
			t.Errorf("now = %v, want 1s", e.Now())
		}
		q.Push(7)
		v, ok := q.PopTimeout(time.Second)
		if !ok || v != 7 {
			t.Errorf("got (%d, %v), want (7, true)", v, ok)
		}
	})
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	e := NewEnv()
	var end time.Duration
	e.Run(func() {
		sem := e.NewSemaphore(2)
		wg := e.NewWaitGroup()
		for i := 0; i < 4; i++ {
			wg.Add(1)
			e.Go(func() {
				defer wg.Done()
				sem.Acquire()
				defer sem.Release()
				e.Sleep(time.Second)
			})
		}
		wg.Wait()
		end = e.Now()
	})
	// 4 tasks of 1s with 2 permits => 2s total.
	if end != 2*time.Second {
		t.Fatalf("end = %v, want 2s", end)
	}
}

func TestRunForStopsOpenEndedWork(t *testing.T) {
	e := NewEnv()
	count := 0
	e.RunFor(10*time.Second, func() {
		for {
			e.Sleep(time.Second)
			count++
			if e.Done() {
				return
			}
		}
	})
	if count < 9 || count > 11 {
		t.Fatalf("count = %d, want ~10", count)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on deadlock")
		}
	}()
	e := NewEnv()
	e.Run(func() {
		var mu sync.Mutex
		cond := e.NewCond(&mu)
		mu.Lock()
		cond.Wait() // nobody will ever signal
	})
}

func TestManyGoroutinesScale(t *testing.T) {
	e := NewEnv()
	var mu sync.Mutex
	total := 0
	e.Run(func() {
		wg := e.NewWaitGroup()
		for i := 0; i < 1000; i++ {
			i := i
			wg.Add(1)
			e.Go(func() {
				defer wg.Done()
				e.Sleep(time.Duration(i%97) * time.Millisecond)
				mu.Lock()
				total++
				mu.Unlock()
			})
		}
		wg.Wait()
	})
	if total != 1000 {
		t.Fatalf("total = %d, want 1000", total)
	}
}

func TestWaitGroupZeroWaitReturnsImmediately(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		wg := e.NewWaitGroup()
		wg.Wait() // counter is zero; must not block
	})
}

// TestRunStopsParkedGoroutines: goroutines still blocked in any primitive
// when the root returns unwind and exit instead of leaking. Their deferred
// calls run with the Cond lock held again, so a deferred Unlock and a
// deferred WaitGroup.Done are safe, and a goroutine that blocks again
// while unwinding exits at once.
func TestRunStopsParkedGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := NewEnv()
	var mu sync.Mutex
	var unwound atomic.Int32
	var reblocked atomic.Bool
	const parked = 9
	e.Run(func() {
		cond := e.NewCond(&mu)
		q := NewQueue[int](e)
		sem := e.NewSemaphore(0)
		rw := e.NewRWLock()
		rw.Lock()
		wg := e.NewWaitGroup()
		wg.Add(1)
		outer := e.NewWaitGroup()
		outer.Add(1)
		park := func(fn func()) {
			e.Go(func() {
				defer unwound.Add(1)
				fn()
				t.Error("parked goroutine returned")
			})
		}
		park(func() { e.Sleep(time.Hour) })
		park(func() { mu.Lock(); defer mu.Unlock(); cond.Wait() })
		park(func() { mu.Lock(); defer mu.Unlock(); cond.WaitTimeout(time.Hour) })
		park(func() { q.Pop() })
		park(func() { sem.Acquire() })
		park(func() { rw.RLock() })
		park(func() { wg.Wait() })
		park(func() {
			defer outer.Done()
			defer func() {
				e.Sleep(time.Second)
				reblocked.Store(true)
			}()
			e.Sleep(time.Hour)
		})
		park(func() {
			rw2 := e.NewRWLock()
			rw2.Lock()
			defer rw2.Unlock()
			e.Sleep(time.Hour)
		})
		e.Sleep(time.Second)
	})
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after Run, baseline %d", n, baseline)
	}
	if got := unwound.Load(); got != parked {
		t.Fatalf("%d goroutines ran their deferred calls, want %d", got, parked)
	}
	if reblocked.Load() {
		t.Fatal("a goroutine that blocked while unwinding resumed")
	}
	if !mu.TryLock() {
		t.Fatal("deferred Unlock did not release the Cond lock")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.runnable != 0 || len(e.parked) != 0 {
		t.Fatalf("after unwind: runnable=%d parked=%d, want 0 and 0", e.runnable, len(e.parked))
	}
}
