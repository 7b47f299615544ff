// Package simtime provides a virtual-time discrete-event scheduler for
// simulating distributed systems deterministically and quickly.
//
// Code under simulation runs in "managed" goroutines spawned with Env.Go or
// Env.Run. Managed goroutines must block only through the primitives in this
// package (Sleep, Cond, Queue, Semaphore, WaitGroup). When every managed
// goroutine is blocked, the environment advances virtual time to the next
// pending timer — so a simulated experiment spanning minutes of virtual time
// completes in milliseconds of real time.
//
// The clock never advances while any managed goroutine is runnable, which
// makes timing exact: a Sleep(d) wakes at precisely now+d in virtual time.
package simtime

import (
	"container/heap"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Env is a simulation environment: a virtual clock plus the accounting needed
// to know when all managed goroutines are blocked.
type Env struct {
	mu        sync.Mutex
	now       time.Duration
	seq       int64
	timers    timerHeap
	parked    []*waiter // managed goroutines blocked in block, for stopLocked
	runnable  int
	done      bool
	rootDone  chan struct{}
	closeOnce sync.Once
	panicVal  any
}

// NewEnv returns a fresh environment with the clock at zero.
func NewEnv() *Env {
	return &Env{rootDone: make(chan struct{})}
}

// Now returns the current virtual time.
func (e *Env) Now() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// Done reports whether the environment has finished (the root function of Run
// has returned). Long-lived background loops can poll Done to exit cleanly.
func (e *Env) Done() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.done
}

// waiter represents one parked managed goroutine.
type waiter struct {
	ch       chan struct{}
	wakeAt   time.Duration
	seq      int64
	heapIdx  int // index in the timer heap, -1 if not scheduled
	parkIdx  int // index in Env.parked, -1 if not parked
	fired    bool
	timedOut bool
	stopped  bool // woken by stopLocked: the parked goroutine must unwind
}

// timerHeap is a min-heap of waiters ordered by (wakeAt, seq).
type timerHeap []*waiter

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].wakeAt != h[j].wakeAt {
		return h[i].wakeAt < h[j].wakeAt
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *timerHeap) Push(x any) {
	w := x.(*waiter)
	w.heapIdx = len(*h)
	*h = append(*h, w)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.heapIdx = -1
	*h = old[:n-1]
	return w
}

func (e *Env) newWaiter() *waiter {
	e.seq++
	return &waiter{ch: make(chan struct{}), seq: e.seq, heapIdx: -1, parkIdx: -1}
}

// fire marks w runnable and unparks it. Caller holds e.mu.
func (e *Env) fire(w *waiter) {
	if w.fired {
		return
	}
	w.fired = true
	if w.heapIdx >= 0 {
		heap.Remove(&e.timers, w.heapIdx)
	}
	e.unpark(w)
	e.runnable++
	close(w.ch)
}

// unpark swap-removes w from the parked set. Caller holds e.mu.
func (e *Env) unpark(w *waiter) {
	i := w.parkIdx
	if i < 0 {
		return
	}
	last := len(e.parked) - 1
	e.parked[i] = e.parked[last]
	e.parked[i].parkIdx = i
	e.parked[last] = nil
	e.parked = e.parked[:last]
	w.parkIdx = -1
}

// block parks the calling goroutine on w. Caller holds e.mu; block unlocks
// it. It reports whether the environment stopped instead of waking w (see
// Run): the caller must then unwind with runtime.Goexit, after re-acquiring
// any lock its deferred calls release. A goroutine that blocks after the
// stop — typically in a deferred call during that unwind — is stopped at
// once.
func (e *Env) block(w *waiter) (stopped bool) {
	if e.done {
		w.fired, w.stopped = true, true
		if w.heapIdx >= 0 {
			heap.Remove(&e.timers, w.heapIdx)
		}
		e.mu.Unlock()
		return true
	}
	w.parkIdx = len(e.parked)
	e.parked = append(e.parked, w)
	e.runnable--
	if e.runnable == 0 {
		e.advance()
	}
	e.mu.Unlock()
	<-w.ch
	return w.stopped
}

// stopLocked wakes every parked goroutine with its stopped flag set, so
// each unwinds and exits instead of leaking. Each counts as runnable again
// until its deferred exit runs. Caller holds e.mu and has set e.done.
func (e *Env) stopLocked() {
	for _, w := range e.parked {
		w.parkIdx, w.heapIdx = -1, -1
		w.fired, w.stopped = true, true
		e.runnable++
		close(w.ch)
	}
	e.parked = nil
	e.timers = nil
}

// advance moves virtual time forward to the next timer and fires it.
// Caller holds e.mu and has observed runnable == 0.
func (e *Env) advance() {
	if e.done {
		return
	}
	if e.timers.Len() == 0 {
		// Deadlock: every managed goroutine is blocked and no timer is
		// pending. Route the panic to the goroutine that called Run.
		e.done = true
		if e.panicVal == nil {
			e.panicVal = "simtime: deadlock — all managed goroutines blocked with no pending timers"
		}
		e.stopLocked()
		e.closeOnce.Do(func() { close(e.rootDone) })
		return
	}
	w := heap.Pop(&e.timers).(*waiter)
	if w.wakeAt > e.now {
		e.now = w.wakeAt
	}
	w.timedOut = true
	w.fired = true
	e.unpark(w)
	e.runnable++
	close(w.ch)
}

// Sleep blocks the calling managed goroutine for d of virtual time.
// Non-positive durations yield (sleep for zero time) to preserve event
// ordering fairness.
func (e *Env) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e.mu.Lock()
	w := e.newWaiter()
	w.wakeAt = e.now + d
	heap.Push(&e.timers, w)
	if e.block(w) {
		runtime.Goexit()
	}
}

// Go spawns fn as a managed goroutine.
func (e *Env) Go(fn func()) {
	e.mu.Lock()
	e.runnable++
	e.mu.Unlock()
	go func() {
		defer e.exit()
		fn()
	}()
}

func (e *Env) exit() {
	e.mu.Lock()
	e.runnable--
	if e.runnable == 0 && !e.done {
		e.advance()
	}
	e.mu.Unlock()
}

// Run executes fn as the root managed goroutine and returns when fn returns.
// The clock then stops, and every managed goroutine still blocked in this
// package's primitives unwinds: its blocking call exits the goroutine with
// runtime.Goexit, so deferred calls run (a Cond wait re-acquires its lock
// first, so a deferred Unlock is safe) and the goroutine is collected. A
// goroutine that blocks again, during that unwind or later, exits at once.
// Unwinding goroutines may still be running their deferred calls when Run
// returns. Run must be called from an unmanaged goroutine (typically the
// test or main goroutine), and at most once per Env.
func (e *Env) Run(fn func()) {
	e.mu.Lock()
	e.runnable++
	e.mu.Unlock()
	go func() {
		defer func() {
			e.mu.Lock()
			e.runnable--
			if !e.done {
				e.done = true
				e.stopLocked()
			}
			e.mu.Unlock()
			e.closeOnce.Do(func() { close(e.rootDone) })
		}()
		fn()
	}()
	<-e.rootDone
	e.mu.Lock()
	pv := e.panicVal
	e.mu.Unlock()
	if pv != nil {
		panic(pv)
	}
}

// RunFor executes fn as the root goroutine but returns after d of virtual
// time even if fn has not finished. Convenient for open-ended workloads.
func (e *Env) RunFor(d time.Duration, fn func()) {
	e.Run(func() {
		e.Go(fn)
		e.Sleep(d)
	})
}

// String describes the environment state, for debugging.
func (e *Env) String() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return fmt.Sprintf("simtime.Env{now=%v runnable=%d timers=%d done=%v}",
		e.now, e.runnable, e.timers.Len(), e.done)
}
