// Package simtime provides a virtual-time discrete-event scheduler for
// simulating distributed systems deterministically and quickly.
//
// Code under simulation runs in "managed" goroutines spawned with Env.Go or
// Env.Run. Managed goroutines must block only through the primitives in this
// package (Sleep, Cond, Queue, Semaphore, WaitGroup, RWLock). When every
// managed goroutine is blocked, the environment advances virtual time to the
// next pending timer — so a simulated experiment spanning minutes of virtual
// time completes in milliseconds of real time.
//
// The clock never advances while any managed goroutine is runnable, which
// makes timing exact: a Sleep(d) wakes at precisely now+d in virtual time.
package simtime

import (
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
	timers    []*waiter // min-heap ordered by (wakeAt, seq)
	parked    []*waiter // managed goroutines blocked in block, for stopLocked
	free      []*waiter // recycled waiters, reused by newWaiter
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

// waiter represents one parked managed goroutine. Waiters are recycled
// through Env.free. Each wake sends exactly one token on ch, which the woken
// goroutine consumes: the send, made under e.mu, never blocks, and a
// released waiter's channel is always empty.
type waiter struct {
	ch       chan struct{} // capacity 1
	wakeAt   time.Duration
	seq      int64
	heapIdx  int // index in the timer heap, -1 if not scheduled
	parkIdx  int // index in Env.parked, -1 if not parked
	fired    bool
	timedOut bool
	stopped  bool // woken by stopLocked: the parked goroutine must unwind
}

// newWaiter returns a fresh or recycled waiter. Caller holds e.mu.
func (e *Env) newWaiter() *waiter {
	e.seq++
	if n := len(e.free); n > 0 {
		w := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*w = waiter{ch: w.ch, seq: e.seq, heapIdx: -1, parkIdx: -1}
		return w
	}
	return &waiter{ch: make(chan struct{}, 1), seq: e.seq, heapIdx: -1, parkIdx: -1}
}

// release returns w to the free list. The caller must be the goroutine w
// woke, and nothing may refer to w any more: not the timer heap, not the
// parked set, not any Cond's waiters. A stopped waiter is never released.
// Caller holds e.mu.
func (e *Env) release(w *waiter) {
	e.free = append(e.free, w)
}

// before orders the timer heap by wake time, then by creation.
func (w *waiter) before(o *waiter) bool {
	if w.wakeAt != o.wakeAt {
		return w.wakeAt < o.wakeAt
	}
	return w.seq < o.seq
}

// pushTimer schedules w in the timer heap. Caller holds e.mu.
func (e *Env) pushTimer(w *waiter) {
	e.timers = append(e.timers, w)
	e.siftUp(w, len(e.timers)-1)
}

// removeTimer unschedules the waiter at heap index i and returns it.
// Caller holds e.mu.
func (e *Env) removeTimer(i int) *waiter {
	h := e.timers
	w, last := h[i], h[len(h)-1]
	h[len(h)-1] = nil
	e.timers = h[:len(h)-1]
	w.heapIdx = -1
	if last != w && !e.siftDown(last, i) {
		e.siftUp(last, i)
	}
	return w
}

// siftUp places w at index i or above, moving larger parents down.
func (e *Env) siftUp(w *waiter, i int) {
	h := e.timers
	for i > 0 {
		p := (i - 1) / 2
		if !w.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].heapIdx = i
		i = p
	}
	h[i] = w
	w.heapIdx = i
}

// siftDown places w at index i or below, moving smaller children up. It
// reports whether w moved.
func (e *Env) siftDown(w *waiter, i int) bool {
	h := e.timers
	start := i
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(w) {
			break
		}
		h[i] = h[c]
		h[i].heapIdx = i
		i = c
	}
	h[i] = w
	w.heapIdx = i
	return i > start
}

// fire marks w runnable and unparks it. Caller holds e.mu.
func (e *Env) fire(w *waiter) {
	if w.fired {
		return
	}
	w.fired = true
	if w.heapIdx >= 0 {
		e.removeTimer(w.heapIdx)
	}
	e.unpark(w)
	e.runnable++
	w.ch <- struct{}{}
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
			e.removeTimer(w.heapIdx)
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
		w.ch <- struct{}{}
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
	if len(e.timers) == 0 {
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
	w := e.removeTimer(0)
	if w.wakeAt > e.now {
		e.now = w.wakeAt
	}
	w.timedOut = true
	w.fired = true
	e.unpark(w)
	e.runnable++
	w.ch <- struct{}{}
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
	e.pushTimer(w)
	if e.block(w) {
		runtime.Goexit()
	}
	e.mu.Lock()
	e.release(w)
	e.mu.Unlock()
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
		e.now, e.runnable, len(e.timers), e.done)
}
