package simtime

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// Cond is a condition variable whose Wait parks the goroutine in virtual
// time, like sync.Cond but scheduler-aware. L must be held when calling Wait
// and is re-acquired before Wait returns. Signal and Broadcast must be called
// from managed goroutines.
type Cond struct {
	L       sync.Locker
	env     *Env
	waiters fifo[*waiter]
}

// NewCond returns a condition variable bound to l.
func (e *Env) NewCond(l sync.Locker) *Cond {
	return &Cond{L: l, env: e}
}

// Wait atomically releases c.L, parks until Signal/Broadcast, then
// re-acquires c.L. If the environment stops instead (see Env.Run), Wait
// re-acquires c.L and exits the goroutine.
func (c *Cond) Wait() {
	e := c.env
	e.mu.Lock()
	w := e.newWaiter()
	c.waiters.push(w)
	c.L.Unlock()
	if e.block(w) { // unlocks e.mu
		c.L.Lock()
		runtime.Goexit()
	}
	e.mu.Lock()
	e.release(w) // Signal or Broadcast dequeued w before waking it
	e.mu.Unlock()
	c.L.Lock()
}

// WaitTimeout is Wait with a virtual-time timeout. It reports true if the
// wait timed out (rather than being signaled).
func (c *Cond) WaitTimeout(d time.Duration) bool {
	if d < 0 {
		d = 0
	}
	e := c.env
	e.mu.Lock()
	w := e.newWaiter()
	w.wakeAt = e.now + d
	e.pushTimer(w)
	c.waiters.push(w)
	c.L.Unlock()
	if e.block(w) {
		c.L.Lock()
		runtime.Goexit()
	}
	e.mu.Lock()
	timedOut := w.timedOut
	if timedOut {
		// The timer woke w while it was still queued; drop it unless a
		// Signal or Broadcast already skipped past it.
		if i := slices.Index(c.waiters.items(), w); i >= 0 {
			c.waiters.delete(i)
		}
	}
	e.release(w)
	e.mu.Unlock()
	c.L.Lock()
	return timedOut
}

// Signal unparks one waiting goroutine, in FIFO order.
func (c *Cond) Signal() {
	c.env.mu.Lock()
	defer c.env.mu.Unlock()
	for c.waiters.len() > 0 {
		if w := c.waiters.pop(); !w.fired {
			c.env.fire(w)
			return
		}
	}
}

// Broadcast unparks all waiting goroutines.
func (c *Cond) Broadcast() {
	c.env.mu.Lock()
	defer c.env.mu.Unlock()
	for c.waiters.len() > 0 {
		if w := c.waiters.pop(); !w.fired {
			c.env.fire(w)
		}
	}
}

// fifo is a first-in first-out queue on a slice whose backing array is
// reused, so a steady push/pop cycle does not allocate.
type fifo[T any] struct {
	buf  []T
	head int // buf[head:] holds the queued items, oldest first
}

func (q *fifo[T]) len() int   { return len(q.buf) - q.head }
func (q *fifo[T]) items() []T { return q.buf[q.head:] }
func (q *fifo[T]) front() T   { return q.buf[q.head] }

func (q *fifo[T]) push(v T) {
	// Slide the items to the front instead of growing once at least half
	// of a full array is spent.
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// delete removes the i-th oldest item.
func (q *fifo[T]) delete(i int) {
	q.buf = slices.Delete(q.buf, q.head+i, q.head+i+1)
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// Queue is an unbounded FIFO queue of items; Pop blocks in virtual time
// until an item is available.
type Queue[T any] struct {
	mu    sync.Mutex
	cond  *Cond
	items []T
	env   *Env
}

// NewQueue returns an empty queue.
func NewQueue[T any](e *Env) *Queue[T] {
	q := &Queue[T]{env: e}
	q.cond = e.NewCond(&q.mu)
	return q
}

// Push appends an item; it never blocks.
func (q *Queue[T]) Push(item T) {
	q.mu.Lock()
	q.items = append(q.items, item)
	q.mu.Unlock()
	q.cond.Signal()
}

// Pop removes and returns the oldest item, blocking until one exists.
func (q *Queue[T]) Pop() T {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 {
		q.cond.Wait()
	}
	item := q.items[0]
	q.items = q.items[1:]
	return item
}

// PopTimeout is Pop with a virtual-time timeout; ok is false on timeout.
func (q *Queue[T]) PopTimeout(d time.Duration) (item T, ok bool) {
	deadline := q.env.Now() + d
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 {
		remaining := deadline - q.env.Now()
		if remaining <= 0 {
			return item, false
		}
		if q.cond.WaitTimeout(remaining) && len(q.items) == 0 {
			return item, false
		}
	}
	item = q.items[0]
	q.items = q.items[1:]
	return item, true
}

// Len returns the current number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Semaphore is a counting semaphore with FIFO wakeup, used to model
// bounded resources such as RPC handler pools.
type Semaphore struct {
	mu    sync.Mutex
	cond  *Cond
	avail int
}

// NewSemaphore returns a semaphore with n initial permits.
func (e *Env) NewSemaphore(n int) *Semaphore {
	s := &Semaphore{avail: n}
	s.cond = e.NewCond(&s.mu)
	return s
}

// Acquire takes one permit, blocking in virtual time until available.
func (s *Semaphore) Acquire() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.avail <= 0 {
		s.cond.Wait()
	}
	s.avail--
}

// TryAcquire takes one permit only if immediately available.
func (s *Semaphore) TryAcquire() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.avail <= 0 {
		return false
	}
	s.avail--
	return true
}

// Release returns one permit.
func (s *Semaphore) Release() {
	s.mu.Lock()
	s.avail++
	s.mu.Unlock()
	s.cond.Signal()
}

// WaitGroup is a scheduler-aware sync.WaitGroup analog.
type WaitGroup struct {
	mu   sync.Mutex
	cond *Cond
	n    int
}

// NewWaitGroup returns a WaitGroup bound to e.
func (e *Env) NewWaitGroup() *WaitGroup {
	wg := &WaitGroup{}
	wg.cond = e.NewCond(&wg.mu)
	return wg
}

// Add adds delta to the counter.
func (wg *WaitGroup) Add(delta int) {
	wg.mu.Lock()
	wg.n += delta
	if wg.n < 0 {
		wg.mu.Unlock()
		panic("simtime: negative WaitGroup counter")
	}
	done := wg.n == 0
	wg.mu.Unlock()
	if done {
		wg.cond.Broadcast()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks until the counter reaches zero.
func (wg *WaitGroup) Wait() {
	wg.mu.Lock()
	defer wg.mu.Unlock()
	for wg.n > 0 {
		wg.cond.Wait()
	}
}
