package simtime

import "sync"

// RWLock is a scheduler-aware readers-writer lock. Unlike sync.RWMutex it
// may be held across virtual-time blocking (Sleep, resource waits): waiters
// park through the environment so the clock keeps advancing.
//
// Acquisition is FIFO with reader batching: waiters are granted the lock in
// arrival order, consecutive readers at the head of the queue enter
// together, and a queued writer blocks later-arriving readers. The explicit
// handoff avoids both writer starvation and the thundering-herd unfairness
// of broadcast-based wakeups (which can starve closed-loop clients
// entirely under heavy contention).
type RWLock struct {
	mu      sync.Mutex
	cond    *Cond // the queued acquisitions, parked in arrival order
	readers int
	writer  bool
	queue   fifo[bool] // writing flag of each queued acquisition, oldest first
	tickets uint64     // acquisitions queued so far
	granted uint64     // queued acquisitions granted so far
}

// NewRWLock returns an unlocked RWLock.
func (e *Env) NewRWLock() *RWLock {
	l := &RWLock{}
	l.cond = e.NewCond(&l.mu)
	return l
}

// RLock acquires the lock for reading. Readers queue behind any earlier
// writer to avoid writer starvation.
func (l *RWLock) RLock() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.writer && l.queue.len() == 0 {
		l.readers++
		return
	}
	l.awaitLocked(false)
}

// RUnlock releases a read acquisition.
func (l *RWLock) RUnlock() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.readers--
	if l.readers < 0 {
		panic("simtime: RUnlock without RLock")
	}
	if l.readers == 0 {
		l.releaseLocked()
	}
}

// Lock acquires the lock exclusively.
func (l *RWLock) Lock() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.writer && l.readers == 0 && l.queue.len() == 0 {
		l.writer = true
		return
	}
	l.awaitLocked(true)
}

// Unlock releases an exclusive acquisition.
func (l *RWLock) Unlock() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.writer {
		panic("simtime: Unlock without Lock")
	}
	l.writer = false
	l.releaseLocked()
}

// awaitLocked queues an acquisition and parks until releaseLocked grants
// it. The queue and l.cond are both FIFO and both appended to under l.mu
// (Wait enqueues before releasing it), so the waiter each grant Signals is
// the one it granted. Caller holds l.mu.
func (l *RWLock) awaitLocked(writing bool) {
	ticket := l.tickets
	l.tickets++
	l.queue.push(writing)
	for l.granted <= ticket {
		l.cond.Wait()
	}
}

// releaseLocked hands the lock to the head of the queue: one writer, or a
// batch of consecutive readers. Caller holds l.mu.
func (l *RWLock) releaseLocked() {
	for l.queue.len() > 0 && !l.writer {
		if l.queue.front() {
			if l.readers > 0 {
				return // readers still draining
			}
			l.writer = true
		} else {
			l.readers++
		}
		l.queue.pop()
		l.granted++
		l.cond.Signal()
	}
}
