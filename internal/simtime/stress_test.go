package simtime

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/randtest"
)

// TestStressHandoffRecycling drives seeded random mixes of Sleep, Cond
// waits with and without timeouts, Signal/Broadcast racing those timeouts
// at the same virtual instant, and RWLock readers and writers through one
// Env, so every waiter is recycled many times across primitives. It checks
// each wait against what the primitive promises: a Sleep or a timed-out
// wait returns at exactly start+d, every wait returns exactly once, Signal
// wakes the oldest waiter that has not timed out, and RWLock grants follow
// a reference model of FIFO with batched readers.
//
// A failing seed stops the sweep: after a lost wakeup the hung run's
// goroutines stay behind, and every later seed would wait out the watchdog.
func TestStressHandoffRecycling(t *testing.T) {
	for _, seed := range randtest.Seeds(40, 1) {
		if err := runHandoffMix(seed); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, randtest.Replay(t, seed))
		}
	}
}

const (
	mixWorkers   = 8
	mixOps       = 40
	mixConds     = 3
	mixSignalers = 3
	mixRW        = 6
	mixAcquires  = 20
	// RWLock goroutine g arrives only at virtual instants g+1 steps past a
	// multiple of rwUnit, and every holder releases on a multiple of
	// rwUnit. So each instant carries either one arrival or only releases
	// and the grants they trigger, and the reference model can replay the
	// log in time order with no ties to break.
	rwStep = 100 * time.Microsecond
	rwUnit = (mixRW + 1) * rwStep
)

type condEvent struct {
	kind     byte // 'w' wait queued, 's' Signal, 'b' Broadcast, 'r' wait returned
	id       int
	at       time.Duration
	deadline time.Duration // 'w': when the wait times out, -1 for a plain Wait
	timedOut bool          // 'r'
}

// mixCond logs every queue, signal and return on its Cond under the
// Cond's own lock, which orders the log exactly like the Cond's queue.
type mixCond struct {
	mu  sync.Mutex
	c   *Cond
	log []condEvent
}

type rwEvent struct {
	kind    byte // 'a' arrived, 'g' granted, 'u' released
	acq     int
	writing bool
	at      time.Duration
}

type handoffMix struct {
	e      *Env
	conds  [mixConds]*mixCond
	lock   *RWLock
	mu     sync.Mutex // guards rwLog and errs
	rwLog  []rwEvent
	errs   []string
	nextID atomic.Int64
}

func (m *handoffMix) fail(format string, args ...any) {
	m.mu.Lock()
	m.errs = append(m.errs, fmt.Sprintf(format, args...))
	m.mu.Unlock()
}

// runHandoffMix runs one seed's mix and checks its logs. A lost wakeup
// hangs the run in real time, so a watchdog reports that instead.
func runHandoffMix(seed int64) error {
	m := &handoffMix{e: NewEnv()}
	ran := make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ran <- fmt.Errorf("run panicked: %v", p)
			}
		}()
		m.run(seed)
		ran <- nil
	}()
	select {
	case err := <-ran:
		if err != nil {
			return err
		}
	case <-time.After(10 * time.Second):
		return fmt.Errorf("run hung for 10s of real time")
	}
	for _, mc := range m.conds {
		m.checkCond(mc)
	}
	m.checkRWLock()
	m.checkEnv()
	if len(m.errs) > 0 {
		return fmt.Errorf("%d violations, first: %s", len(m.errs), m.errs[0])
	}
	return nil
}

func (m *handoffMix) run(seed int64) {
	m.e.Run(func() {
		e := m.e
		for i := range m.conds {
			mc := &mixCond{}
			mc.c = e.NewCond(&mc.mu)
			m.conds[i] = mc
		}
		m.lock = e.NewRWLock()
		var busy atomic.Int32
		busy.Store(mixWorkers + mixRW)
		wg := e.NewWaitGroup()
		spawn := func(g int, fn func(*rand.Rand)) {
			wg.Add(1)
			rng := rand.New(rand.NewSource(seed*1000 + int64(g)))
			e.Go(func() {
				defer wg.Done()
				fn(rng)
			})
		}
		for g := 0; g < mixWorkers; g++ {
			spawn(g, func(rng *rand.Rand) {
				defer busy.Add(-1)
				for i := 0; i < mixOps; i++ {
					m.waitOp(rng)
				}
			})
		}
		for g := 0; g < mixRW; g++ {
			spawn(100+g, func(rng *rand.Rand) {
				defer busy.Add(-1)
				m.rwWorker(g, rng)
			})
		}
		for g := 0; g < mixSignalers; g++ {
			spawn(200+g, func(rng *rand.Rand) {
				for busy.Load() > 0 {
					e.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
					mc := m.conds[rng.Intn(mixConds)]
					mc.mu.Lock()
					kind := byte('s')
					if rng.Intn(5) == 0 {
						kind = 'b'
						mc.c.Broadcast()
					} else {
						mc.c.Signal()
					}
					mc.log = append(mc.log, condEvent{kind: kind, at: e.Now()})
					mc.mu.Unlock()
				}
			})
		}
		wg.Wait()
	})
}

// waitOp runs one random Sleep, Wait or WaitTimeout.
func (m *handoffMix) waitOp(rng *rand.Rand) {
	e := m.e
	d := time.Duration(rng.Intn(5)-1) * time.Millisecond
	if rng.Intn(3) == 0 {
		start := e.Now()
		e.Sleep(d)
		if want := start + max(d, 0); e.Now() != want {
			m.fail("Sleep(%v) from %v returned at %v", d, start, e.Now())
		}
		return
	}
	mc := m.conds[rng.Intn(mixConds)]
	timed := rng.Intn(3) > 0
	id := int(m.nextID.Add(1))
	mc.mu.Lock()
	defer mc.mu.Unlock()
	ev := condEvent{kind: 'w', id: id, at: e.Now(), deadline: -1}
	if timed {
		ev.deadline = ev.at + max(d, 0)
	}
	mc.log = append(mc.log, ev)
	timedOut := false
	if timed {
		timedOut = mc.c.WaitTimeout(d)
	} else {
		mc.c.Wait()
	}
	mc.log = append(mc.log, condEvent{kind: 'r', id: id, at: e.Now(), timedOut: timedOut})
}

// checkCond replays one Cond's log: each wait returns once; a timed-out
// wait returns at its deadline; each Signal skips only waiters whose
// timer already fired and wakes the oldest other one, which returns at
// the Signal's instant; every signaled return was reached by a signal.
func (m *handoffMix) checkCond(mc *mixCond) {
	queued := map[int]condEvent{}
	returned := map[int]condEvent{}
	for _, ev := range mc.log {
		switch ev.kind {
		case 'w':
			queued[ev.id] = ev
		case 'r':
			if _, dup := returned[ev.id]; dup {
				m.fail("wait %d returned twice", ev.id)
			}
			returned[ev.id] = ev
			w := queued[ev.id]
			if ev.timedOut && ev.at != w.deadline {
				m.fail("wait %d timed out at %v, deadline %v", ev.id, ev.at, w.deadline)
			}
			if ev.timedOut && w.deadline < 0 {
				m.fail("plain wait %d reported a timeout", ev.id)
			}
		}
	}
	for id := range queued {
		if _, ok := returned[id]; !ok {
			m.fail("wait %d never returned", id)
		}
	}
	var fifo []int
	reached := map[int]bool{}
	for _, ev := range mc.log {
		switch ev.kind {
		case 'w':
			fifo = append(fifo, ev.id)
		case 's', 'b':
			for len(fifo) > 0 {
				id := fifo[0]
				fifo = fifo[1:]
				w, r := queued[id], returned[id]
				if r.timedOut {
					if w.deadline > ev.at {
						m.fail("signal at %v skipped wait %d, live until %v", ev.at, id, w.deadline)
					}
					continue
				}
				reached[id] = true
				if r.at != ev.at {
					m.fail("wait %d returned at %v, want the signal at %v that reached it", id, r.at, ev.at)
				}
				if ev.kind == 's' {
					break
				}
			}
		}
	}
	for id, r := range returned {
		if !r.timedOut && !reached[id] {
			m.fail("wait %d returned signaled but no signal reached it", id)
		}
	}
	if n := mc.c.waiters.len(); n != 0 {
		m.fail("%d waiters left queued on a Cond after every wait returned", n)
	}
}

// rwWorker makes mixAcquires random acquisitions, arriving on its own
// offset within rwUnit and releasing on a multiple of it.
func (m *handoffMix) rwWorker(g int, rng *rand.Rand) {
	e := m.e
	next := func(off time.Duration) time.Duration {
		now := e.Now()
		at := now - now%rwUnit + off
		if at <= now {
			at += rwUnit
		}
		return at + time.Duration(rng.Intn(3))*rwUnit - now
	}
	logEv := func(ev rwEvent) {
		ev.at = e.Now()
		m.mu.Lock()
		m.rwLog = append(m.rwLog, ev)
		m.mu.Unlock()
	}
	for i := 0; i < mixAcquires; i++ {
		acq := g*mixAcquires + i
		writing := rng.Intn(3) == 0
		e.Sleep(next(time.Duration(g+1) * rwStep))
		logEv(rwEvent{kind: 'a', acq: acq, writing: writing})
		if writing {
			m.lock.Lock()
		} else {
			m.lock.RLock()
		}
		logEv(rwEvent{kind: 'g', acq: acq})
		e.Sleep(next(0))
		logEv(rwEvent{kind: 'u', acq: acq, writing: writing})
		if writing {
			m.lock.Unlock()
		} else {
			m.lock.RUnlock()
		}
	}
}

// checkRWLock replays the RWLock log instant by instant against the
// reference model: releases first, then grants from the head of a FIFO
// queue (one writer, or every consecutive reader), then the instant's
// arrival, granted at once only if nothing is queued and the lock is
// compatible. The model's grants at each instant must be the observed ones.
func (m *handoffMix) checkRWLock() {
	log := slices.Clone(m.rwLog)
	sort.SliceStable(log, func(i, j int) bool { return log[i].at < log[j].at })
	type acq struct {
		id      int
		writing bool
	}
	var (
		queue   []acq
		readers int
		writer  bool
	)
	grantHead := func(expect map[int]bool) {
		for len(queue) > 0 && !writer {
			if queue[0].writing {
				if readers > 0 {
					return
				}
				writer = true
			} else {
				readers++
			}
			expect[queue[0].id] = true
			queue = queue[1:]
		}
	}
	for i := 0; i < len(log); {
		at := log[i].at
		j := i
		for j < len(log) && log[j].at == at {
			j++
		}
		expect, got := map[int]bool{}, map[int]bool{}
		released := false
		for _, ev := range log[i:j] {
			if ev.kind != 'u' {
				continue
			}
			released = true
			if ev.writing {
				writer = false
			} else {
				readers--
			}
		}
		if released {
			grantHead(expect)
		}
		for _, ev := range log[i:j] {
			switch ev.kind {
			case 'a':
				queue = append(queue, acq{ev.acq, ev.writing})
				grantHead(expect)
			case 'g':
				got[ev.acq] = true
			}
		}
		if len(expect) != len(got) {
			m.fail("RWLock at %v granted %v, model grants %v", at, keys(got), keys(expect))
		} else {
			for id := range expect {
				if !got[id] {
					m.fail("RWLock at %v granted %v, model grants %v", at, keys(got), keys(expect))
					break
				}
			}
		}
		i = j
	}
	if len(queue) > 0 || readers != 0 || writer {
		m.fail("RWLock model ends with %d queued, %d readers, writer=%v", len(queue), readers, writer)
	}
}

// checkEnv: the run left nothing scheduled or parked, and no waiter sits
// on the free list twice.
func (m *handoffMix) checkEnv() {
	e := m.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.timers) != 0 || len(e.parked) != 0 {
		m.fail("after Run: %d timers, %d parked", len(e.timers), len(e.parked))
	}
	seen := map[*waiter]bool{}
	for _, w := range e.free {
		if seen[w] {
			m.fail("waiter released twice")
		}
		seen[w] = true
	}
}

func keys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
