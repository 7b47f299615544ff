package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/bus"
	"repro/pivot"
)

// liveSpec is one live workload: a frontend and a worker runtime joined by
// the real TCP bus, the worker hosting a gateway and a store service.
type liveSpec struct {
	hops    int    // Gateway.Hop crossings per request
	query   string // the checked query: group key, SUM(w.bytes), COUNT
	perProc string // optional per-process COUNT beside it
	churn   bool   // install and retire a third query every churnEvery
}

const (
	flushEvery = 10 * time.Millisecond
	churnEvery = 50 * time.Millisecond
	clientKeys = 4096
	// setups is how many times a run builds the deployment; setup_s is
	// their median, and the last one serves the measured load.
	setups = 21
	// spanEvery: a traced run records spans for one request in this
	// many, and stops at maxSpans, bounding the tracing overhead and the
	// span memory.
	spanEvery = 16
	maxSpans  = 200_000
	// latencyEvery: the generator times one request in this many.
	latencyEvery = 16
	// warmup runs the load unmeasured first, so lazy set-up and the
	// machine's own ramp-up are not timed.
	warmup = 2 * time.Second
	// statWindow is the window of the per-window throughput and CPU
	// figures whose medians a run reports.
	statWindow = time.Second
	// waitFor bounds every wait on the pipeline: weave, final results.
	waitFor = 5 * time.Second
)

var liveSpecs = map[string]liveSpec{
	"live-join": {
		query: `From w In Store.Write
			Join g In First(Gateway.Receive) On g -> w
			GroupBy g.client
			Select g.client, SUM(w.bytes), COUNT`,
		perProc: `From g In Gateway.Receive GroupBy g.procName Select g.procName, COUNT`,
		churn:   true,
	},
	"live-fatbag": {
		hops: 60,
		query: `From w In Store.Write
			Join h In Gateway.Hop On h -> w
			GroupBy h.hop
			Select h.hop, SUM(w.bytes), COUNT`,
	},
}

const churnQuery = `From w In Store.Write GroupBy w.host Select w.host, COUNT`

// input is one generated request.
type input struct{ client, bytes int64 }

// liveInputs draws the request stream from the seed: client ids Zipf-like
// over clientKeys keys, payload sizes uniform.
func liveInputs(seed int64) []input {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 64, clientKeys-1)
	in := make([]input, 1<<16)
	for i := range in {
		in[i] = input{client: int64(zipf.Uint64()), bytes: 64 + rng.Int63n(4033)}
	}
	return in
}

// deployment is one frontend + worker pair on a fresh bus server. It uses
// the two steps of pivot's ServeBus (bus.Serve, ConnectFrontend) so the
// benchmark can read the server's drop counter.
type deployment struct {
	srv               *bus.Server
	fe, w             *pivot.PT
	closeFE, closeW   func()
	recv, hop, write  *pivot.Tracepoint
	main, perProc     *pivot.Query
	storeBase         context.Context
	installs          []install
	installsFailed    int64
	installsAttempted int64

	wovenMu sync.Mutex
	woven   map[string]chan time.Time // query id → when the worker wove it
}

// install is the timing of one Install: the call, its return, and the
// moment the worker had woven it (and, for churn, the first result);
// trace marks an install made while spans were on.
type install struct {
	call, ret, woven, first time.Time
	trace                   bool
}

func defineTracepoints(pt *pivot.PT) (recv, hop, write *pivot.Tracepoint) {
	return pt.Define("Gateway.Receive", "client"), pt.Define("Gateway.Hop", "hop"), pt.Define("Store.Write", "bytes")
}

func deploy(spec liveSpec) (*deployment, error) {
	srv, err := bus.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &deployment{srv: srv, fe: pivot.New("frontend"), w: pivot.New("worker")}
	defineTracepoints(d.fe)
	d.closeFE, err = d.fe.ConnectFrontend(srv.Addr(), pivot.DefaultBusOptions())
	if err != nil {
		srv.Close()
		return nil, err
	}
	d.recv, d.hop, d.write = defineTracepoints(d.w)
	// The worker's bus delivers control messages synchronously in
	// subscription order, after the agent's own handler: when this
	// handler sees an Install, the agent has already processed it.
	d.woven = make(map[string]chan time.Time)
	d.w.Bus.Subscribe(agent.ControlTopic, func(msg any) {
		if in, ok := msg.(agent.Install); ok {
			select {
			case d.wovenCh(in.QueryID) <- time.Now():
			default:
			}
		}
	})
	d.closeW, err = d.w.ConnectBus(srv.Addr())
	if err != nil {
		d.closeFE()
		srv.Close()
		return nil, err
	}
	d.storeBase = pivot.WithProcess(context.Background(), "store-host", "store")
	if d.main, err = d.install(spec.query); err != nil {
		d.close()
		return nil, err
	}
	if spec.perProc != "" {
		if d.perProc, err = d.install(spec.perProc); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

func (d *deployment) close() {
	d.closeW()
	d.closeFE()
	d.srv.Close()
	d.w.Agent.Close()
	d.fe.Frontend.Close()
}

// install installs a query and waits until the worker has woven it.
func (d *deployment) install(text string) (*pivot.Query, error) {
	d.installsAttempted++
	in := install{call: time.Now()}
	q, err := d.fe.Install(text)
	in.ret = time.Now()
	if err != nil {
		d.installsFailed++
		return nil, err
	}
	timeout := time.NewTimer(waitFor)
	defer timeout.Stop()
	select {
	case in.woven = <-d.wovenCh(q.Name):
	case <-timeout.C:
	}
	d.wovenMu.Lock()
	delete(d.woven, q.Name)
	d.wovenMu.Unlock()
	if in.woven.IsZero() || !d.w.Agent.Installed(q.Name) {
		d.installsFailed++
		q.Uninstall()
		return nil, fmt.Errorf("query %s not woven at the worker within %v", q.Name, waitFor)
	}
	d.installs = append(d.installs, in)
	return q, nil
}

func (d *deployment) wovenCh(id string) chan time.Time {
	d.wovenMu.Lock()
	defer d.wovenMu.Unlock()
	c, ok := d.woven[id]
	if !ok {
		c = make(chan time.Time, 1)
		d.woven[id] = c
	}
	return c
}

// flushRec is one operator flush: monotonic call/return times plus the
// wall-clock bounds that identify the report it produced.
type flushRec struct {
	t0, t1           time.Time
	wall0, wall1     int64
	arrived          time.Time // the checked query's report reached the frontend
	hasReport, trace bool
}

// arrival is a report of the checked query reaching the frontend.
type arrival struct {
	reportTime int64
	at         time.Time
}

// liveRun holds one run's measurements.
type liveRun struct {
	spec liveSpec
	d    *deployment
	in   []input

	requests  int64
	bagBytes  int64
	latencies dist
	tally     map[int64]agg // per group key of the checked query
	spans     []span

	mu       sync.Mutex
	arrivals []arrival
	flushes  []flushRec
}

func (r *liveRun) noteArrival(rep pivot.Report) {
	at := time.Now()
	r.mu.Lock()
	r.arrivals = append(r.arrivals, arrival{reportTime: int64(rep.Time), at: at})
	r.mu.Unlock()
}

// request runs one request through the tracer: the gateway service mints
// baggage and crosses its tracepoints, the baggage crosses to the store
// service as bytes, and the store's write joins against it.
func (r *liveRun) request(in input) time.Duration {
	d := r.d
	t0 := time.Now()
	ctx := pivot.WithProcess(d.w.NewRequest(context.Background()), "gw-host", "gateway")
	if r.spec.hops == 0 {
		d.recv.Here(ctx, in.client)
	}
	for h := 0; h < r.spec.hops; h++ {
		d.hop.Here(ctx, h)
	}
	wire := pivot.Inject(ctx)
	sctx := pivot.Extract(d.storeBase, wire)
	d.write.Here(sctx, in.bytes)
	lat := time.Since(t0)
	r.bagBytes += int64(len(wire))
	return lat
}

// tracedRequest is request with a span around every call into the tracer.
func (r *liveRun) tracedRequest(in input, trace uint64, base time.Time) {
	d := r.d
	var id int32 = 1
	add := func(layer string, a, b time.Time) {
		id++
		r.spans = append(r.spans, span{Trace: trace, ID: id, Parent: 1, Layer: layer,
			Start: int64(a.Sub(base)), End: int64(b.Sub(base))})
	}
	t0 := time.Now()
	bagCtx := d.w.NewRequest(context.Background())
	t1 := time.Now()
	add("baggage.new_request", t0, t1)
	ctx := pivot.WithProcess(bagCtx, "gw-host", "gateway")
	var a, b time.Time
	if r.spec.hops == 0 {
		a = time.Now()
		d.recv.Here(ctx, in.client)
		b = time.Now()
		add("tracepoint.here", a, b)
	}
	for h := 0; h < r.spec.hops; h++ {
		a = time.Now()
		d.hop.Here(ctx, h)
		b = time.Now()
		add("tracepoint.here", a, b)
	}
	a = time.Now()
	wire := pivot.Inject(ctx)
	b = time.Now()
	add("baggage.inject", a, b)
	sctx := pivot.Extract(d.storeBase, wire)
	a = time.Now()
	add("baggage.extract", b, a)
	d.write.Here(sctx, in.bytes)
	b = time.Now()
	add("tracepoint.here", a, b)
	r.spans = append(r.spans, span{Trace: trace, ID: 1, Layer: "request",
		Start: int64(t0.Sub(base)), End: int64(b.Sub(base))})
	r.bagBytes += int64(len(wire))
}

// phase is the load statistics of the measured run, cut into statWindow
// windows. Throughput and CPU per request are medians over the windows,
// so a few seconds of interference from outside the process move them
// less than a whole-run mean. In a traced run the windows alternate
// between spans off and spans on; the two kinds are kept apart, and
// alternating cancels any drift along the run out of their comparison.
type phase struct {
	requests  int64
	rps       []float64 // requests per second, per window with spans off
	cpuUS     []float64 // process CPU µs per request, per window with spans off
	tracedRPS []float64 // requests per second, per window with spans on
	win       window
}

func (p *phase) medianRPS() float64   { return median(p.rps) }
func (p *phase) medianCPUUS() float64 { return median(p.cpuUS) }

// generate is the closed-loop load: one request after another until the
// deadline. It keeps its own tally of what the checked query must report
// and times one request in latencyEvery. With spansOn set, it turns spans
// on for every second window (and tells the operator through spansOn).
func (r *liveRun) generate(until time.Time, spansOn *atomic.Bool, base time.Time) *phase {
	p := &phase{win: window{from: readUsage()}}
	start := time.Now()
	winStart, winCPU, winN := start, p.win.from.cpu, int64(0)
	spans := false
	mask := len(r.in) - 1
	for i := r.requests; ; i++ {
		in := r.in[int(i)&mask]
		switch {
		case spans && i%spanEvery == 0 && len(r.spans) < maxSpans:
			r.tracedRequest(in, uint64(i)+1, base)
		case !spans && i%latencyEvery == 0:
			r.latencies = append(r.latencies, int64(r.request(in)))
		default:
			r.request(in)
		}
		key := in.client
		if r.spec.hops > 0 {
			key = 0 // every hop group sees every request; tallied once
		}
		t := r.tally[key]
		t.count++
		t.sum += in.bytes
		r.tally[key] = t
		p.requests++
		r.requests++
		if p.requests&63 != 0 {
			continue
		}
		now := time.Now()
		if now.Sub(winStart) >= statWindow {
			cpu := readCPU()
			n := p.requests - winN
			rps := float64(n) / now.Sub(winStart).Seconds()
			if spans {
				p.tracedRPS = append(p.tracedRPS, rps)
			} else {
				p.rps = append(p.rps, rps)
				p.cpuUS = append(p.cpuUS, float64(cpu-winCPU)/1e3/float64(n))
			}
			winStart, winCPU, winN = now, cpu, p.requests
			if spansOn != nil {
				spans = !spans
				spansOn.Store(spans)
			}
		}
		if !now.Before(until) {
			p.win.to = readUsage()
			if len(p.rps) == 0 { // a run shorter than one window
				p.rps = append(p.rps, float64(p.requests)/now.Sub(start).Seconds())
				p.cpuUS = append(p.cpuUS, float64(p.win.to.cpu-p.win.from.cpu)/1e3/float64(p.requests))
			}
			if spansOn != nil {
				spansOn.Store(false)
			}
			return p
		}
	}
}

// operator flushes the worker every flushEvery, renews leases, and, for a
// churn workload, installs a third query every churnEvery and uninstalls
// it after its first result.
func (r *liveRun) operator(stop <-chan struct{}, traced *atomic.Bool) {
	d := r.d
	tick := time.NewTicker(flushEvery)
	defer tick.Stop()
	var (
		pending     *pivot.Query
		pendingAt   install
		first       chan time.Time
		nextInstall = time.Now()
	)
	for n := 1; ; n++ {
		select {
		case <-stop:
			if pending != nil {
				pending.Uninstall()
			}
			return
		case <-tick.C:
		}
		f := flushRec{t0: time.Now(), trace: traced.Load()}
		f.wall0 = f.t0.UnixNano()
		d.w.Flush()
		f.t1 = time.Now()
		f.wall1 = f.t1.UnixNano()
		r.mu.Lock()
		r.flushes = append(r.flushes, f)
		r.mu.Unlock()
		if n%100 == 0 {
			d.fe.RenewLeases()
		}
		if !r.spec.churn {
			continue
		}
		if pending != nil {
			select {
			case at := <-first:
				pendingAt.first = at
				d.installs[len(d.installs)-1] = pendingAt
				pending.Uninstall()
				pending = nil
			default:
			}
		}
		if pending == nil && !time.Now().Before(nextInstall) {
			nextInstall = time.Now().Add(churnEvery)
			q, err := d.install(churnQuery)
			if err != nil {
				continue // counted in installsFailed
			}
			in := &d.installs[len(d.installs)-1]
			in.trace = traced.Load()
			pending, pendingAt = q, *in
			// A fresh channel per query: a late report of a retired
			// query must not count as the next one's first result.
			first = make(chan time.Time, 1)
			ch := first
			q.OnReport(func(pivot.Report) {
				select {
				case ch <- time.Now():
				default:
				}
			})
		}
	}
}

// liveResult is everything a live run measured.
type liveResult struct {
	setup    []float64
	requests int64 // all requests sent, warm-up included
	measured int64 // requests in the measured phases
	load     *phase
	rss      float64

	latencies     dist // request latencies, spans off
	flushNS       dist
	deliverNS     dist
	resultNS      dist
	installNS     dist
	installCallNS dist
	weaveNS       dist
	firstNS       dist
	idleNS        dist

	attempted, failed int64
	tallyKeysOff      int
	serverDropped     int64
	agentStats        agentCounters
	crossings         int64
	bagBytes          int64

	traced        bool
	spans         []span
	profile       []byte
	profileShares map[string]float64
	profSamples   int64
}

// runLive executes one live workload run. With traced set, the run is
// under the CPU profiler and records spans in every second window, so
// the span overhead is measured within the run.
func runLive(name string, seed int64, seconds float64, traced bool) (*liveResult, error) {
	spec := liveSpecs[name]
	res := &liveResult{traced: traced}
	var d *deployment
	var installs []install // of the deployments closed before the load
	for i := 0; i < setups; i++ {
		if d != nil {
			installs = append(installs, d.installs...)
			d.close()
		}
		t0 := time.Now()
		var err error
		if d, err = deploy(spec); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
	}
	defer d.close()

	r := &liveRun{spec: spec, d: d, in: liveInputs(seed), tally: make(map[int64]agg)}
	r.latencies = make(dist, 0, int(seconds*500e3/latencyEvery))
	d.main.OnReport(r.noteArrival)
	stats0 := agentStatsOf(d.w)

	var tracedFlag atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.operator(stop, &tracedFlag)
	}()

	total := time.Duration(seconds * float64(time.Second))
	base := time.Now()
	r.generate(base.Add(warmup), nil, base)
	r.latencies = r.latencies[:0]
	crossings0 := invocations(d)
	bag0 := r.bagBytes
	if !traced {
		res.load = r.generate(time.Now().Add(total), nil, base)
	} else {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			close(stop)
			wg.Wait()
			return nil, err
		}
		res.load = r.generate(time.Now().Add(total), &tracedFlag, base)
		pprof.StopCPUProfile()
		res.profile = prof.Bytes()
	}
	res.latencies = r.latencies
	res.measured = res.load.requests
	res.crossings = invocations(d) - crossings0
	res.bagBytes = r.bagBytes - bag0
	close(stop)
	wg.Wait()

	// Final flush, then wait (bounded) for the frontend to catch up with
	// the generator's tally. A shortfall is never retried away.
	d.w.Flush()
	want, wantProc := r.wantGroups()
	deadline := time.Now().Add(waitFor)
	for time.Now().Before(deadline) {
		if sumCount(groups(d.main)) >= sumCount(want) && (d.perProc == nil || sumCount(groups(d.perProc)) >= sumCount(wantProc)) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	off, keys := compareTally(want, groups(d.main))
	if d.perProc != nil {
		offP, keysP := compareTally(wantProc, groups(d.perProc))
		off = max(off, offP)
		keys += keysP
	}
	res.tallyKeysOff = keys
	res.requests = r.requests
	res.attempted = r.requests + d.installsAttempted
	res.failed = off + d.installsFailed
	res.serverDropped = d.srv.Telemetry().Counter("bus.server.dropped.conns").Load()
	res.agentStats = agentStatsOf(d.w).sub(stats0)

	r.mu.Lock()
	flushes, arrivals := r.flushes, r.arrivals
	r.mu.Unlock()
	matchArrivals(flushes, arrivals)
	for i, f := range flushes {
		res.flushNS = append(res.flushNS, int64(f.t1.Sub(f.t0)))
		if !f.hasReport {
			continue
		}
		res.resultNS = append(res.resultNS, int64(f.arrived.Sub(f.t0)))
		res.deliverNS = append(res.deliverNS, int64(f.arrived.Sub(f.t1)))
		if f.trace {
			tr := uint64(1<<62 | i)
			r.spans = append(r.spans,
				span{Trace: tr, ID: 1, Layer: "flush", Start: int64(f.t0.Sub(base)), End: int64(f.arrived.Sub(base))},
				span{Trace: tr, ID: 2, Parent: 1, Layer: "agent.flush", Start: int64(f.t0.Sub(base)), End: int64(f.t1.Sub(base))},
				span{Trace: tr, ID: 3, Parent: 1, Layer: "bus.deliver", Start: int64(f.t1.Sub(base)), End: int64(f.arrived.Sub(base))})
		}
	}
	for i, in := range append(installs, d.installs...) {
		res.installNS = append(res.installNS, int64(in.woven.Sub(in.call)))
		res.installCallNS = append(res.installCallNS, int64(in.ret.Sub(in.call)))
		res.weaveNS = append(res.weaveNS, int64(in.woven.Sub(in.ret)))
		if !in.first.IsZero() {
			res.firstNS = append(res.firstNS, int64(in.first.Sub(in.call)))
		}
		if in.trace {
			tr := uint64(1<<61 | i)
			r.spans = append(r.spans,
				span{Trace: tr, ID: 1, Layer: "install", Start: int64(in.call.Sub(base)), End: int64(in.woven.Sub(base))},
				span{Trace: tr, ID: 2, Parent: 1, Layer: "plan.install_call", Start: int64(in.call.Sub(base)), End: int64(in.ret.Sub(base))},
				span{Trace: tr, ID: 3, Parent: 1, Layer: "agent.weave", Start: int64(in.ret.Sub(base)), End: int64(in.woven.Sub(base))})
		}
	}
	res.spans = r.spans

	if traced {
		var err error
		if res.profileShares, res.profSamples, err = cpuShares(res.profile); err != nil {
			return nil, err
		}
		if res.idleNS, err = r.idle(total / 10); err != nil {
			return nil, err
		}
	}
	res.rss = peakRSSMB(readUsage())
	return res, nil
}

// idle runs the same request loop with no query installed (Table 5's "PT
// enabled" row) and returns its request latencies.
func (r *liveRun) idle(length time.Duration) (dist, error) {
	d := r.d
	d.main.Uninstall()
	if d.perProc != nil {
		d.perProc.Uninstall()
	}
	deadline := time.Now().Add(waitFor)
	for d.recv.Enabled() || d.hop.Enabled() || d.write.Enabled() {
		if time.Now().After(deadline) {
			return nil, errors.New("idle: queries still woven after uninstall")
		}
		time.Sleep(time.Millisecond)
	}
	var out dist
	mask := len(r.in) - 1
	until := time.Now().Add(length)
	for i := 0; time.Now().Before(until); i++ {
		if lat := r.request(r.in[i&mask]); i%latencyEvery == 0 {
			out = append(out, int64(lat))
		}
	}
	return out, nil
}

// matchArrivals pairs each report arrival with the flush that produced
// it: the agent stamps a report with the wall clock inside Flush.
func matchArrivals(flushes []flushRec, arrivals []arrival) {
	for _, a := range arrivals {
		i := sort.Search(len(flushes), func(i int) bool { return flushes[i].wall1 >= a.reportTime })
		if i < len(flushes) && flushes[i].wall0 <= a.reportTime && !flushes[i].hasReport {
			flushes[i].hasReport, flushes[i].arrived = true, a.at
		}
	}
}

// wantGroups converts the generator's tally to the checked queries'
// expected groups, keyed as the frontend renders them.
func (r *liveRun) wantGroups() (main, perProc map[string]agg) {
	main = make(map[string]agg)
	if r.spec.hops > 0 {
		t := r.tally[0]
		for h := 0; h < r.spec.hops; h++ {
			main[strconv.Itoa(h)] = t
		}
	} else {
		for k, t := range r.tally {
			main[strconv.FormatInt(k, 10)] = t
		}
	}
	perProc = map[string]agg{"gateway": {count: r.requests}}
	return main, perProc
}

// groups reads a query's merged rows: key, then SUM and COUNT when the
// query has both, else COUNT alone.
func groups(q *pivot.Query) map[string]agg {
	out := make(map[string]agg)
	for _, row := range q.Rows() {
		var a agg
		switch len(row) {
		case 3:
			a = agg{sum: row[1].Int(), count: row[2].Int()}
		case 2:
			a = agg{count: row[1].Int()}
		}
		out[row[0].String()] = a
	}
	return out
}

func sumCount(m map[string]agg) (n int64) {
	for _, a := range m {
		n += a.count
	}
	return n
}

// invocations sums the worker's woven tracepoint crossings.
func invocations(d *deployment) (n int64) {
	for _, tp := range []*pivot.Tracepoint{d.recv, d.hop, d.write} {
		n += tp.Invocations()
	}
	return n
}
