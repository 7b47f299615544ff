// Package pivot is the public API of this Pivot Tracing implementation:
// dynamic causal monitoring for distributed Go systems.
//
// Pivot Tracing (Mace, Roelke, Fonseca — SOSP 2015) lets operators install
// relational queries over tracepoint events at runtime, including queries
// that group and filter by events from other processes via the
// happened-before join (->). This package wires the pieces together for
// embedding in an application process:
//
//	pt := pivot.New("my-service")
//	requests := pt.Define("Server.HandleRequest", "size")
//	...
//	func handle(ctx context.Context, req Request) {
//	    requests.Here(ctx, len(req.Body))
//	    ...
//	}
//	...
//	q, _ := pt.Install(`From r In Server.HandleRequest
//	                    GroupBy r.host Select r.host, COUNT, SUM(r.size)`)
//	stop := pt.StartReporting(time.Second)
//	defer stop()
//	... q.Rows() ...
//
// Requests carry baggage in their context: call NewRequest at the request
// entry point, Inject/Extract at process boundaries, and Split/Join around
// parallel branches. The simulated Hadoop stack used by the paper's
// evaluation lives under internal/ and is driven by the cmd/ tools.
package pivot

import (
	"context"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/spans"
	"repro/internal/telemetry"
	"repro/internal/tracepoint"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// Tracepoint is a named instrumentation site; call Here at the location it
// identifies.
type Tracepoint = tracepoint.Tracepoint

// Query is a handle to an installed query.
type Query = core.Installed

// Group is one globally merged group-by bucket with its partial aggregate
// states (see Query.Groups); callers use it to inspect aggregate-state
// metadata such as sampling exactness.
type Group = advice.Group

// Report is one interval's partial results from one process.
type Report = agent.Report

// Tuple is one result row; Value is one field of a row.
type (
	Tuple = tuple.Tuple
	Value = tuple.Value
)

// PT is an in-process Pivot Tracing runtime: tracepoint registry, agent,
// and query frontend sharing an in-process message bus. In a multi-process
// deployment each process runs an agent connected to a shared bus; this
// single-process form is the embeddable core.
type PT struct {
	Registry *tracepoint.Registry
	Bus      *bus.Bus
	Frontend *core.PivotTracing
	Agent    *agent.Agent

	info tracepoint.ProcInfo
}

// New creates a Pivot Tracing runtime for this process. procName appears
// as the procName default export of every tracepoint crossing.
func New(procName string) *PT {
	reg := tracepoint.NewRegistry()
	b := bus.New()
	host, _ := os.Hostname()
	info := tracepoint.ProcInfo{
		Host:     host,
		ProcName: procName,
		ProcID:   int64(os.Getpid()),
	}
	return &PT{
		Registry: reg,
		Bus:      b,
		Frontend: core.New(b, reg),
		Agent:    agent.New(nil, info, reg, b, 0),
		info:     info,
	}
}

// Context attaches this process's identity to ctx so tracepoint crossings
// export the right host and procName defaults.
func (pt *PT) Context(ctx context.Context) context.Context {
	return tracepoint.WithProc(ctx, pt.info)
}

// NewRequest returns a context for a fresh request entering this process:
// process identity plus new baggage carrying the request's sampling
// decision (when any installed query samples), minted once here so every
// downstream tracepoint — across splits, joins, and process transfers —
// agrees whether this request is kept.
func (pt *PT) NewRequest(ctx context.Context) context.Context {
	bag := baggage.New()
	if pt.Agent != nil {
		pt.Agent.MintSampleDecision(bag)
	}
	return baggage.NewContext(pt.Context(ctx), bag)
}

// Define declares a tracepoint exporting the named variables (in addition
// to the defaults: host, time, procName, procId, tracepoint).
func (pt *PT) Define(name string, exports ...string) *Tracepoint {
	return pt.Registry.Define(name, exports...)
}

// Install parses, compiles, optimizes, and installs a query.
func (pt *PT) Install(text string) (*Query, error) {
	return pt.Frontend.Install(text)
}

// InstallNamed installs a query under a name that later queries can join
// (as in the paper's Q9 joining Q8).
func (pt *PT) InstallNamed(name, text string) (*Query, error) {
	return pt.Frontend.InstallNamed(name, text, plan.Optimized)
}

// Flush publishes the current partial results to installed query handles.
func (pt *PT) Flush() { pt.Agent.Flush() }

// serializeTP is the "baggage.Serialize" meta-tracepoint, armed by
// EnableSelfTelemetry. It is package-global because Inject is a package
// function; in the (test-only) case of several runtimes per OS process,
// the last runtime to enable self-telemetry owns it.
var serializeTP atomic.Pointer[tracepoint.Tracepoint]

// EnableSelfTelemetry turns the tracer's instruments on itself:
//
//   - attaches the frontend's telemetry registry to the tracepoint
//     registry, the bus, the agent, and the process's baggage layer, so
//     Status() includes hit/weave counters, per-topic message counts,
//     report totals, and baggage serialization volume. The agent
//     registers its own counters under agent.MetricNames, so they report
//     totals since the agent started, not since this call;
//
//   - defines and arms the meta-tracepoints "agent.Report" (query, rows,
//     tuples), "tracepoint.Weave" (name, query), and "baggage.Serialize"
//     (bytes), so Pivot Tracing queries can run over Pivot Tracing
//     itself — e.g.
//
//     From r In agent.Report GroupBy r.host Select r.host, SUM(r.tuples)
//
// It returns the telemetry registry for direct snapshotting.
func (pt *PT) EnableSelfTelemetry() *telemetry.Registry {
	tel := pt.Frontend.Telemetry()
	pt.Registry.SetTelemetry(tel)
	pt.Bus.SetTelemetry(tel)
	pt.Agent.SetTelemetry(tel)
	baggage.SetTelemetry(tel)
	pt.Agent.EnableMetaTracepoint()
	pt.Frontend.EnableMetaTracepoints()
	serializeTP.Store(pt.Registry.Define("baggage.Serialize", "bytes"))
	return tel
}

// spanSeedSeq disambiguates span-ID seeds when several runtimes share one
// OS process (tests, simulated clusters): same PID, distinct streams.
var spanSeedSeq atomic.Uint64

// EnableSpans turns on causal span capture for this runtime: every
// tracepoint crossing on a baggage-carrying context records a span (in a
// bounded ring of the given capacity; <= 0 selects the default), batches
// ship on the trace topic at each flush, and the frontend reconstructs
// per-request DAGs, exposed via Traces(). Enabling spans also makes the
// agent publish per-query EXPLAIN ANALYZE statistics at each flush (see
// Query.ExplainAnalyze). The disabled path costs nothing: until this is
// called, crossings never touch the span machinery.
func (pt *PT) EnableSpans(capacity int) *spans.Builder {
	seed := uint64(pt.info.ProcID)<<32 | spanSeedSeq.Add(1)
	pt.Agent.EnableSpans(seed, capacity)
	return pt.Frontend.EnableTraceCollection()
}

// Traces returns the frontend's request-DAG builder, or nil if EnableSpans
// was never called.
func (pt *PT) Traces() *spans.Builder { return pt.Frontend.Traces() }

// Status reports the tracer's own health: per-agent heartbeat ages,
// per-query progress and cost, and (after EnableSelfTelemetry) the full
// telemetry snapshot.
func (pt *PT) Status() core.Status { return pt.Frontend.Status() }

// StatusText renders Status as aligned text tables.
func (pt *PT) StatusText() string { return pt.Frontend.StatusText() }

// RenewLeases re-arms every installed query's lease. StartReporting does
// this on each tick; frontends with their own schedulers call it directly
// (at least a few times per agent.DefaultLease).
func (pt *PT) RenewLeases() { pt.Frontend.RenewLeases() }

// StartReporting flushes on a wall-clock interval until the returned stop
// function is called. Each tick also renews the frontend's query leases,
// so a process that stops ticking (or is partitioned from the bus) lets
// its queries lapse from every agent.
func (pt *PT) StartReporting(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				pt.RenewLeases()
				pt.Flush()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// NewRequest attaches fresh, empty baggage to ctx: call at the entry point
// of each request.
func NewRequest(ctx context.Context) context.Context {
	return baggage.NewContext(ctx, baggage.New())
}

// Inject serializes the request's baggage for transport in an RPC header.
// Empty baggage serializes to zero bytes.
func Inject(ctx context.Context) []byte {
	out := baggage.FromContext(ctx).Serialize()
	if tp := serializeTP.Load(); tp != nil {
		tp.Here(ctx, int64(len(out)))
	}
	return out
}

// Extract attaches baggage received from the wire to ctx (lazily decoded).
func Extract(ctx context.Context, wire []byte) context.Context {
	return baggage.NewContext(ctx, baggage.Deserialize(wire))
}

// Split divides the request's baggage for a branching execution, returning
// contexts for the two branches. Tuples packed by one branch are invisible
// to the other until Join.
func Split(ctx context.Context) (context.Context, context.Context) {
	bag := baggage.FromContext(ctx)
	if bag == nil {
		return ctx, ctx
	}
	a, b := bag.Split()
	return baggage.NewContext(ctx, a), baggage.NewContext(ctx, b)
}

// Join merges the baggage of two rejoining branches and returns a context
// carrying the merged baggage.
func Join(ctx context.Context, a, b context.Context) context.Context {
	merged := baggage.Join(baggage.FromContext(a), baggage.FromContext(b))
	return baggage.NewContext(ctx, merged)
}

// BusOptions configures a runtime's connection to the pub/sub server: the
// reconnection schedule of the underlying bus.Link and the report
// retention buffer used to replay reports published during an outage.
type BusOptions struct {
	// Reconnect keeps the link alive across bus outages: redial with
	// exponential backoff + jitter, then resume bridging and replay
	// retained reports. DefaultBusOptions enables it.
	Reconnect bool

	// BackoffBase/BackoffMax bound the redial schedule (zero values take
	// the bus package defaults).
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// Seed fixes the backoff jitter RNG (deterministic chaos tests).
	Seed int64

	// Retention is the agent's outage ring-buffer capacity in reports;
	// <= 0 selects agent.DefaultRetention.
	Retention int

	// Dial overrides the link's dialer (fault injection in tests).
	Dial func(addr string) (net.Conn, error)

	// ReportTopic routes this worker's result reports to the given topic
	// instead of the shared results topic — normally a partition topic
	// owned by a combiner tier (see internal/combiner). "" keeps the
	// default. Outage retention and replay follow the configured topic.
	ReportTopic string
}

// DefaultBusOptions is the production posture: reconnect with the default
// backoff schedule and retention.
func DefaultBusOptions() BusOptions { return BusOptions{Reconnect: true} }

// linkOptions translates BusOptions to the bus layer.
func (o BusOptions) linkOptions(tel *telemetry.Registry) bus.LinkOptions {
	return bus.LinkOptions{
		Reconnect:   o.Reconnect,
		BackoffBase: o.BackoffBase,
		BackoffMax:  o.BackoffMax,
		JitterSeed:  o.Seed,
		Dial:        o.Dial,
		Telemetry:   tel,
	}
}

// ServeBus starts the central pub/sub server of a distributed deployment
// (§5 of the paper) on addr ("host:port", or ":0" for an ephemeral port)
// and connects this runtime to it as the query frontend: installed queries
// are shipped to every connected worker, whose reports flow back here.
// It returns the server's address and a shutdown function.
func (pt *PT) ServeBus(addr string) (busAddr string, shutdown func(), err error) {
	srv, err := bus.Serve(addr)
	if err != nil {
		return "", nil, err
	}
	disconnect, err := pt.ConnectFrontend(srv.Addr(), DefaultBusOptions())
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	return srv.Addr(), func() { disconnect(); srv.Close() }, nil
}

// ConnectFrontend joins this runtime to an existing pub/sub server as the
// query frontend (the serving half of ServeBus without owning the server —
// for deployments where the bus runs elsewhere, and for chaos tests that
// kill and restart it). On every reconnect the frontend rebroadcasts its
// standing installs, so workers that joined — or rejoined — during the
// outage still weave every active query.
func (pt *PT) ConnectFrontend(busAddr string, opts BusOptions) (disconnect func(), err error) {
	lopts := opts.linkOptions(pt.Frontend.Telemetry())
	var link *bus.Link
	lopts.OnUp = func(int64) {
		for _, inst := range pt.Frontend.Installs() {
			link.Send(agent.ControlTopic, inst)
		}
	}
	link, err = bus.ConnectOptions(pt.Bus, busAddr, wire.BusCodec{},
		[]string{agent.ControlTopic, agent.StatusResponseTopic},
		[]string{agent.ResultsTopic, agent.HealthTopic, agent.QuarantineTopic,
			agent.StatusRequestTopic, agent.TraceTopic},
		lopts)
	if err != nil {
		return nil, err
	}
	return link.Close, nil
}

// ConnectBus joins this runtime to a distributed deployment as a monitored
// worker: queries installed at the frontend weave into this process's
// tracepoints, and this process's reports stream back. The connection is
// resilient (DefaultBusOptions): during a bus outage flushed reports are
// retained in the agent's bounded ring buffer and replayed on reconnect,
// with losses counted in the agent's stats. It returns a disconnect
// function.
func (pt *PT) ConnectBus(busAddr string) (disconnect func(), err error) {
	return pt.ConnectBusWith(busAddr, DefaultBusOptions())
}

// ConnectBusWith is ConnectBus with explicit resilience options.
func (pt *PT) ConnectBusWith(busAddr string, opts BusOptions) (disconnect func(), err error) {
	pt.Agent.SetRetention(opts.Retention)
	reportTopic := agent.ResultsTopic
	if opts.ReportTopic != "" {
		reportTopic = opts.ReportTopic
		pt.Agent.SetReportTopic(reportTopic)
	}
	lopts := opts.linkOptions(pt.Frontend.Telemetry())
	var link *bus.Link
	lopts.OnDrop = func(topic string, msg any) {
		// Reports survive the outage in the agent's ring buffer;
		// heartbeats are liveness beacons and not worth replaying. A
		// dropped batch retains its constituent reports individually, so
		// replay granularity (and ring accounting) stays per-report.
		if topic == reportTopic {
			switch m := msg.(type) {
			case agent.Report:
				pt.Agent.Retain(m)
			case agent.ReportBatch:
				for _, r := range m.Reports {
					pt.Agent.Retain(r)
				}
			}
		}
	}
	lopts.OnUp = func(int64) {
		pt.Agent.NoteReconnect()
		pt.Agent.ReplayRetained(func(r agent.Report) error {
			return link.Send(reportTopic, r)
		})
	}
	// TraceTopic is outbound but deliberately absent from OnDrop below:
	// spans are best-effort observability and are never retained or
	// replayed across an outage (the recorder's drop counter still tells
	// the story).
	link, err = bus.ConnectOptions(pt.Bus, busAddr, wire.BusCodec{},
		[]string{reportTopic, agent.HealthTopic, agent.QuarantineTopic,
			agent.TraceTopic},
		[]string{agent.ControlTopic},
		lopts)
	if err != nil {
		return nil, err
	}
	return link.Close, nil
}

// Clock abstracts the time source of the tracepoint "time" default export.
type Clock = tracepoint.Clock

// WithClock overrides the tracepoint time source for crossings made with
// the returned context (tests and simulations use virtual clocks).
func WithClock(ctx context.Context, c Clock) context.Context {
	return tracepoint.WithClock(ctx, c)
}

// WithProcess overrides the process identity for tracepoint crossings made
// with the returned context (useful when one OS process hosts several
// logical services).
func WithProcess(ctx context.Context, host, procName string) context.Context {
	return tracepoint.WithProc(ctx, tracepoint.ProcInfo{
		Host: host, ProcName: procName, ProcID: int64(os.Getpid()),
	})
}
