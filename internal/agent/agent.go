// Package agent implements the per-process Pivot Tracing agent (§5): it
// awaits weave/unweave instructions on the control topic, installs advice
// at the process's tracepoints, performs process-local partial aggregation
// of emitted tuples, and publishes partial query results at a configurable
// interval (one second by default).
package agent

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advice"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/sampling"
	"repro/internal/simtime"
	"repro/internal/spans"
	"repro/internal/telemetry"
	"repro/internal/tracepoint"
	"repro/internal/tuple"
)

// Topics used on the message bus.
const (
	ControlTopic = "pt.control"
	ResultsTopic = "pt.results"
	// HealthTopic carries agent Heartbeats. It is separate from
	// ResultsTopic so health traffic never perturbs result consumers.
	HealthTopic = "pt.health"
	// StatusRequestTopic/StatusResponseTopic carry frontend status
	// queries (see core.PivotTracing.Status and cmd/ptstat).
	StatusRequestTopic  = "pt.status.req"
	StatusResponseTopic = "pt.status.resp"
	// QuarantineTopic carries Quarantine notices: an agent tripped a
	// query's circuit breaker and unwove its advice.
	QuarantineTopic = "pt.quarantine"
	// TraceTopic carries causal-trace observability frames: SpanBatch
	// (captured spans, best-effort) and ExplainStats (per-operator advice
	// counters for EXPLAIN ANALYZE). Separate from ResultsTopic so trace
	// volume never competes with query results, and dropped trace frames
	// are not retained/replayed — spans are strictly best-effort.
	TraceTopic = "pt.trace"
	// tenantResultsPrefix prefixes the per-tenant result topics a combiner
	// tree routes merged frames to (see TenantResultsTopic).
	tenantResultsPrefix = "pt.results.t."
)

// TenantResultsTopic is the per-tenant results topic: a combiner tree with
// tenant routing forwards a tenant's merged report frames here, and only
// that tenant's frontend subscribes — so per-frontend inbound traffic
// scales with the tree, not with the cluster.
func TenantResultsTopic(tenant string) string {
	return tenantResultsPrefix + tenant
}

// MetaReportTracepoint is the meta-tracepoint crossed once per report the
// agent publishes, letting Pivot Tracing queries observe Pivot Tracing's
// own reporting (e.g. From r In agent.Report GroupBy r.host Select
// r.host, SUM(r.tuples)). It is opt-in via Agent.EnableMetaTracepoint.
const MetaReportTracepoint = "agent.Report"

// MetaReportExports are the declared exports of MetaReportTracepoint.
var MetaReportExports = []string{"query", "rows", "tuples"}

// Heartbeat is the agent's periodic liveness beacon, published on
// HealthTopic at every flush (reports or not). Time is the agent's own
// clock; Interval is its reporting cadence, so the frontend can judge
// staleness relative to how often this agent should speak.
//
// The beat is self-describing: Values[i] is the sender's total for the
// metric Names[i] since it started (MetricNames for an agent). Both are
// read-only: Names is the sender's table, shared by all its beats, and
// Values may be shared by consecutive beats that carry the same figures.
// Readers look metrics up by name (Metric), so a sender may add or drop
// metrics without breaking them.
type Heartbeat struct {
	Host     string
	ProcName string
	Time     time.Duration
	Interval time.Duration
	Queries  int
	Names    []string
	Values   []int64
}

// Metric returns the value of the named metric, or 0 if the beat does not
// carry it.
func (h Heartbeat) Metric(name string) int64 {
	for i, n := range h.Names {
		if n == name {
			return h.Values[i]
		}
	}
	return 0
}

// StatusRequest asks the frontend for its status text (cmd/ptstat sends
// these over the bus); ID correlates the response.
type StatusRequest struct {
	ID string
}

// StatusResponse is the frontend's rendered status.
type StatusResponse struct {
	ID   string
	Text string
}

// Install instructs agents to weave a query's advice programs. Each agent
// weaves the programs whose tracepoints exist in its process.
type Install struct {
	QueryID  string
	Programs []*advice.Program
	// TTL is the query's lease duration: if the frontend stops renewing
	// (see Renew), agents auto-uninstall the query TTL after the last
	// renewal, so a crashed frontend never leaves instrumentation
	// resident. Zero means no lease (immortal), preserving direct
	// installs by tests and embedders that manage lifecycle themselves.
	TTL time.Duration
	// Limits bounds the agent-side accumulator for this query.
	Limits advice.Limits
	// Tenant names the frontend that owns this query ("" = the primary
	// frontend). Agents account per-tenant tuple usage against it, and a
	// tenant-routing combiner learns the query→tenant mapping from it.
	Tenant string
	// Share is the fair-share divisor the installing frontend applied to
	// its budgets (how many tenants split the agent's capacity); carried on
	// the wire so agents and operators can audit the split. Zero or one
	// means the full, unsplit budget.
	Share int
}

// Uninstall instructs agents to remove a query's advice.
type Uninstall struct {
	QueryID string
}

// Renew extends the lease of the listed queries. The frontend publishes
// these periodically on the control topic; TTL == 0 keeps each query's
// current lease duration.
type Renew struct {
	QueryIDs []string
	TTL      time.Duration
}

// Quarantine is published on QuarantineTopic when an agent trips a
// query's circuit breaker: the offending program is unwoven in that
// process while the rest of the query keeps running.
type Quarantine struct {
	QueryID    string
	Tracepoint string
	Host       string
	ProcName   string
	Reason     string
	Time       time.Duration
}

// DefaultLease is the lease TTL the frontend attaches to installs unless
// the query specifies its own (plan.Options.Lease).
const DefaultLease = 30 * time.Second

// ReportBatch coalesces one flush interval's Reports from one process into
// a single bus frame, cutting frames and syscalls when many queries are
// installed. Batches are split so each frame's approximate payload stays
// under the agent's batch-size cap (SetBatchBytes). Consumers treat a
// batch exactly as its constituent Reports in order.
type ReportBatch struct {
	Host     string
	ProcName string
	Time     time.Duration
	Reports  []Report
}

// DefaultBatchBytes is the default approximate size cap of one ReportBatch
// frame's payload.
const DefaultBatchBytes = 256 << 10

// SpanBatch coalesces one flush interval's captured spans from one process
// into a single TraceTopic frame, mirroring ReportBatch's size-capped
// splitting. Spans are best-effort: a dropped frame is never retained.
type SpanBatch struct {
	Host     string
	ProcName string
	Time     time.Duration
	Spans    []spans.Span
}

// OpStats is one advice program's live operator counters, snapshot at
// flush time for EXPLAIN ANALYZE. Values are cumulative since install.
type OpStats struct {
	Tracepoint     string
	Invocations    int64
	Sampled        int64
	DroppedByJoin  int64
	TuplesFiltered int64
	TuplesPacked   int64
	PackedBytes    int64
	PackRefused    int64
	EvictedGroups  int64
	EvictedTuples  int64
	EvictedBytes   int64
	TuplesEmitted  int64
	Panics         int64
}

// ExplainStats carries one query's per-operator counters from one process,
// published on TraceTopic at every flush while span capture is enabled.
// FlushNS is the wall-clock nanoseconds the agent spent draining and
// encoding this query's partial results in the flush that produced this
// snapshot — the agent-side "merge time" of EXPLAIN ANALYZE.
type ExplainStats struct {
	QueryID  string
	Host     string
	ProcName string
	Time     time.Duration
	FlushNS  int64
	Ops      []OpStats
}

// Report is one interval's partial results from one process for one query.
type Report struct {
	QueryID  string
	Host     string
	ProcName string
	Time     time.Duration
	Groups   []*advice.Group
	Raws     []tuple.Tuple
	// Drops are baggage eviction tombstones observed by this query's
	// advice since the last report: results the budget truncated. The
	// frontend unions them (tombstones are globally unique per evicted
	// group) so reported + dropped reconciles against the true total.
	Drops []baggage.DropRecord
}

// DefaultInterval is the agent reporting interval (the paper's default).
const DefaultInterval = time.Second

// DefaultRetention is the default capacity of the agent's outage ring
// buffer (reports retained per process while the bus link is down).
const DefaultRetention = 64

// Stats is the in-process view of an agent's metrics (MetricNames), used
// by the tuple-traffic experiments (Fig 6, and the §4 claim that Q2 drops
// from ~600 emitted tuples/s to 6 reported tuples/s per DataNode) and the
// scenario harness; remote views read the same metrics by name from
// heartbeats. The resilience counters make report loss auditable: every
// report the agent ever published is either merged at the frontend, still
// buffered, or counted in ReportsDropped — nothing disappears silently.
type Stats struct {
	TuplesEmitted int64 // advice EMIT operations executed
	RowsReported  int64 // aggregated rows published to the bus
	Reports       int64 // per-query reports published
	Batches       int64 // ReportBatch frames published (coalesced reports)

	ReportsRetained int64 // reports buffered during bus outages
	ReportsReplayed int64 // buffered reports replayed after reconnect
	ReportsDropped  int64 // reports lost to ring-buffer overflow
	Reconnects      int64 // bus link reconnections observed

	// Governance counters (this PR's safety valves). Like the resilience
	// counters, every limit hit is accounted: a row, group, or byte the
	// tracer gave up is counted here, never silently lost.
	LeasesExpired        int64 // queries auto-uninstalled on lease expiry
	Quarantines          int64 // programs unwoven by the circuit breaker
	RawsDropped          int64 // raw rows FIFO-evicted by accumulator caps
	GroupsOverflowed     int64 // rows folded into accumulator overflow groups
	BaggageGroupsDropped int64 // baggage groups evicted by budgets (pack side)
	BaggageTuplesDropped int64 // baggage tuples evicted by budgets (pack side)
	BaggageBytesDropped  int64 // baggage bytes evicted by budgets (pack side)

	// Span-capture counters (zero unless EnableSpans was called).
	SpansCaptured int64 // spans recorded at tracepoint crossings
	SpansDropped  int64 // spans overwritten in the ring before shipping
	SpanBatches   int64 // SpanBatch frames published on TraceTopic

	// Combiner counters (zero for ordinary agents; see
	// combiner.Combiner.Stats): reports merged in from downstream and
	// frames forwarded upstream. Merged − forwarded traffic is the tree's
	// whole point; both sides are counted so the reduction is auditable.
	CombinerReportsMerged int64 // downstream reports folded into tier state
	CombinerFramesOut     int64 // merged frames forwarded upstream

	// Sampling counters. SampledOut counts crossings this process's advice
	// suppressed because the request's sampling decision said no — the
	// sampled-rate half of drop accounting (suppressed + reported-weight
	// reconciles against the unsampled total). SampleRateMilli is the
	// lowest adaptive effective rate across this agent's sampled queries,
	// in thousandths: 1000 means everything runs exact (no backoff, or no
	// sampled queries). Combiner tiers do not sample and report no rate.
	SampledOut      int64
	SampleRateMilli int64
}

// Indexes into MetricNames. The metrics before numCounters are counters
// the agent bumps, each at one site; the rest are read from their owners
// (accumulators, span recorder, sampling controller) when sampled.
const (
	mTuples = iota
	mRows
	mReports
	mBatches
	mRetained
	mReplayed
	mDropped
	mReconnects
	mExpired
	mQuarantines
	mBagGroups
	mBagTuples
	mBagBytes
	mSpanBatches
	mSampledOut
	numCounters
	mRawsDropped = iota - 1
	mGroupsOverflowed
	mSpansCaptured
	mSpansDropped
	mSampleRate
	numMetrics
)

// MetricNames names every agent metric, in heartbeat order. Each name is
// used everywhere the metric appears: the telemetry registry
// (SetTelemetry), heartbeat pairs, and ptstat's column table.
var MetricNames = []string{
	mTuples:           "agent.tuples",
	mRows:             "agent.rows",
	mReports:          "agent.reports",
	mBatches:          "agent.batches",
	mRetained:         "agent.reports.retained",
	mReplayed:         "agent.reports.replayed",
	mDropped:          "agent.reports.dropped",
	mReconnects:       "agent.reconnects",
	mExpired:          "agent.leases.expired",
	mQuarantines:      "agent.quarantines",
	mBagGroups:        "agent.baggage.dropped.groups",
	mBagTuples:        "agent.baggage.dropped.tuples",
	mBagBytes:         "agent.baggage.dropped.bytes",
	mSpanBatches:      "agent.spans.batches",
	mSampledOut:       "agent.sampled.out",
	mRawsDropped:      "agent.raws.dropped",
	mGroupsOverflowed: "agent.groups.overflowed",
	mSpansCaptured:    "agent.spans.captured",
	mSpansDropped:     "agent.spans.dropped",
	mSampleRate:       "agent.sample.rate.milli",
}

// TenantQuota is one tenant's resource usage at one process, as accounted
// by its agent: live queries owned by the tenant and cumulative tuples its
// queries emitted there. Published inside TenantUsage frames.
type TenantQuota struct {
	Tenant  string
	Queries int64
	Tuples  int64
}

// TenantUsage carries one process's per-tenant quota counters, published
// on HealthTopic at each flush while any tenant-owned query is installed.
// The primary frontend aggregates these into core.Status's tenants table,
// making the fair-share split observable on the wire.
type TenantUsage struct {
	Host     string
	ProcName string
	Time     time.Duration
	Usage    []TenantQuota // sorted by tenant
}

// Agent is the per-process Pivot Tracing runtime.
type Agent struct {
	env      *simtime.Env
	proc     tracepoint.ProcInfo
	reg      *tracepoint.Registry
	bus      *bus.Bus
	interval time.Duration

	mu      sync.Mutex
	queries map[string]*queryState
	// queriesView is a copy-on-write snapshot of a.queries, rebuilt under
	// a.mu on every install/uninstall. EmitTuple — the hot path, invoked
	// from every advice fire — resolves its query through this pointer with
	// a single atomic load, so concurrent fires never contend on a.mu.
	queriesView atomic.Pointer[map[string]*queryState]
	// accShards fixes the shard count of accumulators created after the
	// call; <= 0 means GOMAXPROCS at creation time. Benchmarks use 1 to
	// ablate sharding.
	accShards  atomic.Int64
	batchBytes atomic.Int64 // ReportBatch size cap; <= 0 = DefaultBatchBytes
	// reportTopic overrides the topic report batches are published on (a
	// combiner tree assigns each agent its hash partition); nil selects
	// ResultsTopic.
	reportTopic atomic.Pointer[string]
	// tenantTuples is the cumulative per-tenant tuple usage accounted at
	// flush time (cold path, under mu — the hot emit path stays untouched).
	tenantTuples map[string]int64

	// ctr holds the agent's counters, indexed like MetricNames.
	ctr [numCounters]telemetry.Counter
	// Gauges exported by SetTelemetry: installed queries, reports awaiting
	// replay, and the shard count of the newest accumulator.
	queriesG, bufferedG, shardsG telemetry.Gauge

	retainMu  sync.Mutex
	retained  []Report // FIFO ring of reports awaiting replay
	retainCap int

	// Accumulator drop counters folded in when a query is uninstalled,
	// so Stats stays cumulative across a query's whole lifetime.
	rawsDroppedRetired      atomic.Int64
	groupsOverflowedRetired atomic.Int64

	recorder atomic.Pointer[spans.Recorder]
	lastBeat atomic.Pointer[[numMetrics]int64] // Values of the latest heartbeat

	// Request-level sampling state. sampler holds per-query adaptive
	// effective rates; samplingView is a copy-on-write, id-sorted list of
	// the queries installed with a sampling rate, so MintSampleDecision
	// iterates (and consumes randomness) in a deterministic order.
	// pressureMark remembers the baggage-drop counter total at the last
	// flush: any growth is budget pressure and backs the rates off.
	sampler      *sampling.Controller
	samplingView atomic.Pointer[[]samplingQuery]
	pressureMark atomic.Int64
	rngMu        sync.Mutex
	sampleRng    *rand.Rand

	metaTP atomic.Pointer[tracepoint.Tracepoint]

	controlSub bus.Subscription
}

// samplingQuery is one entry of the agent's sampling view: a query
// installed with SampleRate > 0 and that installed (base) rate.
type samplingQuery struct {
	id   string
	rate float64
}

// SetTelemetry exports the agent's counters in t under their MetricNames
// (totals since the agent started), plus the gauges "agent.queries",
// "agent.reports.buffered" and "agent.acc.shards".
func (a *Agent) SetTelemetry(t *telemetry.Registry) {
	for i := range a.ctr {
		t.AddCounter(MetricNames[i], &a.ctr[i])
	}
	t.AddGauge("agent.queries", &a.queriesG)
	t.AddGauge("agent.reports.buffered", &a.bufferedG)
	t.AddGauge("agent.acc.shards", &a.shardsG)
}

// EnableMetaTracepoint defines MetaReportTracepoint in this process's
// registry and arms it: every report the agent publishes then crosses the
// tracepoint (outside the agent's locks), so queries can observe the
// tracer's own reporting. Returns the tracepoint.
func (a *Agent) EnableMetaTracepoint() *tracepoint.Tracepoint {
	tp := a.reg.Define(MetaReportTracepoint, MetaReportExports...)
	a.metaTP.Store(tp)
	return tp
}

// EnableSpans turns on causal span capture in this process: a bounded
// ring Recorder (see internal/spans) is attached to the registry as the
// span sink, and every Flush drains it into SpanBatch frames on
// TraceTopic — plus per-query ExplainStats snapshots. seed must be unique
// per process (the pivot layer uses procID<<32) so minted span ids never
// collide; capacity bounds the ring (<= 0 selects DefaultSpanBuffer).
func (a *Agent) EnableSpans(seed uint64, capacity int) *spans.Recorder {
	if capacity <= 0 {
		capacity = DefaultSpanBuffer
	}
	rec := spans.NewRecorder(seed, capacity)
	a.recorder.Store(rec)
	a.reg.SetSpanSink(rec)
	return rec
}

// DefaultSpanBuffer is the default span ring capacity per process.
const DefaultSpanBuffer = 4096

type queryState struct {
	programs []*advice.Program
	// acc is created lazily on the first emitting weave or fire and then
	// never replaced (Drain steals its contents without swapping the
	// pointer), so hot-path readers load it once without locks.
	acc      atomic.Pointer[advice.ShardedAccumulator]
	woven    []weave
	wovenTPs map[string]bool
	tuples   atomic.Int64 // tuples emitted since the last flush

	limits advice.Limits
	ttl    time.Duration // lease duration; 0 = immortal
	expiry time.Duration // agent-clock deadline; 0 = immortal
	tenant string        // owning tenant frontend; "" = primary
	drops  map[baggage.DropRecord]bool
	// sampleRate is the query's installed request-sampling rate (0 =
	// exact), read from its programs at install time.
	sampleRate float64
}

type weave struct {
	tp string
	a  tracepoint.Advice
}

// New starts an agent for one process. The agent subscribes to the control
// topic immediately. With a simulation environment it begins a virtual-time
// reporting loop; with env == nil (a real, non-simulated process) reports
// are produced by explicit Flush calls or a wall-clock ticker the embedder
// runs.
func New(env *simtime.Env, proc tracepoint.ProcInfo, reg *tracepoint.Registry, b *bus.Bus, interval time.Duration) *Agent {
	if interval <= 0 {
		interval = DefaultInterval
	}
	a := &Agent{
		env: env, proc: proc, reg: reg, bus: b, interval: interval,
		queries: make(map[string]*queryState),
		sampler: sampling.NewController(),
	}
	a.rebuildViewLocked()
	a.controlSub = b.Subscribe(ControlTopic, a.onControl)
	// Weave standing queries into tracepoints defined after installation.
	reg.OnDefine(func(*tracepoint.Tracepoint) { a.reweave() })
	if env != nil {
		env.Go(a.reportLoop)
	}
	return a
}

// now returns the agent's report timestamp: virtual time under simulation,
// wall-clock time since the Unix epoch otherwise.
func (a *Agent) now() time.Duration {
	if a.env != nil {
		return a.env.Now()
	}
	return time.Duration(time.Now().UnixNano())
}

// reweave attempts to weave any installed programs whose tracepoints have
// since become defined in this process.
func (a *Agent) reweave() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, qs := range a.queries {
		a.weaveLocked(qs)
	}
}

// Deliver injects a control message directly (used to replay standing
// queries to agents that start after installation).
func (a *Agent) Deliver(msg any) { a.onControl(msg) }

// onControl handles weave/unweave instructions.
func (a *Agent) onControl(msg any) {
	switch m := msg.(type) {
	case Install:
		a.install(m)
	case Uninstall:
		a.uninstall(m.QueryID)
	case Renew:
		a.renew(m)
	}
}

// renew extends the lease of the listed queries from the agent's own
// clock. TTL == 0 keeps each query's current lease duration; a query
// installed without a lease stays immortal unless the renewal carries an
// explicit TTL.
func (a *Agent) renew(m Renew) {
	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, id := range m.QueryIDs {
		qs, ok := a.queries[id]
		if !ok {
			continue
		}
		ttl := m.TTL
		if ttl <= 0 {
			ttl = qs.ttl
		}
		if ttl <= 0 {
			continue
		}
		qs.ttl = ttl
		qs.expiry = now + ttl
	}
}

func (a *Agent) install(m Install) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.queries[m.QueryID]; ok {
		return // already installed
	}
	qs := &queryState{programs: m.Programs, wovenTPs: make(map[string]bool), limits: m.Limits, ttl: m.TTL, tenant: m.Tenant}
	if m.TTL > 0 {
		qs.expiry = a.now() + m.TTL
	}
	for _, prog := range m.Programs {
		if r := sampling.ClampRate(prog.SampleRate); r > 0 {
			qs.sampleRate = r
			break
		}
	}
	if qs.sampleRate > 0 {
		a.sampler.SetBase(m.QueryID, qs.sampleRate)
	}
	a.queries[m.QueryID] = qs
	a.weaveLocked(qs)
	a.rebuildViewLocked()
}

// rebuildViewLocked republishes the copy-on-write query snapshot after a
// membership change. Caller holds a.mu (New calls it before the agent is
// shared, which is equivalent). The sampling view is rebuilt alongside,
// sorted by query id so decision minting is deterministic, and the
// agent.queries gauge follows.
func (a *Agent) rebuildViewLocked() {
	view := make(map[string]*queryState, len(a.queries))
	var sv []samplingQuery
	for id, qs := range a.queries {
		view[id] = qs
		if qs.sampleRate > 0 {
			sv = append(sv, samplingQuery{id: id, rate: qs.sampleRate})
		}
	}
	sort.Slice(sv, func(i, j int) bool { return sv[i].id < sv[j].id })
	a.queriesView.Store(&view)
	a.samplingView.Store(&sv)
	a.queriesG.Set(int64(len(view)))
}

// SetAccumulatorShards fixes the shard count of per-query accumulators
// created after the call; n <= 0 restores the default (GOMAXPROCS at
// creation time). Existing accumulators keep their shard count. Benchmarks
// use n = 1 to ablate sharding; embedders can use it to bound per-query
// memory (each shard carries the full accumulator Limits).
func (a *Agent) SetAccumulatorShards(n int) {
	a.accShards.Store(int64(n))
}

// SetBatchBytes sets the approximate payload cap of one ReportBatch frame;
// n <= 0 restores DefaultBatchBytes. A single oversized report still ships
// (alone in its own batch) — the cap splits, it never drops.
func (a *Agent) SetBatchBytes(n int) {
	a.batchBytes.Store(int64(n))
}

// SetReportTopic redirects the agent's report batches to topic — a
// combiner tree assigns each agent its hash-partition topic here, so no
// single process subscribes to every agent's traffic. Empty restores
// ResultsTopic. Heartbeats, spans, and quarantine notices keep their own
// topics; only result frames are partitioned.
func (a *Agent) SetReportTopic(topic string) {
	if topic == "" || topic == ResultsTopic {
		a.reportTopic.Store(nil)
		return
	}
	a.reportTopic.Store(&topic)
}

// ReportTopic returns the topic report batches are currently published on.
func (a *Agent) ReportTopic() string {
	if t := a.reportTopic.Load(); t != nil {
		return *t
	}
	return ResultsTopic
}

// ensureAcc returns the query's accumulator, creating and publishing it on
// first need. The CAS makes concurrent first fires safe: the loser's empty
// accumulator is discarded before any tuple lands in it.
func (a *Agent) ensureAcc(qs *queryState, op *advice.EmitOp) *advice.ShardedAccumulator {
	if acc := qs.acc.Load(); acc != nil {
		return acc
	}
	acc := advice.NewShardedAccumulator(op, int(a.accShards.Load()))
	acc.SetLimits(qs.limits)
	if !qs.acc.CompareAndSwap(nil, acc) {
		return qs.acc.Load()
	}
	a.shardsG.Set(int64(acc.Shards()))
	return acc
}

// weaveLocked weaves the query's programs into every tracepoint currently
// defined in this process. Caller holds a.mu.
func (a *Agent) weaveLocked(qs *queryState) {
	for _, prog := range qs.programs {
		if qs.wovenTPs[prog.Tracepoint] {
			continue
		}
		if prog.Quarantined() {
			continue // the breaker tripped; never re-weave
		}
		if a.reg.Lookup(prog.Tracepoint) == nil {
			continue // tracepoint not (yet) present in this process
		}
		if prog.Emit != nil {
			a.ensureAcc(qs, prog.Emit)
		}
		adv := &advice.Advice{Prog: prog, Emitter: a}
		if err := a.reg.Weave(prog.Tracepoint, adv); err != nil {
			continue
		}
		qs.wovenTPs[prog.Tracepoint] = true
		qs.woven = append(qs.woven, weave{tp: prog.Tracepoint, a: adv})
	}
}

func (a *Agent) uninstall(queryID string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	qs, ok := a.queries[queryID]
	if !ok {
		return
	}
	for _, w := range qs.woven {
		a.reg.Unweave(w.tp, w.a)
	}
	if acc := qs.acc.Load(); acc != nil {
		a.rawsDroppedRetired.Add(acc.RawsDropped())
		a.groupsOverflowedRetired.Add(acc.GroupsOverflowed())
	}
	a.sampler.Remove(queryID)
	delete(a.queries, queryID)
	a.rebuildViewLocked()
}

// EmitTuple implements advice.Emitter: process-local aggregation. This is
// the hot path — every advice fire that reaches EMIT lands here — so it
// takes no locks: the query resolves through the copy-on-write view and
// the tuple lands in a sharded accumulator striped across Ps.
func (a *Agent) EmitTuple(p *advice.Program, w tuple.Tuple) {
	if qs := a.emitting(p); qs != nil {
		a.ensureAcc(qs, p.Emit).Add(w)
		qs.tuples.Add(1)
	}
}

// EmitTupleWeighted implements advice.WeightedEmitter: EmitTuple for a
// tuple from a sampled request, carrying its inverse-rate weight into
// the accumulator so COUNT/SUM aggregate to unbiased estimates.
func (a *Agent) EmitTupleWeighted(p *advice.Program, w tuple.Tuple, weight float64) {
	if qs := a.emitting(p); qs != nil {
		a.ensureAcc(qs, p.Emit).AddWeighted(w, weight)
		qs.tuples.Add(1)
	}
}

// emitting counts one emitted tuple and returns the installed query it
// belongs to, or nil if the query is gone.
func (a *Agent) emitting(p *advice.Program) *queryState {
	a.ctr[mTuples].Inc()
	view := a.queriesView.Load()
	if view == nil {
		return nil
	}
	return (*view)[p.QueryID]
}

// NoteSampledOut implements advice.SampleSink: a crossing was suppressed
// by the request's sampling decision.
func (a *Agent) NoteSampledOut(p *advice.Program) {
	a.ctr[mSampledOut].Inc()
}

// MintSampleDecision mints the request-level sampling decision into
// fresh baggage, once, at request creation, in the originating process.
// For every query installed here with a sampling rate, one draw against
// the query's current adaptive effective rate decides the whole request:
// the decision tuple (query, effective-rate or 0) then travels with the
// baggage through every split, join, and process transfer, so advice at
// every tracepoint on the causal path agrees. Queries are visited in id
// order with a per-agent seeded RNG, keeping simulated runs
// deterministic. With no sampled queries installed this is a single
// atomic load.
func (a *Agent) MintSampleDecision(bag *baggage.Baggage) {
	view := a.samplingView.Load()
	if view == nil || len(*view) == 0 || bag == nil {
		return
	}
	a.rngMu.Lock()
	defer a.rngMu.Unlock()
	if a.sampleRng == nil {
		// Seeded from the process identity: unique per process, stable per
		// simulated run, so scenario reports stay byte-reproducible.
		a.sampleRng = rand.New(rand.NewSource(a.proc.ProcID*0x9E3779B9 + 1))
	}
	for _, sq := range *view {
		eff := a.sampler.Effective(sq.id)
		if eff <= 0 {
			eff = sq.rate
		}
		switch {
		case eff >= 1:
			bag.PackSampleDecision(sq.id, 1)
		case a.sampleRng.Float64() < eff:
			bag.PackSampleDecision(sq.id, eff)
		default:
			bag.PackSampleDecision(sq.id, 0)
		}
	}
}

// NoteQuarantine implements advice.QuarantineNotifier: the program's
// circuit breaker tripped in this process. The agent unweaves just that
// program (the query's advice at other tracepoints keeps running),
// records the event, and publishes a pt.quarantine notice — all outside
// its locks, since the breaker fires from inside a tracepoint crossing.
func (a *Agent) NoteQuarantine(p *advice.Program, reason string) {
	var adv tracepoint.Advice
	a.mu.Lock()
	if qs, ok := a.queries[p.QueryID]; ok {
		for _, w := range qs.woven {
			if wa, ok := w.a.(*advice.Advice); ok && wa.Prog == p {
				adv = w.a
				break
			}
		}
	}
	a.mu.Unlock()
	if adv != nil {
		a.reg.Unweave(p.Tracepoint, adv)
	}
	a.ctr[mQuarantines].Inc()
	a.bus.Publish(QuarantineTopic, Quarantine{
		QueryID:    p.QueryID,
		Tracepoint: p.Tracepoint,
		Host:       a.proc.Host,
		ProcName:   a.proc.ProcName,
		Reason:     reason,
		Time:       a.now(),
	})
}

// NoteBaggageDrops implements advice.DropSink: advice observed baggage
// eviction tombstones for its query. Tombstones are globally unique per
// evicted group, so a dedup set per query makes the next report's Drops
// exact even when many fires see the same tombstones.
func (a *Agent) NoteBaggageDrops(p *advice.Program, recs []baggage.DropRecord) {
	a.mu.Lock()
	defer a.mu.Unlock()
	qs, ok := a.queries[p.QueryID]
	if !ok {
		return
	}
	if qs.drops == nil {
		qs.drops = make(map[baggage.DropRecord]bool)
	}
	for _, r := range recs {
		qs.drops[r] = true
	}
}

// NotePackStats implements advice.PackStatsSink: budget evictions
// performed at this process's pack sites. Each eviction happens at
// exactly one pack site, so summing across agents is exact.
func (a *Agent) NotePackStats(p *advice.Program, st baggage.PackStats) {
	a.ctr[mBagGroups].Add(st.EvictedGroups)
	a.ctr[mBagTuples].Add(st.EvictedTuples)
	a.ctr[mBagBytes].Add(st.EvictedBytes)
}

// reportLoop publishes partial results every interval until the simulation
// ends.
func (a *Agent) reportLoop() {
	for !a.env.Done() {
		a.env.Sleep(a.interval)
		a.Flush()
	}
}

// Flush publishes the current partial results immediately (also called by
// tests and by experiment harnesses at shutdown to avoid losing the last
// interval).
func (a *Agent) Flush() {
	a.expireLeases()
	// Adaptive sampling tick: baggage drop counters growing since the last
	// flush means the request path is over budget — back sampling rates
	// off. A quiet interval walks them back toward each query's base rate.
	cur := a.ctr[mBagGroups].Load() + a.ctr[mBagTuples].Load() + a.ctr[mBagBytes].Load()
	prev := a.pressureMark.Swap(cur)
	a.sampler.Tick(cur > prev)
	a.mu.Lock()
	type pending struct {
		id      string
		acc     *advice.Accumulator // drained snapshot, exclusively owned
		drops   []baggage.DropRecord
		tuples  int64
		tenant  string
		flushNS int64
	}
	var out []pending
	for id, qs := range a.queries {
		acc := qs.acc.Load()
		if (acc == nil || acc.Empty()) && len(qs.drops) == 0 {
			continue
		}
		drainStart := time.Now()
		p := pending{id: id, tuples: qs.tuples.Swap(0), tenant: qs.tenant}
		if acc != nil {
			// Drain steals the shard contents under short per-shard locks
			// and merges outside them; the result is exclusively ours, so
			// everything below — including bus publication — happens with
			// no agent lock held and no cloning (snapshot-then-encode).
			p.acc = acc.Drain()
		}
		if len(qs.drops) > 0 {
			for r := range qs.drops {
				p.drops = append(p.drops, r)
			}
			sort.Slice(p.drops, func(i, j int) bool {
				if p.drops[i].Slot != p.drops[j].Slot {
					return p.drops[i].Slot < p.drops[j].Slot
				}
				return p.drops[i].Key < p.drops[j].Key
			})
			qs.drops = nil
		}
		p.flushNS = int64(time.Since(drainStart))
		if (p.acc == nil || p.acc.Empty()) && len(p.drops) == 0 {
			// The accumulator's emptiness hint raced with an in-flight Add
			// and nothing actually drained; the tuples (if any) belong to
			// the next interval.
			qs.tuples.Add(p.tuples)
			continue
		}
		out = append(out, p)
	}
	nQueries := len(a.queries)
	// Per-tenant quota accounting happens here on the cold path: fold the
	// tuples each flush drains into the owning tenant's cumulative total,
	// then snapshot live query counts per tenant. EmitTuple never sees any
	// of this.
	for _, p := range out {
		if p.tenant == "" || p.tuples == 0 {
			continue
		}
		if a.tenantTuples == nil {
			a.tenantTuples = make(map[string]int64)
		}
		a.tenantTuples[p.tenant] += p.tuples
	}
	var usage []TenantQuota
	if len(a.tenantTuples) > 0 {
		queriesBy := make(map[string]int64)
		for _, qs := range a.queries {
			if qs.tenant != "" {
				queriesBy[qs.tenant]++
			}
		}
		usage = make([]TenantQuota, 0, len(a.tenantTuples))
		for tenant, tuples := range a.tenantTuples {
			usage = append(usage, TenantQuota{Tenant: tenant, Queries: queriesBy[tenant], Tuples: tuples})
		}
		sort.Slice(usage, func(i, j int) bool { return usage[i].Tenant < usage[j].Tenant })
	}
	a.mu.Unlock()

	// Deterministic order across queries.
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].id < out[k-1].id; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	now := a.now()
	reports := make([]Report, 0, len(out))
	for _, p := range out {
		r := Report{
			QueryID:  p.id,
			Host:     a.proc.Host,
			ProcName: a.proc.ProcName,
			Time:     now,
			Drops:    p.drops,
		}
		if p.acc != nil {
			r.Groups = p.acc.Groups()
			r.Raws = p.acc.Raws()
		}
		a.ctr[mRows].Add(int64(len(r.Groups) + len(r.Raws)))
		a.ctr[mReports].Inc()
		reports = append(reports, r)
	}
	a.publishBatches(reports)
	if rec := a.recorder.Load(); rec != nil {
		a.publishSpans(rec, now)
		flushNS := make(map[string]int64, len(out))
		for _, p := range out {
			flushNS[p.id] = p.flushNS
		}
		a.publishExplain(flushNS, now)
	}
	// An idle agent's figures do not change between beats, so its beats
	// share one Values array until they do: an idle beat then allocates
	// only its header, and simulated clusters publish up to ~1.4 beats
	// per request.
	vals := a.lastBeat.Load()
	if cur := a.read(); vals == nil || cur != *vals {
		vals = new([numMetrics]int64)
		*vals = cur
		a.lastBeat.Store(vals)
	}
	a.bus.Publish(HealthTopic, Heartbeat{
		Host:     a.proc.Host,
		ProcName: a.proc.ProcName,
		Time:     a.now(),
		Interval: a.interval,
		Queries:  nQueries,
		Names:    MetricNames,
		Values:   vals[:],
	})
	if len(usage) > 0 {
		a.bus.Publish(HealthTopic, TenantUsage{
			Host:     a.proc.Host,
			ProcName: a.proc.ProcName,
			Time:     a.now(),
			Usage:    usage,
		})
	}
	// Cross the agent.Report meta-tracepoint last, with no agent locks
	// held: its woven advice re-enters the agent via EmitTuple, and the
	// tuples it emits belong to the next interval.
	if tp := a.metaTP.Load(); tp != nil {
		ctx := tracepoint.WithProc(baggage.NewContext(context.Background(), baggage.New()), a.proc)
		for i, p := range out {
			r := &reports[i]
			tp.Here(ctx, p.id, int64(len(r.Groups)+len(r.Raws)), p.tuples)
		}
	}
}

// publishBatches coalesces this interval's reports into ReportBatch frames
// on the agent's report topic (ResultsTopic unless SetReportTopic
// partitioned it), starting a new frame whenever adding the next report
// would push the approximate payload past the batch-size cap. A single
// report larger than the cap still ships, alone in its own frame.
func (a *Agent) publishBatches(reports []Report) {
	if len(reports) == 0 {
		return
	}
	topic := a.ReportTopic()
	limit := int(a.batchBytes.Load())
	if limit <= 0 {
		limit = DefaultBatchBytes
	}
	batch := reports[:0:0]
	size := 0
	flush := func() {
		if len(batch) == 0 {
			return
		}
		a.ctr[mBatches].Inc()
		a.bus.Publish(topic, ReportBatch{
			Host:     a.proc.Host,
			ProcName: a.proc.ProcName,
			Time:     a.now(),
			Reports:  batch,
		})
		batch, size = nil, 0
	}
	for i := range reports {
		sz := reportSize(&reports[i])
		if len(batch) > 0 && size+sz > limit {
			flush()
		}
		batch = append(batch, reports[i])
		size += sz
	}
	flush()
}

// publishSpans drains the span ring into size-capped SpanBatch frames on
// TraceTopic, reusing the ReportBatch splitting discipline.
func (a *Agent) publishSpans(rec *spans.Recorder, now time.Duration) {
	drained := rec.Drain()
	if len(drained) == 0 {
		return
	}
	limit := int(a.batchBytes.Load())
	if limit <= 0 {
		limit = DefaultBatchBytes
	}
	batch := drained[:0:0]
	size := 0
	flush := func() {
		if len(batch) == 0 {
			return
		}
		a.ctr[mSpanBatches].Inc()
		a.bus.Publish(TraceTopic, SpanBatch{
			Host:     a.proc.Host,
			ProcName: a.proc.ProcName,
			Time:     now,
			Spans:    batch,
		})
		batch, size = nil, 0
	}
	for i := range drained {
		sz := spanSize(&drained[i])
		if len(batch) > 0 && size+sz > limit {
			flush()
		}
		batch = append(batch, drained[i])
		size += sz
	}
	flush()
}

// spanSize approximates one span's encoded payload size (same arithmetic
// size model as reportSize; framing varints are deliberately undercounted).
func spanSize(sp *spans.Span) int {
	return len(sp.Tracepoint) + len(sp.Host) + len(sp.ProcName) + 8*len(sp.Parents) + 36
}

// publishExplain snapshots every installed query's per-operator advice
// counters into ExplainStats frames on TraceTopic. flushNS carries the
// per-query drain time measured in the surrounding Flush (zero for queries
// that had nothing to drain this interval).
func (a *Agent) publishExplain(flushNS map[string]int64, now time.Duration) {
	type snap struct {
		id    string
		progs []*advice.Program
	}
	a.mu.Lock()
	qsnaps := make([]snap, 0, len(a.queries))
	for id, qs := range a.queries {
		qsnaps = append(qsnaps, snap{id: id, progs: qs.programs})
	}
	a.mu.Unlock()
	sort.Slice(qsnaps, func(i, j int) bool { return qsnaps[i].id < qsnaps[j].id })
	for _, q := range qsnaps {
		es := ExplainStats{
			QueryID:  q.id,
			Host:     a.proc.Host,
			ProcName: a.proc.ProcName,
			Time:     now,
			FlushNS:  flushNS[q.id],
		}
		for _, prog := range q.progs {
			if a.reg.Lookup(prog.Tracepoint) == nil {
				continue // tracepoint not present in this process
			}
			c := &prog.Cost
			es.Ops = append(es.Ops, OpStats{
				Tracepoint:     prog.Tracepoint,
				Invocations:    c.Invocations.Load(),
				Sampled:        c.Sampled.Load(),
				DroppedByJoin:  c.DroppedByJoin.Load(),
				TuplesFiltered: c.TuplesFiltered.Load(),
				TuplesPacked:   c.TuplesPacked.Load(),
				PackedBytes:    c.PackedBytes.Load(),
				PackRefused:    c.PackRefused.Load(),
				EvictedGroups:  c.PackEvictedGroups.Load(),
				EvictedTuples:  c.PackEvictedTuples.Load(),
				EvictedBytes:   c.PackEvictedBytes.Load(),
				TuplesEmitted:  c.TuplesEmitted.Load(),
				Panics:         c.Panics.Load(),
			})
		}
		if len(es.Ops) == 0 {
			continue
		}
		a.bus.Publish(TraceTopic, es)
	}
}

// ReportSize approximates one report's encoded payload size with the
// arithmetic size model — the same figure publishBatches splits on.
// Combiner tiers reuse it so their upstream frames honor the identical
// batch-size discipline.
func ReportSize(r *Report) int { return reportSize(r) }

// reportSize approximates the report's encoded payload size using the
// arithmetic size model (tuple.SizeTuple, agg.State.EncodedSize) — no
// scratch encodings. It deliberately undercounts small framing varints;
// the batch cap is approximate by contract.
func reportSize(r *Report) int {
	n := len(r.QueryID) + len(r.Host) + len(r.ProcName) + 16
	for _, g := range r.Groups {
		n += len(g.Key) + tuple.SizeTuple(g.Rep)
		for _, st := range g.States {
			n += st.EncodedSize()
		}
	}
	for _, t := range r.Raws {
		n += tuple.SizeTuple(t)
	}
	for _, d := range r.Drops {
		n += len(d.Slot) + len(d.Key) + 4
	}
	return n
}

// expireLeases uninstalls every query whose lease has lapsed. Called from
// Flush, so orphaned queries disappear within one reporting interval of
// their deadline.
func (a *Agent) expireLeases() {
	now := a.now()
	a.mu.Lock()
	var expired []string
	for id, qs := range a.queries {
		if qs.expiry > 0 && now >= qs.expiry {
			expired = append(expired, id)
		}
	}
	a.mu.Unlock()
	sort.Strings(expired)
	for _, id := range expired {
		a.uninstall(id)
		a.ctr[mExpired].Inc()
	}
}

// LeaseDeadline returns the query's lease expiry on the agent's clock, or
// 0 if the query is not installed or has no lease.
func (a *Agent) LeaseDeadline(queryID string) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	if qs, ok := a.queries[queryID]; ok {
		return qs.expiry
	}
	return 0
}

// Installed reports whether the query is currently installed.
func (a *Agent) Installed(queryID string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.queries[queryID]
	return ok
}

// CostReport renders the live per-tracepoint cost counters of every query
// installed in this process (the distributed complement of the frontend's
// Installed.CostReport, whose counters only cover advice woven from the
// same process).
func (a *Agent) CostReport() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := make([]string, 0, len(a.queries))
	for id := range a.queries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "cost of %s in %s/%s:\n", id, a.proc.Host, a.proc.ProcName)
		fmt.Fprintf(&b, "  %-36s %12s %9s %9s %9s %9s\n",
			"tracepoint", "invocations", "sampled", "dropped", "packed", "emitted")
		for _, prog := range a.queries[id].programs {
			if a.reg.Lookup(prog.Tracepoint) == nil {
				continue
			}
			c := &prog.Cost
			fmt.Fprintf(&b, "  %-36s %12d %9d %9d %9d %9d\n",
				prog.Tracepoint,
				c.Invocations.Load(), c.Sampled.Load(), c.DroppedByJoin.Load(),
				c.TuplesPacked.Load(), c.TuplesEmitted.Load())
		}
	}
	return b.String()
}

// SetRetention sets the capacity of the agent's outage ring buffer: how
// many reports are retained for replay while the bus link is down. When
// the buffer is full the oldest report is evicted and counted as dropped.
// capacity <= 0 selects DefaultRetention.
func (a *Agent) SetRetention(capacity int) {
	if capacity <= 0 {
		capacity = DefaultRetention
	}
	a.retainMu.Lock()
	a.retainCap = capacity
	a.retainMu.Unlock()
}

// Retain buffers a report that failed to reach the bus server (the link's
// OnDrop path), evicting the oldest buffered report — counted in
// ReportsDropped — if the ring is full.
func (a *Agent) Retain(r Report) {
	a.retainMu.Lock()
	limit := a.retainCap
	if limit <= 0 {
		limit = DefaultRetention
	}
	evicted := 0
	for len(a.retained) >= limit {
		a.retained = append(a.retained[:0], a.retained[1:]...)
		evicted++
	}
	a.retained = append(a.retained, r)
	a.bufferedG.Set(int64(len(a.retained)))
	a.retainMu.Unlock()

	a.ctr[mRetained].Inc()
	a.ctr[mDropped].Add(int64(evicted))
}

// ReplayRetained drains the outage buffer in FIFO order through send,
// stopping at the first failure (the failed report stays buffered, at the
// front). It returns how many reports were replayed. Typically called
// from a link's OnUp callback with the link's direct Send.
func (a *Agent) ReplayRetained(send func(Report) error) int {
	replayed := 0
	for {
		a.retainMu.Lock()
		if len(a.retained) == 0 {
			a.retainMu.Unlock()
			break
		}
		r := a.retained[0]
		a.retained = a.retained[1:]
		a.bufferedG.Set(int64(len(a.retained)))
		a.retainMu.Unlock()

		if err := send(r); err != nil {
			// Put the failed report back at the front; it is still the
			// oldest unreplayed one.
			a.retainMu.Lock()
			a.retained = append([]Report{r}, a.retained...)
			a.bufferedG.Set(int64(len(a.retained)))
			a.retainMu.Unlock()
			break
		}
		replayed++
		a.ctr[mReplayed].Inc()
	}
	return replayed
}

// Buffered returns the number of reports currently awaiting replay.
func (a *Agent) Buffered() int {
	a.retainMu.Lock()
	defer a.retainMu.Unlock()
	return len(a.retained)
}

// NoteReconnect records a bus-link reconnection in the agent's stats (the
// pivot layer wires this to the link's OnUp callback so heartbeats carry
// the count).
func (a *Agent) NoteReconnect() {
	a.ctr[mReconnects].Inc()
}

// Stats returns the agent's activity counters.
func (a *Agent) Stats() Stats {
	v := a.read()
	return Stats{
		TuplesEmitted:        v[mTuples],
		RowsReported:         v[mRows],
		Reports:              v[mReports],
		Batches:              v[mBatches],
		ReportsRetained:      v[mRetained],
		ReportsReplayed:      v[mReplayed],
		ReportsDropped:       v[mDropped],
		Reconnects:           v[mReconnects],
		LeasesExpired:        v[mExpired],
		Quarantines:          v[mQuarantines],
		RawsDropped:          v[mRawsDropped],
		GroupsOverflowed:     v[mGroupsOverflowed],
		BaggageGroupsDropped: v[mBagGroups],
		BaggageTuplesDropped: v[mBagTuples],
		BaggageBytesDropped:  v[mBagBytes],
		SpansCaptured:        v[mSpansCaptured],
		SpansDropped:         v[mSpansDropped],
		SpanBatches:          v[mSpanBatches],
		SampledOut:           v[mSampledOut],
		SampleRateMilli:      v[mSampleRate],
	}
}

// read samples every agent metric, indexed like MetricNames.
func (a *Agent) read() (v [numMetrics]int64) {
	for i := range a.ctr {
		v[i] = a.ctr[i].Load()
	}
	v[mRawsDropped] = a.rawsDroppedRetired.Load()
	v[mGroupsOverflowed] = a.groupsOverflowedRetired.Load()
	a.mu.Lock()
	for _, qs := range a.queries {
		if acc := qs.acc.Load(); acc != nil {
			v[mRawsDropped] += acc.RawsDropped()
			v[mGroupsOverflowed] += acc.GroupsOverflowed()
		}
	}
	a.mu.Unlock()
	if rec := a.recorder.Load(); rec != nil {
		v[mSpansCaptured] = rec.Captured()
		v[mSpansDropped] = rec.Dropped()
	}
	v[mSampleRate] = a.sampler.MinEffectiveMilli()
	return v
}

// Close unsubscribes the agent from the control topic and unweaves all
// advice.
func (a *Agent) Close() {
	a.bus.Unsubscribe(a.controlSub)
	a.mu.Lock()
	ids := make([]string, 0, len(a.queries))
	for id := range a.queries {
		ids = append(ids, id)
	}
	a.mu.Unlock()
	for _, id := range ids {
		a.uninstall(id)
	}
}
