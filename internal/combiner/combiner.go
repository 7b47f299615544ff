// Package combiner implements hierarchical aggregation tiers for Pivot
// Tracing: aggregator processes that subscribe to a partition of the agent
// report topics, merge agg.State/ReportBatch frames per query in virtual
// time, and forward the merged frames upstream. Tiers compose into
// rack→pod→frontend trees, so trace export cost scales with the topology
// rather than with cluster size — the agents' partial-aggregation argument
// (§4 of the paper) applied once more above the agents.
//
// Correctness rests on the merge-on-flush invariant: agg.State merging is
// associative and commutative, raw rows and drop tombstones are unioned,
// so any reassociation of the merge tree yields byte-identical final
// results. The differential suite (pivot/differential_tree_test.go) proves
// this against the flat topology on every generated case.
package combiner

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/simtime"
	"repro/internal/tuple"
)

// RootTopic is the conventional upstream topic of the mid tier: mid
// combiners forward merged frames here, and the root combiner subscribes.
const RootTopic = "pt.results.root"

// Config wires one combiner tier.
type Config struct {
	// Interval is the merge/forward cadence (virtual time when an Env is
	// attached); <= 0 selects agent.DefaultInterval.
	Interval time.Duration
	// Subscribe is the disjoint set of downstream topics this combiner
	// owns (partition topics for a mid tier, RootTopic for the root).
	Subscribe []string
	// Upstream is the topic merged frames forward to; "" selects
	// agent.ResultsTopic (the frontend's subscription).
	Upstream string
	// TenantRouting makes the combiner learn each query's owning tenant
	// from Install frames on the control topic and route that query's
	// merged frames to the tenant's own results topic
	// (agent.TenantResultsTopic) instead of Upstream. Enabled on the root
	// tier of a multi-tenant deployment, so each tenant frontend receives
	// exactly its own queries' frames.
	TenantRouting bool
	// BatchBytes caps one forwarded ReportBatch frame's approximate
	// payload; <= 0 selects agent.DefaultBatchBytes.
	BatchBytes int
}

// queryAgg is one query's merged-but-unforwarded state.
type queryAgg struct {
	groups map[string]*advice.Group
	raws   []tuple.Tuple
	drops  map[baggage.DropRecord]bool
}

// Combiner is one aggregation-tier process. It merges every Report and
// ReportBatch arriving on its subscribed topics into per-query state and
// forwards the merged reports upstream at each flush. Nothing is dropped
// in-process: every report merged in is either already forwarded or still
// pending, and both sides are counted (CombinerReportsMerged /
// CombinerFramesOut in its heartbeats).
type Combiner struct {
	env        *simtime.Env
	host, proc string
	b          *bus.Bus
	cfg        Config

	mu      sync.Mutex
	pending map[string]*queryAgg
	tenants map[string]string // queryID → owning tenant (TenantRouting)
	closed  bool

	reportsMerged atomic.Int64 // downstream reports folded in
	reportsOut    atomic.Int64 // merged reports forwarded
	framesOut     atomic.Int64 // upstream ReportBatch frames published
	rowsOut       atomic.Int64 // group+raw rows forwarded

	subs    []bus.Subscription
	ctrlSub bus.Subscription
	hasCtrl bool
}

// New starts a combiner on b subscribing to cfg.Subscribe. host/proc name
// the tier in heartbeats and forwarded reports. With a simulation
// environment the combiner flushes on a virtual-time loop; with env == nil
// (a real process, or chaos tests driving time by hand) the embedder calls
// Flush.
func New(env *simtime.Env, host, proc string, b *bus.Bus, cfg Config) *Combiner {
	if cfg.Interval <= 0 {
		cfg.Interval = agent.DefaultInterval
	}
	c := &Combiner{
		env: env, host: host, proc: proc, b: b, cfg: cfg,
		pending: make(map[string]*queryAgg),
	}
	for _, topic := range cfg.Subscribe {
		c.subs = append(c.subs, b.Subscribe(topic, c.onReport))
	}
	if cfg.TenantRouting {
		c.tenants = make(map[string]string)
		c.ctrlSub = b.Subscribe(agent.ControlTopic, c.onControl)
		c.hasCtrl = true
	}
	if env != nil {
		env.Go(c.flushLoop)
	}
	return c
}

// Topics returns the combiner's subscribed downstream topics.
func (c *Combiner) Topics() []string { return append([]string(nil), c.cfg.Subscribe...) }

func (c *Combiner) flushLoop() {
	for !c.env.Done() {
		c.env.Sleep(c.cfg.Interval)
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return
		}
		c.Flush()
	}
}

// onControl learns query→tenant ownership from install traffic.
func (c *Combiner) onControl(msg any) {
	switch m := msg.(type) {
	case agent.Install:
		c.mu.Lock()
		if m.Tenant != "" {
			c.tenants[m.QueryID] = m.Tenant
		}
		c.mu.Unlock()
	case agent.Uninstall:
		c.mu.Lock()
		delete(c.tenants, m.QueryID)
		c.mu.Unlock()
	}
}

// onReport folds downstream result frames into per-query pending state.
func (c *Combiner) onReport(msg any) {
	switch m := msg.(type) {
	case agent.Report:
		c.merge(&m)
	case agent.ReportBatch:
		for i := range m.Reports {
			c.merge(&m.Reports[i])
		}
	}
}

// merge folds one report. Groups merge by key with the frontend's
// clone-on-first-insert discipline (the in-process bus shares pointers, so
// a group is never mutated in place on first sight); raw rows append; drop
// tombstones union (they are globally unique, so the dedup set keeps the
// forwarded Drops exact even when several downstream reports carry the
// same tombstone).
func (c *Combiner) merge(r *agent.Report) {
	c.reportsMerged.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	qa := c.pending[r.QueryID]
	if qa == nil {
		qa = &queryAgg{groups: make(map[string]*advice.Group)}
		c.pending[r.QueryID] = qa
	}
	for _, g := range r.Groups {
		if mine, ok := qa.groups[g.Key]; ok {
			for i, st := range g.States {
				if i < len(mine.States) {
					mine.States[i].Merge(st)
				}
			}
		} else {
			qa.groups[g.Key] = g.Clone()
		}
	}
	qa.raws = append(qa.raws, r.Raws...)
	if len(r.Drops) > 0 {
		if qa.drops == nil {
			qa.drops = make(map[baggage.DropRecord]bool)
		}
		for _, d := range r.Drops {
			qa.drops[d] = true
		}
	}
}

// now returns the combiner's report timestamp (virtual under simulation).
func (c *Combiner) now() time.Duration {
	if c.env != nil {
		return c.env.Now()
	}
	return time.Duration(time.Now().UnixNano())
}

// drainLocked steals the pending state and renders it as reports stamped
// with the combiner's identity, sorted by query then group key. Caller
// holds c.mu.
func (c *Combiner) drainLocked(now time.Duration) []agent.Report {
	if len(c.pending) == 0 {
		return nil
	}
	ids := make([]string, 0, len(c.pending))
	for id := range c.pending {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]agent.Report, 0, len(ids))
	for _, id := range ids {
		qa := c.pending[id]
		r := agent.Report{QueryID: id, Host: c.host, ProcName: c.proc, Time: now, Raws: qa.raws}
		keys := make([]string, 0, len(qa.groups))
		for k := range qa.groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			r.Groups = append(r.Groups, qa.groups[k])
		}
		if len(qa.drops) > 0 {
			for d := range qa.drops {
				r.Drops = append(r.Drops, d)
			}
			sort.Slice(r.Drops, func(i, j int) bool {
				if r.Drops[i].Slot != r.Drops[j].Slot {
					return r.Drops[i].Slot < r.Drops[j].Slot
				}
				return r.Drops[i].Key < r.Drops[j].Key
			})
		}
		out = append(out, r)
	}
	c.pending = make(map[string]*queryAgg)
	return out
}

// route returns the upstream topic for one query's merged frames.
func (c *Combiner) route(queryID string) string {
	if c.cfg.TenantRouting {
		c.mu.Lock()
		tenant := c.tenants[queryID]
		c.mu.Unlock()
		if tenant != "" {
			return agent.TenantResultsTopic(tenant)
		}
	}
	if c.cfg.Upstream != "" {
		return c.cfg.Upstream
	}
	return agent.ResultsTopic
}

// Flush forwards the merged pending state upstream as size-capped
// ReportBatch frames — one batch run per route topic, so a tenant-routing
// root emits each tenant's queries on that tenant's own topic — then
// heartbeats the tier's merge/forward accounting on the health topic.
func (c *Combiner) Flush() {
	now := c.now()
	c.mu.Lock()
	reports := c.drainLocked(now)
	c.mu.Unlock()

	limit := c.cfg.BatchBytes
	if limit <= 0 {
		limit = agent.DefaultBatchBytes
	}
	// Partition the (query-sorted) reports into per-topic runs, preserving
	// order within each topic.
	topics := make([]string, 0, 1)
	byTopic := make(map[string][]agent.Report)
	for _, r := range reports {
		t := c.route(r.QueryID)
		if _, ok := byTopic[t]; !ok {
			topics = append(topics, t)
		}
		byTopic[t] = append(byTopic[t], r)
		c.reportsOut.Add(1)
		c.rowsOut.Add(int64(len(r.Groups) + len(r.Raws)))
	}
	for _, topic := range topics {
		run := byTopic[topic]
		var batch []agent.Report
		size := 0
		flush := func() {
			if len(batch) == 0 {
				return
			}
			c.framesOut.Add(1)
			c.b.Publish(topic, agent.ReportBatch{
				Host: c.host, ProcName: c.proc, Time: now, Reports: batch,
			})
			batch, size = nil, 0
		}
		for i := range run {
			sz := agent.ReportSize(&run[i])
			if len(batch) > 0 && size+sz > limit {
				flush()
			}
			batch = append(batch, run[i])
			size += sz
		}
		flush()
	}

	c.b.Publish(agent.HealthTopic, agent.Heartbeat{
		Host:     c.host,
		ProcName: c.proc,
		Time:     c.now(),
		Interval: c.cfg.Interval,
		Queries:  len(reports),
		Names:    MetricNames,
		Values: []int64{c.rowsOut.Load(), c.reportsOut.Load(), c.framesOut.Load(),
			c.reportsMerged.Load(), c.framesOut.Load()},
	})
}

// MetricNames names a tier's heartbeat values. Upstream, a combiner is an
// agent, so its forward counters take the agent metric names; the frame
// count also goes out as combiner.frames.out, beside the merge count, so
// the status table tells tiers from agents.
var MetricNames = []string{"agent.rows", "agent.reports", "agent.batches",
	"combiner.reports.merged", "combiner.frames.out"}

// Stats returns the tier's heartbeat metrics in the agents' Stats shape:
// reports/rows/frames forwarded upstream plus the combiner counters.
// Everything merged in is either forwarded or still pending — Pending()
// closes the ledger.
func (c *Combiner) Stats() agent.Stats {
	return agent.Stats{
		RowsReported:          c.rowsOut.Load(),
		Reports:               c.reportsOut.Load(),
		Batches:               c.framesOut.Load(),
		CombinerReportsMerged: c.reportsMerged.Load(),
		CombinerFramesOut:     c.framesOut.Load(),
	}
}

// Pending returns how many queries currently hold merged-but-unforwarded
// state.
func (c *Combiner) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// DrainPending removes and returns the merged-but-unforwarded state as
// reports without publishing them. Chaos tests use it to account a killed
// tier's in-flight state exactly: rows that were merged into this combiner
// but never forwarded are the deployment's only loss, and this is their
// ledger.
func (c *Combiner) DrainPending() []agent.Report {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.drainLocked(now)
}

// Close unsubscribes the combiner and stops its flush loop. Pending state
// remains drainable (DrainPending) for accounting.
func (c *Combiner) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	for _, s := range c.subs {
		c.b.Unsubscribe(s)
	}
	if c.hasCtrl {
		c.b.Unsubscribe(c.ctrlSub)
	}
}
