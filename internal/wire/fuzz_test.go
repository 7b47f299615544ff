package wire

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/agg"
	"repro/internal/query"
	"repro/internal/randtest"
	"repro/internal/spans"
	"repro/internal/tuple"
)

// messageSeeds marshals one instance of every bus message type, plus
// malformed shapes the decoder must reject without panicking or
// preallocating for absurd claimed counts.
func messageSeeds(t testing.TB) map[string][]byte {
	mustMarshal := func(msg any) []byte {
		buf, err := Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	st := agg.New(agg.Sum)
	st.Add(tuple.Int(42))
	wst := agg.New(agg.Sum)
	wst.AddWeighted(tuple.Int(5), 10) // inexact state with weighted fields
	// sampledInstall builds an install whose single program carries rate:
	// the hostile-rate seeds below feed the decoder rates it must clamp
	// to "unsampled" rather than propagate into tuple weights.
	sampledInstall := func(rate float64) agent.Install {
		return agent.Install{
			QueryID: "QS",
			Programs: []*advice.Program{{
				QueryID: "QS", Tracepoint: "Tp",
				Observe: []int{0}, ObserveFields: tuple.Schema{"e.host"},
				SampleRate: rate,
				Emit: &advice.EmitOp{
					Cols:    []advice.EmitCol{{Pos: 0}, {IsAgg: true, Pos: -1, Fn: agg.Count}},
					GroupBy: []int{0}, Schema: tuple.Schema{"host", "COUNT"},
				},
			}},
		}
	}
	return map[string][]byte{
		"install": mustMarshal(agent.Install{
			QueryID: "Q1",
			Programs: []*advice.Program{{
				QueryID: "Q1", Tracepoint: "Tp",
				Observe: []int{0}, ObserveFields: tuple.Schema{"e.host"},
				Emit: &advice.EmitOp{
					Cols:    []advice.EmitCol{{Pos: 0}, {IsAgg: true, Pos: -1, Fn: agg.Count}},
					GroupBy: []int{0}, Schema: tuple.Schema{"host", "COUNT"},
				},
			}},
		}),
		"tenant-install": mustMarshal(agent.Install{
			QueryID: "alice.Q1", Tenant: "alice", Share: 64,
			Programs: []*advice.Program{{
				QueryID: "alice.Q1", Tracepoint: "Tp",
				Observe: []int{0}, ObserveFields: tuple.Schema{"e.host"},
				Emit: &advice.EmitOp{
					Cols:    []advice.EmitCol{{Pos: 0}, {IsAgg: true, Pos: -1, Fn: agg.Count}},
					GroupBy: []int{0}, Schema: tuple.Schema{"host", "COUNT"},
				},
			}},
		}),
		"sampled-install": mustMarshal(sampledInstall(0.1)),
		// Hostile sampling rates: the decoder clamps every one of these to
		// 0 (unsampled), so re-marshaling yields the canonical zero bits —
		// the fuzz fixpoint proves the clamp, not just the parse.
		"hostile-rate-zero-neg": mustMarshal(sampledInstall(math.Copysign(0, -1))),
		"hostile-rate-negative": mustMarshal(sampledInstall(-0.5)),
		"hostile-rate-gt1":      mustMarshal(sampledInstall(1.5)),
		"hostile-rate-nan":      mustMarshal(sampledInstall(math.NaN())),
		"hostile-rate-inf":      mustMarshal(sampledInstall(math.Inf(1))),
		// Subnormal rate whose inverse weight overflows to +Inf.
		"hostile-rate-huge-weight": mustMarshal(sampledInstall(5e-324)),
		"uninstall":                mustMarshal(agent.Uninstall{QueryID: "Q9"}),
		"renew": mustMarshal(agent.Renew{
			QueryIDs: []string{"Q1", "Q2"}, TTL: 30 * time.Second,
		}),
		"quarantine": mustMarshal(agent.Quarantine{
			QueryID: "Q1", Tracepoint: "Tp", Host: "h", ProcName: "p",
			Reason: "3 advice panics", Time: 7 * time.Second,
		}),
		"heartbeat": mustMarshal(agent.Heartbeat{
			Host: "h", ProcName: "p", Time: time.Second, Interval: time.Second, Queries: 1,
			Names: agent.MetricNames, Values: make([]int64, len(agent.MetricNames)),
		}),
		// A combiner-tier heartbeat: the tier's merge/forward counters as
		// named metrics.
		"combiner-heartbeat": mustMarshal(agent.Heartbeat{
			Host: "combiners", ProcName: "combiner-mid-0",
			Time: 2 * time.Second, Interval: time.Second,
			Names: []string{"agent.rows", "agent.reports", "agent.batches",
				"combiner.reports.merged", "combiner.frames.out"},
			Values: []int64{12, 3, 2, 9, 2},
		}),
		// Hostile metric tables. A pair count of 2^62, and one larger than
		// the pairs present, must fail without allocating for the claim; a
		// name cut short fails; empty and duplicated names decode (lookups
		// take the first match) and re-encode unchanged.
		"heartbeat-huge-pairs":      heartbeatPairs(0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40, 0x01, 'x', 0x02),
		"heartbeat-short-pairs":     heartbeatPairs(0x03, 0x01, 'a', 0x02, 0x02, 'b', 'c', 0x04),
		"heartbeat-truncated-name":  heartbeatPairs(0x01, 0x0a, 'a', 'g', 'e'),
		"heartbeat-empty-name":      heartbeatPairs(0x01, 0x00, 0x04),
		"heartbeat-duplicated-name": mustMarshal(agent.Heartbeat{Names: []string{"agent.reports", "agent.reports"}, Values: []int64{1, 2}}),
		"tenant-usage": mustMarshal(agent.TenantUsage{
			Host: "h", ProcName: "p", Time: 3 * time.Second,
			Usage: []agent.TenantQuota{
				{Tenant: "alice", Queries: 2, Tuples: 17},
				{Tenant: "bob", Queries: 1, Tuples: 3},
			},
		}),
		"status-request":  mustMarshal(agent.StatusRequest{ID: "s1"}),
		"status-response": mustMarshal(agent.StatusResponse{ID: "s1", Text: "ok"}),
		"report": mustMarshal(agent.Report{
			QueryID: "Q1", Host: "h", ProcName: "p", Time: 5 * time.Second,
			Groups: []*advice.Group{{
				Key: "k", Rep: tuple.Tuple{tuple.String("h"), tuple.Int(1)},
				States: []*agg.State{st},
			}},
			Raws: []tuple.Tuple{{tuple.Float(1.5)}},
		}),
		// A weighted (sampled) report: the inexact flag and the weighted
		// count/sum fields ride the state encoding.
		"weighted-report": mustMarshal(agent.Report{
			QueryID: "QS", Host: "h", ProcName: "p", Time: 5 * time.Second,
			Groups: []*advice.Group{{
				Key: "k", Rep: tuple.Tuple{tuple.String("h"), tuple.Int(1)},
				States: []*agg.State{wst},
			}},
		}),
		"report-batch": mustMarshal(agent.ReportBatch{
			Host: "h", ProcName: "p", Time: 5 * time.Second,
			Reports: []agent.Report{
				{QueryID: "Q1", Host: "h", ProcName: "p", Time: 5 * time.Second,
					Raws: []tuple.Tuple{{tuple.Int(7)}}},
				{QueryID: "Q2", Host: "h", ProcName: "p", Time: 5 * time.Second},
			},
		}),
		"span-batch": mustMarshal(agent.SpanBatch{
			Host: "h", ProcName: "p", Time: 5 * time.Second,
			Spans: []spans.Span{
				{TraceID: 0xdead, SpanID: 0xdead, Tracepoint: "root",
					Host: "h", ProcName: "p", Start: time.Millisecond},
				{TraceID: 0xdead, SpanID: 0xbeef, Parents: []uint64{0xdead, 1 << 63},
					Tracepoint: "child", Host: "h2", ProcName: "p2",
					Start: 2 * time.Millisecond, Duration: time.Millisecond},
			},
		}),
		"explain-stats": mustMarshal(agent.ExplainStats{
			QueryID: "Q1", Host: "h", ProcName: "p", Time: 5 * time.Second, FlushNS: 1234,
			Ops: []agent.OpStats{{
				Tracepoint: "Tp", Invocations: 10, Sampled: 1, DroppedByJoin: 2,
				TuplesFiltered: 3, TuplesPacked: 4, PackedBytes: 500, PackRefused: 1,
				EvictedGroups: 1, EvictedTuples: 2, EvictedBytes: 64,
				TuplesEmitted: 5, Panics: 0,
			}},
		}),
		"bad-tag": {0x7f},
		// Install claiming 2^28 programs in a one-byte body.
		"huge-count": {TagInstall, 0x01, 'q', 0xff, 0xff, 0xff, 0x7f, 0x00},
		// Batch claiming 2^28 reports in a one-byte body.
		"huge-batch": {TagReportBatch, 0x01, 'h', 0x01, 'p', 0x02, 0xff, 0xff, 0xff, 0x7f, 0x00},
		// SpanBatch claiming 2^28 spans in a one-byte body.
		"huge-span-batch": {TagSpanBatch, 0x01, 'h', 0x01, 'p', 0x02, 0xff, 0xff, 0xff, 0x7f, 0x00},
		// Span claiming 2^28 parents in a one-byte body.
		"huge-parents": {TagSpanBatch, 0x01, 'h', 0x01, 'p', 0x02, 0x01, 0x05, 0x06, 0xff, 0xff, 0xff, 0x7f, 0x00},
		// ExplainStats claiming 2^28 ops in a one-byte body.
		"huge-explain": {TagExplainStats, 0x01, 'q', 0x01, 'h', 0x01, 'p', 0x02, 0x04, 0xff, 0xff, 0xff, 0x7f, 0x00},
		// TenantUsage claiming 2^28 quota entries in a one-byte body.
		"huge-usage": {TagTenantUsage, 0x01, 'h', 0x01, 'p', 0x02, 0xff, 0xff, 0xff, 0x7f, 0x00},
	}
}

// heartbeatPairs is a heartbeat frame (host "h", proc "p", time,
// interval and queries 1) whose metric table is the given raw bytes.
func heartbeatPairs(table ...byte) []byte {
	return append([]byte{TagHeartbeat, 0x01, 'h', 0x01, 'p', 0x02, 0x02, 0x02}, table...)
}

// exprSeeds encodes a deeply nested expression plus malformed shapes.
func exprSeeds(t testing.TB) map[string][]byte {
	q, err := query.Parse(`From e In Tp Where (e.a + 2) * e.b >= 10 && !(e.s = "x") || e.t - 1.5 < 0 Select COUNT`)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"nested":  AppendExpr(nil, q.Where[0]),
		"bad-tag": {0x7f},
		"empty":   {},
	}
}

// FuzzUnmarshal: decoding arbitrary bytes must never panic, and any
// successfully decoded message must re-marshal to a stable canonical
// encoding (Marshal ∘ Unmarshal is a fixpoint).
func FuzzUnmarshal(f *testing.F) {
	for _, s := range messageSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Unmarshal(data)
		if err != nil {
			return
		}
		enc, err := Marshal(msg)
		if err != nil {
			t.Fatalf("re-marshal of decoded %T: %v", msg, err)
		}
		msg2, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-unmarshal of re-marshaled %T: %v", msg, err)
		}
		enc2, err := Marshal(msg2)
		if err != nil {
			t.Fatalf("second re-marshal of %T: %v", msg2, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("%T encoding is not a fixpoint:\n%x\n%x", msg, enc, enc2)
		}
	})
}

// FuzzDecodeExpr: same contract for the expression codec used inside
// advice programs.
func FuzzDecodeExpr(f *testing.F) {
	for _, s := range exprSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, rest, err := DecodeExpr(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("decode returned more bytes than it was given")
		}
		enc := AppendExpr(nil, e)
		e2, tail, err := DecodeExpr(enc)
		if err != nil || len(tail) != 0 {
			t.Fatalf("re-decode of re-encoded expr %s: err=%v trailing=%d", e, err, len(tail))
		}
		if enc2 := AppendExpr(nil, e2); !bytes.Equal(enc, enc2) {
			t.Fatalf("expr encoding is not a fixpoint:\n%x\n%x", enc, enc2)
		}
	})
}

func TestRegenWireFuzzCorpus(t *testing.T) {
	randtest.RegenCorpus(t, "FuzzUnmarshal", messageSeeds(t))
	randtest.RegenCorpus(t, "FuzzDecodeExpr", exprSeeds(t))
}

// TestHeartbeatHostileMetricTables pins how the decoder treats the hostile
// metric-table seeds: impossible pair counts and cut-short names are
// rejected; empty and duplicated names decode intact.
func TestHeartbeatHostileMetricTables(t *testing.T) {
	seeds := messageSeeds(t)
	for name, wantErr := range map[string]bool{
		"heartbeat-huge-pairs":      true,
		"heartbeat-short-pairs":     true,
		"heartbeat-truncated-name":  true,
		"heartbeat-empty-name":      false,
		"heartbeat-duplicated-name": false,
	} {
		if _, err := Unmarshal(seeds[name]); (err != nil) != wantErr {
			t.Errorf("%s: err = %v, want error %v", name, err, wantErr)
		}
	}
	dup, _ := Unmarshal(seeds["heartbeat-duplicated-name"])
	if got := dup.(agent.Heartbeat).Metric("agent.reports"); got != 1 {
		t.Errorf("duplicated name lookup = %d, want the first value 1", got)
	}
}
