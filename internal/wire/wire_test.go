package wire

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/agg"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/tracepoint"
	"repro/internal/tuple"
)

// paperQueryTexts exercises the codec against realistic compiled plans.
var paperQueryTexts = []string{
	`From incr In DataNodeMetrics.incrBytesRead
	 GroupBy incr.host Select incr.host, SUM(incr.delta)`,
	`From incr In DataNodeMetrics.incrBytesRead
	 Join cl In First(ClientProtocols) On cl -> incr
	 GroupBy cl.procName Select cl.procName, SUM(incr.delta)`,
	`From DNop In DN.DataTransferProtocol
	 Join getloc In NN.GetBlockLocations On getloc -> DNop
	 Join st In StressTest.DoNextOp On st -> getloc
	 Where st.host != DNop.host
	 GroupBy DNop.host, getloc.replicas
	 Select DNop.host, getloc.replicas, COUNT`,
	`From response In SendResponse
	 Join request In MostRecent(ReceiveRequest) On request -> response
	 Select response.time - request.time`,
}

func codecRegistry() *tracepoint.Registry {
	reg := tracepoint.NewRegistry()
	reg.Define("DataNodeMetrics.incrBytesRead", "delta")
	reg.Define("ClientProtocols")
	reg.Define("DN.DataTransferProtocol", "op", "size")
	reg.Define("NN.GetBlockLocations", "src", "replicas")
	reg.Define("StressTest.DoNextOp", "op")
	reg.Define("SendResponse")
	reg.Define("ReceiveRequest")
	return reg
}

func TestProgramCodecRoundtripsPaperPlans(t *testing.T) {
	reg := codecRegistry()
	for i, text := range paperQueryTexts {
		q, err := query.Parse(text)
		if err != nil {
			t.Fatalf("q%d: %v", i, err)
		}
		q.Name = "q"
		p, err := plan.Compile(q, reg, nil, plan.Optimized)
		if err != nil {
			t.Fatalf("q%d: %v", i, err)
		}
		for _, prog := range p.Programs {
			buf := AppendProgram(nil, prog)
			got, rest, err := DecodeProgram(buf)
			if err != nil {
				t.Fatalf("q%d %s: %v", i, prog.Tracepoint, err)
			}
			if len(rest) != 0 {
				t.Fatalf("q%d %s: %d trailing bytes", i, prog.Tracepoint, len(rest))
			}
			// The paper-notation rendering covers every field that affects
			// behaviour except emit/bindings details; compare it plus key
			// fields directly.
			if got.String() != prog.String() {
				t.Errorf("q%d %s:\nwant %s\ngot  %s", i, prog.Tracepoint, prog, got)
			}
			if got.QueryID != prog.QueryID || got.Tracepoint != prog.Tracepoint {
				t.Errorf("q%d: identity fields differ", i)
			}
			if (got.Emit == nil) != (prog.Emit == nil) {
				t.Fatalf("q%d: emit presence differs", i)
			}
			if got.Emit != nil && len(got.Emit.Cols) != len(prog.Emit.Cols) {
				t.Errorf("q%d: emit cols differ", i)
			}
			if len(got.Filters) != len(prog.Filters) {
				t.Errorf("q%d: filters differ", i)
			}
			for fi := range got.Filters {
				if len(got.Filters[fi].Bindings) != len(prog.Filters[fi].Bindings) {
					t.Errorf("q%d: filter bindings differ", i)
				}
			}
		}
	}
}

func TestExprCodecRoundtrip(t *testing.T) {
	q, err := query.Parse(`From e In Tp Where (e.a + 2) * e.b >= 10 && !(e.s = "x") || e.t - 1.5 < 0 Select COUNT`)
	if err != nil {
		t.Fatal(err)
	}
	expr := q.Where[0]
	buf := AppendExpr(nil, expr)
	got, rest, err := DecodeExpr(buf)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v (%d trailing)", err, len(rest))
	}
	if got.String() != expr.String() {
		t.Fatalf("expr roundtrip: %s != %s", got, expr)
	}
}

func TestMessageCodecRoundtrip(t *testing.T) {
	// Install.
	prog := &advice.Program{
		QueryID: "Q1", Tracepoint: "Tp",
		Observe: []int{0}, ObserveFields: tuple.Schema{"e.host"},
		Emit: &advice.EmitOp{
			Cols:    []advice.EmitCol{{Pos: 0}, {IsAgg: true, Pos: -1, Fn: agg.Count}},
			GroupBy: []int{0}, Schema: tuple.Schema{"host", "COUNT"},
		},
	}
	in := agent.Install{QueryID: "Q1", Programs: []*advice.Program{prog}}
	buf, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	gi, ok := got.(agent.Install)
	if !ok || gi.QueryID != "Q1" || len(gi.Programs) != 1 {
		t.Fatalf("install roundtrip = %#v", got)
	}

	// Uninstall.
	buf, _ = Marshal(agent.Uninstall{QueryID: "Q9"})
	got, err = Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if gu, ok := got.(agent.Uninstall); !ok || gu.QueryID != "Q9" {
		t.Fatalf("uninstall roundtrip = %#v", got)
	}

	// Report with groups and raws.
	st := agg.New(agg.Sum)
	st.Add(tuple.Int(42))
	rep := agent.Report{
		QueryID: "Q1", Host: "h", ProcName: "p", Time: 5 * time.Second,
		Groups: []*advice.Group{{
			Key: "k", Rep: tuple.Tuple{tuple.String("h"), tuple.Int(1)},
			States: []*agg.State{st},
		}},
		Raws: []tuple.Tuple{{tuple.Float(1.5)}},
	}
	buf, err = Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err = Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	gr, ok := got.(agent.Report)
	if !ok || gr.Time != 5*time.Second || len(gr.Groups) != 1 || len(gr.Raws) != 1 {
		t.Fatalf("report roundtrip = %#v", got)
	}
	if gr.Groups[0].States[0].Result().Int() != 42 {
		t.Fatalf("state roundtrip = %v", gr.Groups[0].States[0].Result())
	}

	// ReportBatch: reports coalesced into one frame survive intact and in
	// order.
	batch := agent.ReportBatch{
		Host: "h", ProcName: "p", Time: 6 * time.Second,
		Reports: []agent.Report{rep, {QueryID: "Q2", Host: "h", ProcName: "p", Time: 6 * time.Second}},
	}
	buf, err = Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	got, err = Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	gb, ok := got.(agent.ReportBatch)
	if !ok || gb.Host != "h" || gb.Time != 6*time.Second || len(gb.Reports) != 2 {
		t.Fatalf("batch roundtrip = %#v", got)
	}
	if gb.Reports[0].QueryID != "Q1" || gb.Reports[1].QueryID != "Q2" {
		t.Fatalf("batch order lost: %q, %q", gb.Reports[0].QueryID, gb.Reports[1].QueryID)
	}
	if gb.Reports[0].Groups[0].States[0].Result().Int() != 42 {
		t.Fatalf("batched state roundtrip = %v", gb.Reports[0].Groups[0].States[0].Result())
	}

	// Unknown type.
	if _, err := Marshal(struct{}{}); err == nil {
		t.Error("unknown type should fail to marshal")
	}
	if _, err := Unmarshal([]byte{99}); err == nil {
		t.Error("bad tag should fail to unmarshal")
	}
}

// TestGovernanceCodecRoundtrip covers the safety-valve additions to the
// wire format: install leases and accumulator limits, per-program safety
// bounds, lease renewals, quarantine notices, report drop records, and
// the named metrics heartbeats carry.
func TestGovernanceCodecRoundtrip(t *testing.T) {
	roundtrip := func(msg any) any {
		t.Helper()
		buf, err := Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(buf)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	prog := &advice.Program{
		QueryID: "Q1", Tracepoint: "Tp",
		Observe: []int{0}, ObserveFields: tuple.Schema{"e.host"},
		Safety: advice.Safety{
			Budget:      baggage.Budget{MaxBytes: 4096, MaxTuples: -1},
			FaultLimit:  5,
			CostCeiling: -1,
		},
		Emit: &advice.EmitOp{
			Cols:    []advice.EmitCol{{Pos: 0}, {IsAgg: true, Pos: -1, Fn: agg.Count}},
			GroupBy: []int{0}, Schema: tuple.Schema{"host", "COUNT"},
		},
	}
	in := agent.Install{
		QueryID:  "Q1",
		Programs: []*advice.Program{prog},
		TTL:      45 * time.Second,
		Limits:   advice.Limits{MaxGroups: 128, MaxRaws: -1},
	}
	gi := roundtrip(in).(agent.Install)
	if gi.TTL != in.TTL || gi.Limits != in.Limits {
		t.Fatalf("install lease/limits roundtrip = %+v", gi)
	}
	if got := gi.Programs[0].Safety; got != prog.Safety {
		t.Fatalf("program safety roundtrip = %+v, want %+v", got, prog.Safety)
	}

	rn := agent.Renew{QueryIDs: []string{"Q1", "Q2"}, TTL: 9 * time.Second}
	gr := roundtrip(rn).(agent.Renew)
	if gr.TTL != rn.TTL || len(gr.QueryIDs) != 2 || gr.QueryIDs[0] != "Q1" || gr.QueryIDs[1] != "Q2" {
		t.Fatalf("renew roundtrip = %+v", gr)
	}

	qn := agent.Quarantine{
		QueryID: "Q1", Tracepoint: "Tp", Host: "h3", ProcName: "dn",
		Reason: "3 advice panics at Tp (last: boom)", Time: 11 * time.Second,
	}
	if gq := roundtrip(qn).(agent.Quarantine); gq != qn {
		t.Fatalf("quarantine roundtrip = %+v, want %+v", gq, qn)
	}

	rep := agent.Report{
		QueryID: "Q1", Host: "h", ProcName: "p", Time: time.Second,
		Drops: []baggage.DropRecord{
			{Slot: "Q1.a", Key: "\x02k1"},
			{Slot: "Q1.b"}, // whole-slot tombstone
		},
	}
	grep := roundtrip(rep).(agent.Report)
	if len(grep.Drops) != 2 || grep.Drops[0] != rep.Drops[0] || grep.Drops[1] != rep.Drops[1] {
		t.Fatalf("report drops roundtrip = %+v", grep.Drops)
	}

	// Every agent metric round-trips under its name, in order.
	hb := agent.Heartbeat{
		Host: "h", ProcName: "p", Time: time.Second, Interval: time.Second, Queries: 2,
		Names: agent.MetricNames, Values: make([]int64, len(agent.MetricNames)),
	}
	for i := range hb.Values {
		hb.Values[i] = int64(i + 1)
	}
	if ghb := roundtrip(hb).(agent.Heartbeat); !reflect.DeepEqual(ghb, hb) {
		t.Errorf("heartbeat roundtrip = %+v, want %+v", ghb, hb)
	}
}

// TestHeartbeatVersionSkew: a beat from an agent of another version —
// carrying a metric this frontend does not know and lacking one it shows —
// decodes and renders. The unknown name is ignored, the missing column
// shows 0, and the agents table keeps every column.
func TestHeartbeatVersionSkew(t *testing.T) {
	buf, err := Marshal(agent.Heartbeat{
		Host: "h", ProcName: "p", Interval: time.Second,
		Names:  []string{"agent.reports", "agent.future.thing", "agent.rows"}, // no agent.tuples
		Values: []int64{7, 424242, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	out := core.RenderStatus(core.Status{Agents: []core.AgentHealth{{Heartbeat: msg.(agent.Heartbeat), Healthy: true}}})
	lines := strings.Split(out, "\n")
	header, row := strings.Fields(lines[1]), strings.Fields(lines[2])
	want := "host proc age interval health queries reports batches rows tuples reconn replay drops expired " +
		"quarant rawdrop ovflow bagdrop spans spandrop cmerged cfwd smplout srate"
	if got := strings.Join(header, " "); got != want || len(row) != len(header) {
		t.Fatalf("agents table header/row:\n%s\n%s", lines[1], lines[2])
	}
	col := make(map[string]string, len(header))
	for i, h := range header {
		col[h] = row[i]
	}
	if col["reports"] != "7" || col["rows"] != "5" || col["tuples"] != "0" {
		t.Errorf("reports/rows/tuples = %s/%s/%s, want 7/5/0", col["reports"], col["rows"], col["tuples"])
	}
	if strings.Contains(out, "424242") {
		t.Errorf("unknown metric rendered:\n%s", out)
	}
}

// TestDistributedDeployment is the full multi-process flow over real TCP:
// a frontend process and a monitored "worker" process, each with its own
// local bus, connected through the central pub/sub server. A query
// installed at the frontend weaves advice in the worker; baggage crosses
// the process boundary via serialized bytes; reports flow back and
// aggregate at the frontend.
func TestDistributedDeployment(t *testing.T) {
	const (
		controlTopic = agent.ControlTopic
		resultsTopic = agent.ResultsTopic
	)
	srv, err := bus.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Frontend process.
	feBus := bus.New()
	feReg := tracepoint.NewRegistry()
	feReg.Define("API.Receive", "app")
	feReg.Define("Storage.Read", "bytes")
	frontend := core.New(feBus, feReg)
	feLink, err := bus.Connect(feBus, srv.Addr(), BusCodec{},
		[]string{controlTopic}, []string{resultsTopic})
	if err != nil {
		t.Fatal(err)
	}
	defer feLink.Close()

	// Worker process: its own registry and agent, bridged the other way.
	wBus := bus.New()
	wReg := tracepoint.NewRegistry()
	apiTp := wReg.Define("API.Receive", "app")
	readTp := wReg.Define("Storage.Read", "bytes")
	ag := agent.New(nil, tracepoint.ProcInfo{Host: "worker-1", ProcName: "storage"}, wReg, wBus, 0)
	wLink, err := bus.Connect(wBus, srv.Addr(), BusCodec{},
		[]string{resultsTopic}, []string{controlTopic})
	if err != nil {
		t.Fatal(err)
	}
	defer wLink.Close()

	// Install at the frontend; the advice must arrive and weave remotely.
	h, err := frontend.Install(`From r In Storage.Read
		Join api In First(API.Receive) On api -> r
		GroupBy api.app
		Select api.app, SUM(r.bytes), COUNT`)
	if err != nil {
		t.Fatal(err)
	}
	if !waitFor(func() bool { return readTp.Enabled() }, 3*time.Second) {
		t.Fatal("advice did not weave in the worker within 3s")
	}

	// Drive requests in the worker, with an explicit baggage wire hop
	// between the "api" and "storage" moments of each request.
	for i := 0; i < 10; i++ {
		ctx := tracepoint.WithProc(context.Background(),
			tracepoint.ProcInfo{Host: "api-1", ProcName: "api"})
		ctx = baggage.NewContext(ctx, baggage.New())
		apiTp.Here(ctx, "batch")
		hop := baggage.FromContext(ctx).Serialize()

		sctx := tracepoint.WithProc(context.Background(),
			tracepoint.ProcInfo{Host: "worker-1", ProcName: "storage"})
		sctx = baggage.NewContext(sctx, baggage.Deserialize(hop))
		readTp.Here(sctx, 1000)
	}
	ag.Flush()

	if !waitFor(func() bool { return len(h.Rows()) == 1 }, 3*time.Second) {
		t.Fatalf("no rows at the frontend; rows = %v", h.Rows())
	}
	row := h.Rows()[0]
	if row[0].Str() != "batch" || row[1].Int() != 10000 || row[2].Int() != 10 {
		t.Fatalf("row = %v, want (batch, 10000, 10)", row)
	}

	// Uninstall travels too.
	h.Uninstall()
	if !waitFor(func() bool { return !readTp.Enabled() }, 3*time.Second) {
		t.Fatal("uninstall did not unweave in the worker")
	}
}

func waitFor(cond func() bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}
