package combiner

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/agg"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/tuple"
)

// TestPartitionPinned pins the hash so a refactor cannot silently remap
// every agent onto new partitions (which would split in-flight query state
// across combiners mid-deployment).
func TestPartitionPinned(t *testing.T) {
	cases := []struct {
		host, proc string
		parts      int
		want       int
	}{
		{"h0", "worker", 16, 13},
		{"h1", "worker", 16, 14},
		{"rack3-host7", "svc", 16, 1},
		{"h0", "worker", 4, 1},
		{"h0worker", "", 16, 5}, // separator: ("h0","worker") != ("h0worker","")
		{"any", "proc", 1, 0},
		{"any", "proc", 0, 0},
	}
	for _, c := range cases {
		if got := Partition(c.host, c.proc, c.parts); got != c.want {
			t.Errorf("Partition(%q,%q,%d) = %d, want %d", c.host, c.proc, c.parts, got, c.want)
		}
	}
}

// TestPartitionStableAndInRange checks determinism and range over many
// identities and partition counts.
func TestPartitionStableAndInRange(t *testing.T) {
	for _, parts := range []int{1, 2, 7, 16, 64} {
		for i := 0; i < 200; i++ {
			host := fmt.Sprintf("rack%d-host%d", i/16, i%16)
			p := Partition(host, "worker", parts)
			if p < 0 || p >= parts {
				t.Fatalf("Partition(%q) = %d out of range [0,%d)", host, p, parts)
			}
			if again := Partition(host, "worker", parts); again != p {
				t.Fatalf("Partition(%q) unstable: %d then %d", host, p, again)
			}
		}
	}
}

// TestPartitionSpread: 1024 synthetic hosts over 16 partitions should leave
// no partition empty and none grossly overloaded.
func TestPartitionSpread(t *testing.T) {
	const parts = 16
	counts := make([]int, parts)
	for i := 0; i < 1024; i++ {
		counts[Partition(fmt.Sprintf("rack%d-host%d", i/16, i%16), "worker", parts)]++
	}
	mean := 1024 / parts
	for p, n := range counts {
		if n == 0 {
			t.Errorf("partition %d empty", p)
		}
		if n > 3*mean {
			t.Errorf("partition %d overloaded: %d agents (mean %d)", p, n, mean)
		}
	}
}

// TestPartitionTopicNames: unique names, and the total is baked in so
// different sharding widths can never cross-subscribe.
func TestPartitionTopicNames(t *testing.T) {
	if got := PartitionTopic(3, 16); got != "pt.report.p3of16" {
		t.Fatalf("PartitionTopic(3,16) = %q", got)
	}
	seen := map[string]bool{}
	for _, parts := range []int{1, 4, 16} {
		topics := PartitionTopics(parts)
		if len(topics) != parts {
			t.Fatalf("PartitionTopics(%d) returned %d topics", parts, len(topics))
		}
		for _, topic := range topics {
			if seen[topic] {
				t.Fatalf("duplicate topic %q across widths", topic)
			}
			seen[topic] = true
		}
	}
}

// TestAssignPinned pins rendezvous ownership for a fixed membership.
func TestAssignPinned(t *testing.T) {
	members := []string{"mid0", "mid1", "mid2"}
	want := map[string]string{
		"pt.report.p0of4": "mid0",
		"pt.report.p1of4": "mid1",
		"pt.report.p2of4": "mid2",
		"pt.report.p3of4": "mid1",
	}
	for topic, m := range want {
		if got := Assign(topic, members); got != m {
			t.Errorf("Assign(%q) = %q, want %q", topic, got, m)
		}
	}
	if got := Assign("pt.report.p0of4", nil); got != "" {
		t.Errorf("Assign with empty membership = %q, want \"\"", got)
	}
}

// TestAssignRebalance: removing a member moves only its partitions; adding
// one steals only the partitions it now wins. Everything else stays put.
func TestAssignRebalance(t *testing.T) {
	topics := PartitionTopics(64)
	before := map[string]string{}
	members := []string{"mid0", "mid1", "mid2", "mid3"}
	for _, topic := range topics {
		before[topic] = Assign(topic, members)
	}

	// mid2 leaves: every partition not owned by mid2 keeps its owner.
	after := []string{"mid0", "mid1", "mid3"}
	moved := 0
	for _, topic := range topics {
		got := Assign(topic, after)
		if before[topic] != "mid2" {
			if got != before[topic] {
				t.Errorf("leave: %q moved %q -> %q though its owner stayed", topic, before[topic], got)
			}
		} else {
			moved++
			if got == "mid2" {
				t.Errorf("leave: %q still assigned to departed member", topic)
			}
		}
	}
	if moved == 0 {
		t.Fatal("leave: mid2 owned no partitions; test is vacuous")
	}

	// mid4 joins: partitions mid4 doesn't win keep their prior owner.
	joined := append(append([]string{}, members...), "mid4")
	stolen := 0
	for _, topic := range topics {
		got := Assign(topic, joined)
		if got == "mid4" {
			stolen++
		} else if got != before[topic] {
			t.Errorf("join: %q moved %q -> %q though mid4 didn't win it", topic, before[topic], got)
		}
	}
	if stolen == 0 {
		t.Fatal("join: mid4 stole no partitions; test is vacuous")
	}
}

// TestOwnedPartition: Owned splits the topic set disjointly and completely
// across the membership.
func TestOwnedPartition(t *testing.T) {
	topics := PartitionTopics(32)
	members := []string{"a", "b", "c"}
	var union []string
	for _, m := range members {
		union = append(union, Owned(topics, members, m)...)
	}
	sort.Strings(union)
	want := append([]string(nil), topics...)
	sort.Strings(want)
	if !reflect.DeepEqual(union, want) {
		t.Fatalf("Owned sets are not a partition of the topics:\n got %v\nwant %v", union, want)
	}
}

func countGroup(key string, n int64) *advice.Group {
	st := agg.New(agg.Count)
	for i := int64(0); i < n; i++ {
		st.Add(tuple.Int(1))
	}
	return &advice.Group{Key: key, Rep: tuple.Tuple{tuple.String(key)}, States: []*agg.State{st}}
}

// TestCombinerMergesAndForwards: reports from two partition topics merge
// per query/group and forward upstream as one batch, with exact merge and
// frame accounting.
func TestCombinerMergesAndForwards(t *testing.T) {
	b := bus.New()
	var got []agent.ReportBatch
	b.Subscribe(agent.ResultsTopic, func(msg any) {
		if rb, ok := msg.(agent.ReportBatch); ok {
			got = append(got, rb)
		}
	})
	var beats []agent.Heartbeat
	b.Subscribe(agent.HealthTopic, func(msg any) {
		if hb, ok := msg.(agent.Heartbeat); ok {
			beats = append(beats, hb)
		}
	})

	c := New(nil, "rack0", "combiner-0", b, Config{
		Interval:  time.Millisecond,
		Subscribe: PartitionTopics(2),
	})
	defer c.Close()

	b.Publish(PartitionTopic(0, 2), agent.Report{
		QueryID: "Q1", Host: "h0", ProcName: "w",
		Groups: []*advice.Group{countGroup("k", 3)},
	})
	b.Publish(PartitionTopic(1, 2), agent.ReportBatch{
		Host: "h1", ProcName: "w",
		Reports: []agent.Report{
			{QueryID: "Q1", Host: "h1", ProcName: "w", Groups: []*advice.Group{countGroup("k", 4)}},
			{QueryID: "Q2", Host: "h1", ProcName: "w", Raws: []tuple.Tuple{{tuple.Int(7)}},
				Drops: []baggage.DropRecord{{Slot: "Q2", Key: "h1.w.1"}}},
		},
	})
	if c.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", c.Pending())
	}
	c.Flush()

	if len(got) != 1 {
		t.Fatalf("upstream frames = %d, want 1", len(got))
	}
	rs := got[0].Reports
	if len(rs) != 2 || rs[0].QueryID != "Q1" || rs[1].QueryID != "Q2" {
		t.Fatalf("unexpected forwarded reports: %+v", rs)
	}
	if rs[0].Host != "rack0" || rs[0].ProcName != "combiner-0" {
		t.Fatalf("forwarded report not stamped with combiner identity: %+v", rs[0])
	}
	if len(rs[0].Groups) != 1 || rs[0].Groups[0].States[0].Count() != 7 {
		t.Fatalf("Q1 groups did not merge to count 7: %+v", rs[0].Groups)
	}
	if len(rs[1].Raws) != 1 || len(rs[1].Drops) != 1 || rs[1].Drops[0].Key != "h1.w.1" {
		t.Fatalf("Q2 raws/drops not forwarded: %+v", rs[1])
	}

	st := c.Stats()
	if st.CombinerReportsMerged != 3 {
		t.Errorf("CombinerReportsMerged = %d, want 3", st.CombinerReportsMerged)
	}
	if st.CombinerFramesOut != 1 || st.Batches != 1 {
		t.Errorf("frames out = %d/%d, want 1/1", st.CombinerFramesOut, st.Batches)
	}
	if st.Reports != 2 || st.RowsReported != 2 {
		t.Errorf("Reports/RowsReported = %d/%d, want 2/2", st.Reports, st.RowsReported)
	}
	if len(beats) != 1 || beats[0].Metric("combiner.reports.merged") != 3 {
		t.Errorf("heartbeat missing combiner accounting: %+v", beats)
	}
	if c.Pending() != 0 {
		t.Errorf("Pending() = %d after flush, want 0", c.Pending())
	}
}

// TestCombinerDoesNotMutateSource: the in-process bus shares pointers, so
// the combiner must clone a group before merging into it.
func TestCombinerDoesNotMutateSource(t *testing.T) {
	b := bus.New()
	c := New(nil, "r", "c", b, Config{Subscribe: []string{PartitionTopic(0, 1)}})
	defer c.Close()

	src := countGroup("k", 3)
	b.Publish(PartitionTopic(0, 1), agent.Report{QueryID: "Q1", Groups: []*advice.Group{src}})
	b.Publish(PartitionTopic(0, 1), agent.Report{QueryID: "Q1", Groups: []*advice.Group{countGroup("k", 5)}})
	if src.States[0].Count() != 3 {
		t.Fatalf("combiner mutated the published group: count %d, want 3", src.States[0].Count())
	}
	c.Flush()
	if src.States[0].Count() != 3 {
		t.Fatalf("flush mutated the published group: count %d, want 3", src.States[0].Count())
	}
}

// TestCombinerBatchSplitting: a tiny BatchBytes cap splits the flush into
// several frames, all counted.
func TestCombinerBatchSplitting(t *testing.T) {
	b := bus.New()
	var frames int
	b.Subscribe(agent.ResultsTopic, func(msg any) {
		if _, ok := msg.(agent.ReportBatch); ok {
			frames++
		}
	})
	c := New(nil, "r", "c", b, Config{Subscribe: []string{PartitionTopic(0, 1)}, BatchBytes: 1})
	defer c.Close()
	for q := 0; q < 5; q++ {
		b.Publish(PartitionTopic(0, 1), agent.Report{
			QueryID: fmt.Sprintf("Q%d", q), Groups: []*advice.Group{countGroup("k", 1)},
		})
	}
	c.Flush()
	if frames != 5 {
		t.Fatalf("frames = %d, want 5 (one per report at BatchBytes=1)", frames)
	}
	if got := c.Stats().CombinerFramesOut; got != 5 {
		t.Fatalf("CombinerFramesOut = %d, want 5", got)
	}
}

// TestCombinerTenantRouting: a tenant-routing combiner learns ownership
// from control traffic and fans each tenant's queries out on that tenant's
// own results topic; unowned queries still go upstream.
func TestCombinerTenantRouting(t *testing.T) {
	b := bus.New()
	byTopic := map[string][]string{} // topic -> query IDs seen
	collect := func(topic string) {
		b.Subscribe(topic, func(msg any) {
			if rb, ok := msg.(agent.ReportBatch); ok {
				for _, r := range rb.Reports {
					byTopic[topic] = append(byTopic[topic], r.QueryID)
				}
			}
		})
	}
	collect(agent.ResultsTopic)
	collect(agent.TenantResultsTopic("alice"))
	collect(agent.TenantResultsTopic("bob"))

	c := New(nil, "root", "combiner-root", b, Config{
		Subscribe:     []string{RootTopic},
		TenantRouting: true,
	})
	defer c.Close()

	b.Publish(agent.ControlTopic, agent.Install{QueryID: "alice.Q1", Tenant: "alice"})
	b.Publish(agent.ControlTopic, agent.Install{QueryID: "bob.Q1", Tenant: "bob"})
	for _, q := range []string{"alice.Q1", "bob.Q1", "Q9"} {
		b.Publish(RootTopic, agent.Report{QueryID: q, Groups: []*advice.Group{countGroup("k", 1)}})
	}
	c.Flush()

	want := map[string][]string{
		agent.TenantResultsTopic("alice"): {"alice.Q1"},
		agent.TenantResultsTopic("bob"):   {"bob.Q1"},
		agent.ResultsTopic:                {"Q9"},
	}
	if !reflect.DeepEqual(byTopic, want) {
		t.Fatalf("routing mismatch:\n got %v\nwant %v", byTopic, want)
	}

	// Uninstall clears the route: alice's next frames fall back upstream.
	b.Publish(agent.ControlTopic, agent.Uninstall{QueryID: "alice.Q1"})
	b.Publish(RootTopic, agent.Report{QueryID: "alice.Q1", Groups: []*advice.Group{countGroup("k", 1)}})
	c.Flush()
	if got := byTopic[agent.ResultsTopic]; len(got) != 2 || got[1] != "alice.Q1" {
		t.Fatalf("post-uninstall frames not rerouted upstream: %v", byTopic)
	}
}

// TestDrainPendingAccounting: DrainPending returns the unforwarded state
// exactly once, without publishing.
func TestDrainPendingAccounting(t *testing.T) {
	b := bus.New()
	var frames int
	b.Subscribe(agent.ResultsTopic, func(any) { frames++ })
	c := New(nil, "r", "c", b, Config{Subscribe: []string{PartitionTopic(0, 1)}})
	b.Publish(PartitionTopic(0, 1), agent.Report{QueryID: "Q1", Groups: []*advice.Group{countGroup("k", 6)}})
	c.Close()

	drained := c.DrainPending()
	if len(drained) != 1 || drained[0].Groups[0].States[0].Count() != 6 {
		t.Fatalf("DrainPending = %+v, want one Q1 report with count 6", drained)
	}
	if again := c.DrainPending(); len(again) != 0 {
		t.Fatalf("second DrainPending returned %d reports, want 0", len(again))
	}
	if frames != 0 {
		t.Fatalf("DrainPending published %d frames, want 0", frames)
	}
}

// TestCloseStopsIntake: after Close, published reports are no longer
// folded in.
func TestCloseStopsIntake(t *testing.T) {
	b := bus.New()
	c := New(nil, "r", "c", b, Config{Subscribe: []string{PartitionTopic(0, 1)}, TenantRouting: true})
	c.Close()
	b.Publish(PartitionTopic(0, 1), agent.Report{QueryID: "Q1"})
	if c.Pending() != 0 {
		t.Fatalf("closed combiner accepted a report")
	}
	c.Close() // idempotent
}
