package core

import (
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/bus"
	"repro/internal/combiner"
	"repro/internal/tracepoint"
)

func heartbeat(host, proc string, at, interval time.Duration) agent.Heartbeat {
	return agent.Heartbeat{
		Host: host, ProcName: proc, Time: at, Interval: interval,
	}
}

func TestStatusHeartbeatStaleness(t *testing.T) {
	b := bus.New()
	pt := New(b, tracepoint.NewRegistry())
	defer pt.Close()

	b.Publish(agent.HealthTopic, heartbeat("h1", "svc", 10*time.Second, time.Second))

	// Fresh: within 3 intervals of the heartbeat.
	s := pt.StatusAt(12 * time.Second)
	if len(s.Agents) != 1 {
		t.Fatalf("agents = %v", s.Agents)
	}
	if a := s.Agents[0]; !a.Healthy || a.Age != 2*time.Second {
		t.Errorf("fresh agent = %+v", a)
	}

	// Exactly at the staleness boundary is still healthy.
	if a := pt.StatusAt(13 * time.Second).Agents[0]; !a.Healthy {
		t.Errorf("boundary agent unhealthy: %+v", a)
	}

	// One tick past 3 intervals: unhealthy.
	if a := pt.StatusAt(13*time.Second + time.Nanosecond).Agents[0]; a.Healthy {
		t.Errorf("stale agent healthy: %+v", a)
	}

	// A heartbeat from the future (clock skew) is also flagged.
	if a := pt.StatusAt(9 * time.Second).Agents[0]; a.Healthy {
		t.Errorf("future heartbeat healthy: %+v", a)
	}

	// A new heartbeat recovers the agent.
	b.Publish(agent.HealthTopic, heartbeat("h1", "svc", 20*time.Second, time.Second))
	if a := pt.StatusAt(21 * time.Second).Agents[0]; !a.Healthy {
		t.Errorf("recovered agent unhealthy: %+v", a)
	}
}

func TestStatusSortsAgentsAndRendersHealth(t *testing.T) {
	b := bus.New()
	pt := New(b, tracepoint.NewRegistry())
	defer pt.Close()

	b.Publish(agent.HealthTopic, heartbeat("h2", "svc", time.Second, time.Second))
	b.Publish(agent.HealthTopic, heartbeat("h1", "worker", time.Second, time.Second))
	b.Publish(agent.HealthTopic, heartbeat("h1", "svc", 0, time.Second)) // stale below

	s := pt.StatusAt(10 * time.Second)
	if len(s.Agents) != 3 {
		t.Fatalf("agents = %v", s.Agents)
	}
	order := []string{"h1/svc", "h1/worker", "h2/svc"}
	for i, a := range s.Agents {
		if got := a.Host + "/" + a.ProcName; got != order[i] {
			t.Errorf("agent[%d] = %s, want %s", i, got, order[i])
		}
	}

	out := RenderStatus(s)
	if !strings.Contains(out, "UNHEALTHY") {
		t.Errorf("stale agent not flagged:\n%s", out)
	}
	if !strings.Contains(out, "agents (3):") {
		t.Errorf("agent count missing:\n%s", out)
	}
}

func TestStatusRequestRoundTrip(t *testing.T) {
	b := bus.New()
	pt := New(b, tracepoint.NewRegistry())
	defer pt.Close()

	var got agent.StatusResponse
	sub := b.Subscribe(agent.StatusResponseTopic, func(msg any) {
		if resp, ok := msg.(agent.StatusResponse); ok {
			got = resp
		}
	})
	defer b.Unsubscribe(sub)

	b.Publish(agent.StatusRequestTopic, agent.StatusRequest{ID: "req-7"})
	if got.ID != "req-7" {
		t.Fatalf("response ID = %q", got.ID)
	}
	if !strings.Contains(got.Text, "agents (0):") {
		t.Errorf("status text = %q", got.Text)
	}
}

// beatOf builds a heartbeat carrying names, valued from vals; a vals key
// missing from names fails the test rather than silently rendering 0.
func beatOf(t *testing.T, host, proc string, interval time.Duration, queries int, names []string, vals map[string]int64) agent.Heartbeat {
	t.Helper()
	hb := agent.Heartbeat{Host: host, ProcName: proc, Interval: interval, Queries: queries,
		Names: names, Values: make([]int64, len(names))}
	for i, n := range names {
		hb.Values[i] = vals[n]
		delete(vals, n)
	}
	if len(vals) != 0 {
		t.Fatalf("metrics %v are not in the sender's table", vals)
	}
	return hb
}

// TestRenderStatusGolden pins the agents table byte for byte: every
// column, its order and width, for one agent row and one combiner row.
// Operators and scripts read this table; change testdata/status.golden
// only when a column changes on purpose.
func TestRenderStatusGolden(t *testing.T) {
	s := Status{Agents: []AgentHealth{
		{Heartbeat: beatOf(t, "host-0007.cluster", "DataNode", time.Second, 3, agent.MetricNames, map[string]int64{
			"agent.reports": 1201, "agent.batches": 302, "agent.rows": 45678, "agent.tuples": 987654,
			"agent.reconnects": 3, "agent.reports.replayed": 17, "agent.reports.dropped": 2,
			"agent.leases.expired": 4, "agent.quarantines": 1, "agent.raws.dropped": 55,
			"agent.groups.overflowed": 66, "agent.baggage.dropped.bytes": 4096,
			"agent.spans.captured": 12345, "agent.spans.dropped": 678,
			"agent.sampled.out": 4321, "agent.sample.rate.milli": 250,
			"agent.reports.retained": 19, "agent.baggage.dropped.groups": 7,
			"agent.baggage.dropped.tuples": 9, "agent.spans.batches": 11,
		}), Age: 1500 * time.Millisecond, Healthy: true},
		{Heartbeat: beatOf(t, "combiners", "combiner-mid-0", 500*time.Millisecond, 2, combiner.MetricNames, map[string]int64{
			"agent.reports": 40, "agent.batches": 8, "agent.rows": 480,
			"combiner.reports.merged": 120, "combiner.frames.out": 8,
		}), Age: 2 * time.Second},
	}}
	want, err := os.ReadFile("testdata/status.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := RenderStatus(s); got != string(want) {
		t.Errorf("RenderStatus =\n%s\nwant\n%s", got, want)
	}
}
