package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		want int64
		ok   bool
	}{
		{0, 0.5, 0, false},
		{19, 0.5, 0, false}, // rank 10, 9 beyond
		{20, 0.5, 10, true}, // rank 10, 10 beyond
		{21, 0.5, 11, true},
		{999, 0.99, 0, false}, // rank 990, 9 beyond
		{1000, 0.99, 990, true},
		{1500, 0.99, 1485, true},
		{11, 0, 1, true}, // the minimum: rank 1, 10 beyond
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) = %d, %v; want %d, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if m := dist(seq(999)).quantile(0.99, 1); m.ok || m.n != 999 {
		t.Errorf("quantile with too few samples = %+v; want missing with n=999", m)
	}
}

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Layer: "request", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Layer: "a", Start: 10, End: 30},
		{Trace: 1, ID: 3, Parent: 1, Layer: "b", Start: 20, End: 40},  // overlaps a
		{Trace: 1, ID: 4, Parent: 1, Layer: "c", Start: 90, End: 120}, // runs past the parent
		{Trace: 1, ID: 5, Parent: 3, Layer: "d", Start: 25, End: 35},
		{Trace: 2, ID: 1, Layer: "request", Start: 0, End: 50}, // same ids, other trace
		{Trace: 2, ID: 2, Parent: 1, Layer: "a", Start: 0, End: 50},
	}
	// request: 100 - [10,40] - [90,100] = 60; b: 20 - 10 = 10.
	want := []int64{60, 20, 10, 30, 10, 0, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s) self = %d, want %d", i, spans[i].Layer, got[i], want[i])
		}
	}
	if by := layerSelf(spans); len(by["a"]) != 2 || by["a"][0]+by["a"][1] != 70 {
		t.Errorf("layerSelf[a] = %v, want self times 20 and 50", by["a"])
	}
}

func TestCompareTallyCountsAPlantedShortfall(t *testing.T) {
	got := map[string]agg{"1": {count: 5, sum: 50}, "2": {count: 3, sum: 9}}
	same := map[string]agg{"1": {count: 5, sum: 50}, "2": {count: 3, sum: 9}}
	if off, keys := compareTally(same, got); off != 0 || keys != 0 {
		t.Fatalf("equal tallies: off=%d keys=%d", off, keys)
	}
	inflated := map[string]agg{"1": {count: 6, sum: 50}, "2": {count: 3, sum: 9}}
	if off, keys := compareTally(inflated, got); off != 1 || keys != 1 {
		t.Errorf("tally inflated by one: off=%d keys=%d, want 1, 1", off, keys)
	}
	sumOnly := map[string]agg{"1": {count: 5, sum: 51}, "2": {count: 3, sum: 9}}
	if off, keys := compareTally(sumOnly, got); off != 1 || keys != 1 {
		t.Errorf("SUM off: off=%d keys=%d, want 1, 1", off, keys)
	}
	extraGroup := map[string]agg{"1": {count: 5, sum: 50}}
	if off, keys := compareTally(extraGroup, got); off != 3 || keys != 1 {
		t.Errorf("group the generator never sent: off=%d keys=%d, want 3, 1", off, keys)
	}

	// failed_frac as a run reports it: requests missing over attempted.
	r := &liveResult{attempted: 11, failed: 1, requests: 10, load: &phase{requests: 10}}
	rep := liveReport("live-fatbag", r)
	if m := rep.info["failed_frac"]; !m.ok || m.value != 1.0/11 {
		t.Errorf("failed_frac = %+v, want 1/11", m)
	}
	var out bytes.Buffer
	rep.print(&out, runMeta{}, false)
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var last struct {
		Correct           bool
		Attempted, Failed int64
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last.Correct || last.Attempted != 11 || last.Failed != 1 {
		t.Errorf("result line = %+v, want incorrect with 1 of 11 failed", last)
	}
}

func TestGroupOfChargesWorkToTheNearestModule(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/simtime.(*Env).Sleep"}, "simtime"},
		{[]string{"runtime.mapiternext", "repro/internal/netsim.(*Network).reshareLocked"}, "netsim"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"internal/runtime/atomic.(*Uint32).Load", "runtime.schedule"}, "runtime"},
		{[]string{"container/heap.up", "container/heap.Push", "repro/internal/simtime.(*timerHeap).push"}, "simtime"},
		{[]string{"syscall.Syscall", "net.(*conn).Write", "repro/internal/bus.(*Link).Send"}, "bus"},
		{[]string{"repro/internal/tracepoint.(*Tracepoint).Here", "repro/internal/cluster.(*Process).Call"}, "tracer"},
		{[]string{"repro/internal/hbase.(*RegionServer).get", "repro/internal/hdfs.(*Client).Read"}, "other"},
		{[]string{"runtime.mallocgc", "main.(*liveRun).generate", "main.main"}, "other"},
		{[]string{"time.Now", "main.(*liveRun).request"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := groupOf(c.stack); got != c.want {
			t.Errorf("groupOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestCPUSharesDecodesARuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatalf("no samples decoded (x=%d)", x)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v, want 1: %v", sum, shares)
	}
	if shares["other"] < 0.5 {
		t.Errorf("a spin loop in package main should be mostly other: %v", shares)
	}
}

// The metric tables the program reports are the ones BENCHMARK.json
// declares, so the two cannot drift apart.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, declared []struct{ Name, Unit string }, program []metricDef) {
		if len(declared) != len(program) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(program))
			return
		}
		for i, d := range declared {
			if d.Name != program[i].name || d.Unit != program[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, d.Name, d.Unit, program[i].name, program[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		_, live := liveSpecs[w.Name]
		_, sim := simSpecs[w.Name]
		if w.Name != workloads[i] || (!live && !sim) {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i])
		}
	}
}
