// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload for a fixed time, checks the results, and prints every
// metric by name, unit and sample count; the last line of standard output
// is one JSON object with the run's verdict and metrics.
//
//	bash perfbench/run.sh --workload live-join --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 the
// per-layer metrics, from spans around the benchmark's own calls into each
// layer and from a CPU profile. README.md describes the workloads and the
// metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/agent"
	"repro/pivot"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports: what a user of the
// tracer (or of the simulator) sees. Every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"requests_per_s", "1/s"},
	{"cpu_us_per_request", "us"},
	{"alloc_bytes_per_request", "B"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports. A layer a workload does
// not exercise (the TCP bus in a simulation, netsim in a live run) reports
// 0 and is listed as missing in the human-readable lines.
var perLayer = []metricDef{
	{"request_us_p50", "us"},
	{"request_us_p99", "us"},
	{"result_ms_p50", "ms"},
	{"result_ms_p99", "ms"},
	{"install_ms_p50", "ms"},
	{"install.first_result_ms_p50", "ms"},
	{"tracepoint.here_ns", "ns"},
	{"tracepoint.idle_request_us", "us"},
	{"tracepoint.crossings_per_request", "count"},
	{"advice.tuples_per_request", "count"},
	{"baggage.new_request_ns", "ns"},
	{"baggage.inject_ns", "ns"},
	{"baggage.extract_ns", "ns"},
	{"baggage.bytes_per_request", "B"},
	{"agent.baggage_tuples_dropped", "count"},
	{"agent.flush_ms_p50", "ms"},
	{"agent.flush_ms_p99", "ms"},
	{"agent.rows_per_report", "count"},
	{"agent.reports", "count"},
	{"agent.batches", "count"},
	{"agent.reports_dropped", "count"},
	{"bus.deliver_ms_p50", "ms"},
	{"bus.deliver_ms_p99", "ms"},
	{"bus.server_dropped_conns", "count"},
	{"plan.install_call_ms", "ms"},
	{"agent.weave_ms", "ms"},
	{"netsim.flows_per_request", "count"},
	{"netsim.bytes_per_request", "B"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"prof.simtime_frac", "ratio"},
	{"prof.netsim_frac", "ratio"},
	{"prof.cluster_frac", "ratio"},
	{"prof.hdfs_frac", "ratio"},
	{"prof.tracer_frac", "ratio"},
	{"prof.bus_frac", "ratio"},
	{"prof.runtime_frac", "ratio"},
}

// workloads lists the workload names in BENCHMARK.json order.
var workloads = []string{"live-join", "live-fatbag", "sim-herd", "sim-limplock"}

// outDir holds what a run writes besides its standard output: spans and
// CPU profiles of traced runs.
const outDir = ".bench_build/perfbench"

func main() {
	var (
		workload = flag.String("workload", "", "workload name: "+strings.Join(workloads, ", "))
		seed     = flag.Int64("seed", 1, "seed for the workload's inputs")
		seconds  = flag.Float64("seconds", 15, "how long the run measures")
		trace    = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	)
	flag.Parse()
	_, isLive := liveSpecs[*workload]
	_, isSim := simSpecs[*workload]
	if (!isLive && !isSim) || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloads, ", "))
		os.Exit(2)
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root")
		os.Exit(2)
	}
	traced := *trace == 1

	spinBefore := hostSpinMS()
	var rep *report
	var err error
	if isLive {
		var res *liveResult
		if res, err = runLive(*workload, *seed, *seconds, traced); err == nil {
			rep = liveReport(*workload, res)
		}
	} else {
		var res *simResult
		if res, err = runSim(*workload, *seed, *seconds, traced); err == nil {
			rep = simReport(res)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if traced {
		if err := rep.writeTrace(*workload, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	rep.print(os.Stdout, runMeta{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: gitCommit(), Source: sourceDigest(), HostSpinMS: [2]float64{spinBefore, hostSpinMS()},
	}, traced)
}

var spinSink uint64

// hostSpinMS times a fixed single-threaded integer loop. It depends only
// on how fast the host runs the process at that moment, so when it moves
// between runs together with the metrics, the machine moved, not the code.
func hostSpinMS() float64 {
	start := time.Now()
	x := uint64(1)
	for i := 0; i < 50_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink = x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// runMeta is recorded with every result.
type runMeta struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      int            `json:"trace"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Go         string         `json:"go"`
	Commit     string         `json:"commit"`
	Source     string         `json:"source_sha256"`
	HostSpinMS [2]float64     `json:"host_spin_ms"` // before and after the run
	Samples    map[string]int `json:"samples"`
	Notes      []string       `json:"notes,omitempty"`
}

// report is one run's outcome, ready to print.
type report struct {
	attempted, failed int64
	problems          []string
	e2e, layers, info map[string]metric
	infoOrder         []metricDef
	notes             []string
	spans             []span
	profile           []byte
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]metric{}, info: map[string]metric{}}
}

// addInfo records a figure printed for readers but not part of the
// metric set of the run's mode.
func (rep *report) addInfo(name, unit string, m metric) {
	rep.info[name] = m
	rep.infoOrder = append(rep.infoOrder, metricDef{name, unit})
}

func (rep *report) addProfile(shares map[string]float64, samples int64) {
	for _, g := range profGroups {
		if g == "other" {
			continue
		}
		rep.layers["prof."+g+"_frac"] = val(shares[g], int(samples))
	}
	rep.addInfo("prof.other_frac", "ratio", val(shares["other"], int(samples)))
}

// agentCounters are the agent.Stats fields the benchmark reports.
type agentCounters struct {
	tuples, rows, reports, batches, reportsDropped, bagTuplesDropped int64
}

func counters(s agent.Stats) agentCounters {
	return agentCounters{s.TuplesEmitted, s.RowsReported, s.Reports, s.Batches, s.ReportsDropped, s.BaggageTuplesDropped}
}

func agentStatsOf(pt *pivot.PT) agentCounters { return counters(pt.Agent.Stats()) }

func (a agentCounters) add(b agentCounters) agentCounters {
	return agentCounters{a.tuples + b.tuples, a.rows + b.rows, a.reports + b.reports, a.batches + b.batches,
		a.reportsDropped + b.reportsDropped, a.bagTuplesDropped + b.bagTuplesDropped}
}

func (a agentCounters) sub(b agentCounters) agentCounters {
	return a.add(agentCounters{-b.tuples, -b.rows, -b.reports, -b.batches, -b.reportsDropped, -b.bagTuplesDropped})
}

// setAgent fills the agent per-layer metrics from counters over a run.
func (rep *report) setAgent(a agentCounters, requests int64) {
	rep.layers["advice.tuples_per_request"] = val(float64(a.tuples)/float64(requests), int(requests))
	if a.reports > 0 {
		rep.layers["agent.rows_per_report"] = val(float64(a.rows)/float64(a.reports), int(a.reports))
	}
	rep.layers["agent.reports"] = val(float64(a.reports), 1)
	rep.layers["agent.batches"] = val(float64(a.batches), 1)
	rep.layers["agent.reports_dropped"] = val(float64(a.reportsDropped), 1)
	rep.layers["agent.baggage_tuples_dropped"] = val(float64(a.bagTuplesDropped), 1)
}

func liveReport(workload string, res *liveResult) *report {
	rep := newReport()
	rep.attempted, rep.failed = res.attempted, res.failed
	if res.tallyKeysOff > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d result groups differ from the generator's tally", res.tallyKeysOff))
	}
	if res.failed > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d operations failed (missing requests + installs never woven)", res.failed))
	}
	rep.e2e["setup_s"] = val(median(res.setup), len(res.setup))
	load := res.load
	rep.e2e["requests_per_s"] = val(load.medianRPS(), len(load.rps))
	rep.e2e["cpu_us_per_request"] = val(load.medianCPUUS(), len(load.cpuUS))
	rep.e2e["alloc_bytes_per_request"] = val(load.win.allocPerRequest(load.requests), int(load.requests))
	rep.e2e["peak_rss_mb"] = val(res.rss, 1)
	rep.notes = append(rep.notes,
		"setup_s: median over the run's deployments of bus server + runtimes + connect + install + weave, until the first request can be sent",
		"load: closed loop, one generator goroutine, 2s unmeasured warm-up; the operator flushes every 10ms",
		"requests_per_s and cpu_us_per_request: medians over 1s windows (n = windows)")

	rep.addInfo("failed_frac", "ratio", val(float64(res.failed)/float64(res.attempted), int(res.attempted)))
	rep.addInfo("request_us_p50", "us", res.latencies.quantile(0.5, 1e3))
	rep.addInfo("request_us_p99", "us", res.latencies.quantile(0.99, 1e3))
	rep.addInfo("result_ms_p50", "ms", res.resultNS.quantile(0.5, 1e6))
	if liveSpecs[workload].churn {
		rep.addInfo("install_ms_p50", "ms", res.installNS.quantile(0.5, 1e6))
	}

	l := rep.layers
	l["request_us_p50"] = res.latencies.quantile(0.5, 1e3)
	l["request_us_p99"] = res.latencies.quantile(0.99, 1e3)
	l["result_ms_p50"] = res.resultNS.quantile(0.5, 1e6)
	l["result_ms_p99"] = res.resultNS.quantile(0.99, 1e6)
	l["install_ms_p50"] = res.installNS.quantile(0.5, 1e6)
	l["install.first_result_ms_p50"] = res.firstNS.quantile(0.5, 1e6)
	l["tracepoint.idle_request_us"] = res.idleNS.quantile(0.5, 1e3)
	l["tracepoint.crossings_per_request"] = val(float64(res.crossings)/float64(res.measured), int(res.measured))
	l["baggage.bytes_per_request"] = val(float64(res.bagBytes)/float64(res.measured), int(res.measured))
	l["agent.flush_ms_p50"] = res.flushNS.quantile(0.5, 1e6)
	l["agent.flush_ms_p99"] = res.flushNS.quantile(0.99, 1e6)
	l["bus.deliver_ms_p50"] = res.deliverNS.quantile(0.5, 1e6)
	l["bus.deliver_ms_p99"] = res.deliverNS.quantile(0.99, 1e6)
	l["bus.server_dropped_conns"] = val(float64(res.serverDropped), 1)
	l["plan.install_call_ms"] = res.installCallNS.mean(1e6)
	l["agent.weave_ms"] = res.weaveNS.mean(1e6)
	rep.setAgent(res.agentStats, res.requests)
	for _, name := range []string{"agent.reports_dropped", "bus.server_dropped_conns", "agent.baggage_tuples_dropped"} {
		rep.addInfo(name, "count", l[name])
	}

	if res.traced {
		self := layerSelf(res.spans)
		l["tracepoint.here_ns"] = self["tracepoint.here"].quantile(0.5, 1)
		l["baggage.new_request_ns"] = self["baggage.new_request"].quantile(0.5, 1)
		l["baggage.inject_ns"] = self["baggage.inject"].quantile(0.5, 1)
		l["baggage.extract_ns"] = self["baggage.extract"].quantile(0.5, 1)
		tracedRPS := median(load.tracedRPS)
		l["runtime.gc_cpu_frac"] = val(load.win.gcCPUFrac(), 1)
		l["trace.overhead_frac"] = val(1-tracedRPS/load.medianRPS(), len(load.tracedRPS)+len(load.rps))
		rep.addInfo("requests_per_s_spans_off", "1/s", val(load.medianRPS(), len(load.rps)))
		rep.addInfo("requests_per_s_spans_on", "1/s", val(tracedRPS, len(load.tracedRPS)))
		layers := make([]string, 0, len(self))
		for k := range self {
			layers = append(layers, k)
		}
		sort.Strings(layers)
		for _, k := range layers {
			rep.addInfo("self_us."+k, "us", self[k].mean(1e3))
		}
		rep.addProfile(res.profileShares, res.profSamples)
		rep.spans, rep.profile = res.spans, res.profile
		rep.notes = append(rep.notes, fmt.Sprintf("traced run: CPU profile throughout; 1s windows alternate spans off / spans on (1 request in %d); trace.overhead_frac compares their median requests_per_s; latency percentiles come from spans-off windows; per-call layer times are median span self times, self_us.* lines are means", spanEvery))
	}
	return rep
}

func simReport(res *simResult) *report {
	rep := newReport()
	rep.attempted, rep.failed, rep.problems = res.attempted, res.failed, res.problems
	var requests int64
	var wall float64
	var setup []float64
	for _, it := range res.iters {
		requests += it.res.Requests
		wall += it.wall.Seconds()
		setup = append(setup, it.setup.Seconds())
	}
	rep.e2e["setup_s"] = val(median(setup), len(setup))
	rep.e2e["requests_per_s"] = val(float64(requests)/wall, int(requests))
	rep.e2e["cpu_us_per_request"] = val(res.win.cpuPerRequestUS(requests), int(requests))
	rep.e2e["alloc_bytes_per_request"] = val(res.win.allocPerRequest(requests), int(requests))
	rep.e2e["peak_rss_mb"] = val(res.rss, 1)
	rep.addInfo("failed_frac", "ratio", val(float64(res.failed)/float64(res.attempted), int(res.attempted)))
	rep.addInfo("scenario_runs", "count", val(float64(len(res.iters)), 1))
	rep.addInfo("simtime.virtual_s", "s", val(float64(res.iters[0].res.VirtualMS)/1e3, 1))
	rep.notes = append(rep.notes,
		"setup_s: median over the run's scenario executions of scenario start -> first simulated request done (deploy, namespace seeding, query install); it is also inside the wall time of requests_per_s",
		"requests_per_s: simulated requests per wall second over whole scenario executions, deploy included",
		"every execution uses the run's seed; all must produce the same deterministic report")

	last := res.iters[len(res.iters)-1]
	r := last.res
	l := rep.layers
	l["tracepoint.crossings_per_request"] = val(float64(last.crossings)/float64(r.Requests), int(r.Requests))
	l["netsim.flows_per_request"] = val(float64(r.Flows)/float64(r.Requests), int(r.Requests))
	l["netsim.bytes_per_request"] = val(float64(r.NetBytes)/float64(r.Requests), int(r.Requests))
	l["runtime.gc_cpu_frac"] = val(last.win.gcCPUFrac(), 1)
	rps := func(it simIter) float64 { return float64(it.res.Requests) / it.wall.Seconds() }
	l["trace.overhead_frac"] = val(1-rps(last)/rps(res.iters[0]), 2)
	rep.setAgent(last.agents, r.Requests)
	if res.profileShares != nil {
		rep.addProfile(res.profileShares, res.profSamples)
		rep.profile = last.profile
		rep.notes = append(rep.notes, "traced run: the last scenario execution runs under the CPU profiler; trace.overhead_frac compares it with the first")
	}
	return rep
}

// writeTrace writes a traced run's spans (with self times) and CPU
// profile under outDir.
func (rep *report) writeTrace(workload string, seed int64) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", workload, seed))
	if err := os.WriteFile(stem+".cpu.pprof", rep.profile, 0o644); err != nil {
		return err
	}
	rep.notes = append(rep.notes, "cpu profile: "+stem+".cpu.pprof")
	if len(rep.spans) == 0 {
		return nil
	}
	f, err := os.Create(stem + ".spans.jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(rep.spans)
	for i, s := range rep.spans {
		if err := enc.Encode(struct {
			span
			Self int64 `json:"self_ns"`
		}{s, self[i]}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rep.notes = append(rep.notes, "spans: "+stem+".spans.jsonl")
	return nil
}

// print writes the human-readable lines, then the result object as the
// last line.
func (rep *report) print(w io.Writer, meta runMeta, traced bool) {
	defs, vals := endToEnd, rep.e2e
	if traced {
		defs, vals = perLayer, rep.layers
	}
	meta.Samples = map[string]int{}
	metrics := make(map[string]any, len(defs))
	var missing []string
	for _, d := range defs {
		m := vals[d.name]
		meta.Samples[d.name] = m.n
		v := m.value
		if !m.ok {
			v = 0
			missing = append(missing, d.name)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	meta.Notes = rep.notes
	if len(missing) > 0 {
		meta.Notes = append(meta.Notes, "missing (not exercised by this workload, or too few samples; reported as 0): "+strings.Join(missing, ", "))
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%d\n", meta.Workload, meta.Seed, meta.Seconds, meta.Trace)
	row := func(d metricDef, m metric) {
		if m.ok {
			fmt.Fprintf(w, "  %-36s %14.6g %-6s n=%d\n", d.name, m.value, d.unit, m.n)
		} else {
			fmt.Fprintf(w, "  %-36s %14s %-6s n=%d\n", d.name, "missing", d.unit, m.n)
		}
	}
	for _, d := range defs {
		row(d, vals[d.name])
	}
	for _, d := range rep.infoOrder {
		if _, dup := vals[d.name]; !dup {
			row(d, rep.info[d.name])
		}
	}
	for _, p := range rep.problems {
		fmt.Fprintln(w, "  FAILED:", p)
	}
	metaJSON, _ := json.Marshal(meta)
	fmt.Fprintf(w, "meta %s\n", metaJSON)
	out, _ := json.Marshal(map[string]any{
		"correct":   rep.failed == 0 && len(rep.problems) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	fmt.Fprintf(w, "%s\n", out)
}

// gitCommit returns the checked-out commit when the working directory is
// a git repository, else "none" (benchmark checkouts are plain trees; the
// source digest identifies them).
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "none"
}

// sourceDigest hashes the Go sources and module files of the tree, so a
// result names the code it measured even outside git.
func sourceDigest() string {
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
