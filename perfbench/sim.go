package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/scenario"
)

// simSpec is one simulator workload: a ptbench scenario at its default
// size, with the totals its fixed-op-count load must reach on any seed.
type simSpec struct {
	scenario string
	requests int64
	procs    int
}

var simSpecs = map[string]simSpec{
	"sim-herd":     {scenario: "herd", requests: 1152 * 880, procs: 2178},
	"sim-limplock": {scenario: "limplock", requests: 20492, procs: 1284},
}

// minScenarioRuns: a run executes the scenario at least this often, so
// every run checks that the same seed reproduces the same report.
const minScenarioRuns = 2

// simIter is one scenario execution.
type simIter struct {
	res       *scenario.Result
	wall      time.Duration
	setup     time.Duration // scenario start → first simulated request done
	win       window
	crossings int64
	agents    agentCounters
	profile   []byte
}

type simResult struct {
	iters             []simIter
	win               window
	rss               float64
	attempted, failed int64
	problems          []string
	profileShares     map[string]float64
	profSamples       int64
}

// runSim executes one simulator workload run: whole scenario executions
// until the run length has passed (at least minScenarioRuns). With traced
// set, the last execution runs under the CPU profiler.
func runSim(name string, seed int64, seconds float64, traced bool) (*simResult, error) {
	spec := simSpecs[name]
	base := scenario.ByID(spec.scenario)
	if base == nil {
		return nil, fmt.Errorf("no scenario %q", spec.scenario)
	}
	h := &scenario.Harness{Seed: seed}
	out := &simResult{}
	start := time.Now()
	u0 := readUsage()
	for len(out.iters) < minScenarioRuns || time.Since(start).Seconds() < seconds {
		profiled := traced && len(out.iters) == minScenarioRuns-1
		it, err := runScenario(h, base, profiled)
		if err != nil {
			return nil, err
		}
		out.iters = append(out.iters, it)
		if profiled {
			break
		}
	}
	out.win = window{u0, readUsage()}
	out.rss = peakRSSMB(out.win.to)

	first := out.iters[0].res
	want, _ := json.Marshal(first)
	for _, it := range out.iters {
		r := it.res
		out.attempted += r.Requests + int64(len(r.Checkpoints))
		out.failed += r.ClientErrors
		for _, cp := range r.Checkpoints {
			if !cp.Passed {
				out.failed++
				out.problems = append(out.problems, fmt.Sprintf("checkpoint %s failed: %s", cp.Name, cp.Detail))
			}
		}
		bad := func(format string, args ...any) {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf(format, args...))
		}
		if r.Err != "" {
			bad("scenario error: %s", r.Err)
		}
		if r.Requests != spec.requests || r.Procs != spec.procs {
			bad("ran %d requests on %d procs, want %d on %d", r.Requests, r.Procs, spec.requests, spec.procs)
		}
		if len(r.Checkpoints) == 0 {
			bad("no checkpoints recorded")
		}
		if got, _ := json.Marshal(r); !bytes.Equal(got, want) {
			bad("same seed, different report:\n%s\n%s", want, got)
		}
	}
	if traced {
		last := out.iters[len(out.iters)-1]
		var err error
		if out.profileShares, out.profSamples, err = cpuShares(last.profile); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runScenario executes the scenario once. The scenario body is wrapped
// only to observe it from outside: the deployed cluster (for its agents'
// counters) and the moment the first simulated request completes.
func runScenario(h *scenario.Harness, base *scenario.Scenario, profiled bool) (simIter, error) {
	var (
		it      simIter
		c       *cluster.Cluster
		started time.Time
		firstAt time.Time
		stop    = make(chan struct{})
		wg      sync.WaitGroup
	)
	s := *base
	s.Run = func(r *scenario.Run) error {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(100 * time.Microsecond)
			defer tick.Stop()
			for r.Requests() == 0 {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
			}
			firstAt = time.Now()
		}()
		err := base.Run(r)
		c = r.C
		return err
	}
	var prof bytes.Buffer
	if profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return it, err
		}
	}
	u0 := readUsage()
	started = time.Now()
	it.res = h.RunScenario(&s)
	it.wall = time.Since(started)
	it.win = window{u0, readUsage()}
	if profiled {
		pprof.StopCPUProfile()
		it.profile = prof.Bytes()
	}
	close(stop)
	wg.Wait()
	if !firstAt.IsZero() {
		it.setup = firstAt.Sub(started)
	}
	if c != nil {
		for _, p := range c.Procs() {
			for _, name := range p.Reg.Names() {
				it.crossings += p.Reg.Lookup(name).Invocations()
			}
			if p.Agent != nil {
				it.agents = it.agents.add(counters(p.Agent.Stats()))
			}
		}
	}
	return it, nil
}
