package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: a tail figure resting on fewer points is noise, so it is
// reported as missing instead of computed.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of the ascending samples
// and whether it may be reported (at least minBeyond samples beyond it).
func percentile(sorted []int64, q float64) (int64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	// The epsilon keeps q·n that is integral in exact arithmetic (0.99 ×
	// 1000) from rounding up past its rank.
	k := int(math.Ceil(q*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if n-k < minBeyond {
		return 0, false
	}
	return sorted[k-1], true
}

// dist is a set of duration samples in nanoseconds.
type dist []int64

func (d dist) sorted() dist {
	s := append(dist(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile reports the q-quantile in the given unit (nanoseconds per unit).
func (d dist) quantile(q, unit float64) metric {
	v, ok := percentile(d.sorted(), q)
	return metric{value: float64(v) / unit, n: len(d), ok: ok}
}

// mean reports the mean in the given unit; it needs at least one sample.
func (d dist) mean(unit float64) metric {
	if len(d) == 0 {
		return metric{}
	}
	var sum float64
	for _, v := range d {
		sum += float64(v)
	}
	return metric{value: sum / float64(len(d)) / unit, n: len(d), ok: true}
}

// median is the middle of a small set of repeated measurements (the
// set-up times of one run), averaging the two middle values of an even
// count.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metric is one reported figure with the number of samples behind it.
// ok=false marks a figure that could not be computed (too few samples, or
// a layer the workload does not exercise).
type metric struct {
	value float64
	n     int
	ok    bool
}

// val is a computed figure resting on n samples.
func val(v float64, n int) metric { return metric{value: v, n: n, ok: true} }

// usage is a snapshot of the process's resource counters.
type usage struct {
	cpu      time.Duration // user + system CPU
	maxRSSKB int64
	alloc    uint64  // cumulative heap bytes allocated
	gcCPU    float64 // runtime's estimate of GC CPU seconds
	allCPU   float64 // runtime's estimate of all CPU seconds
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// readCPU returns the process's user + system CPU time.
func readCPU() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readUsage() usage {
	ru := rusage()
	metrics.Read(usageSamples)
	return usage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSKB: ru.Maxrss,
		alloc:    usageSamples[0].Value.Uint64(),
		gcCPU:    usageSamples[1].Value.Float64(),
		allCPU:   usageSamples[2].Value.Float64(),
	}
}

// window is the resource use between two snapshots, per completed request.
type window struct{ from, to usage }

func (w window) cpuPerRequestUS(requests int64) float64 {
	return float64(w.to.cpu-w.from.cpu) / 1e3 / float64(requests)
}

func (w window) allocPerRequest(requests int64) float64 {
	return float64(w.to.alloc-w.from.alloc) / float64(requests)
}

func (w window) gcCPUFrac() float64 {
	all := w.to.allCPU - w.from.allCPU
	if all <= 0 {
		return 0
	}
	return (w.to.gcCPU - w.from.gcCPU) / all
}

func peakRSSMB(u usage) float64 { return float64(u.maxRSSKB) / 1024 }

// span is one timed call the benchmark made into a layer. Spans of one
// request, flush or install share a Trace id; Parent 0 marks the root.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children count once).
func selfTimes(spans []span) []int64 {
	type key struct {
		trace uint64
		id    int32
	}
	children := make(map[key][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			k := key{s.Trace, s.Parent}
			children[k] = append(children[k], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[key{s.Trace, s.ID}] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, end int64
		end = math.MinInt64
		for _, v := range ivs {
			if v.a > end {
				covered += v.b - v.a
				end = v.b
			} else if v.b > end {
				covered += v.b - end
				end = v.b
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// layerSelf groups self times by layer.
func layerSelf(spans []span) map[string]dist {
	self := selfTimes(spans)
	out := make(map[string]dist)
	for i, s := range spans {
		out[s.Layer] = append(out[s.Layer], self[i])
	}
	return out
}

// agg is one group's COUNT and SUM.
type agg struct{ count, sum int64 }

// compareTally checks the frontend's merged groups against the
// generator's own tally. off counts failed operations: every request a
// group's COUNT is short (or over) by, and one for a group whose SUM
// alone is wrong; keys counts the groups that disagree.
func compareTally(want, got map[string]agg) (off int64, keys int) {
	seen := make(map[string]bool, len(want))
	check := func(k string) {
		if seen[k] {
			return
		}
		seen[k] = true
		w, g := want[k], got[k]
		if w == g {
			return
		}
		keys++
		d := w.count - g.count
		if d < 0 {
			d = -d
		}
		if d == 0 {
			d = 1
		}
		off += d
	}
	for k := range want {
		check(k)
	}
	for k := range got {
		check(k)
	}
	return off, keys
}
