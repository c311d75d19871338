package main

import (
	"fmt"
	"io"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions; the self-test holds the two together.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are what a user of the stack sees, measured untraced.
var endToEndMetrics = []metricDef{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"alloc_bytes", "bytes", "lower"},
	{"allocs", "count", "lower"},
	{"peak_heap_bytes", "bytes", "lower"},
	{"ops", "count", "higher"},
}

// layerSpans are the layer boundaries the benchmark times, with whether
// the layer's self allocation is reported beside its self time.
var layerSpans = []struct {
	span  string
	alloc bool
}{
	{"core.plan", true}, {"twophase.plan", true}, {"collio.validate", true},
	{"collio.shape", true}, {"fastsim.price", true}, {"collio.cost", true},
	{"faults.generate", false}, {"fastsim.faulted_price", true},
	{"collio.exec_write", true}, {"collio.exec_read", true},
	{"obs.export", false},
}

// layerCounts are work counters summed over a traced pass.
var layerCounts = []metricDef{
	{"core.domains", "count", "lower"},
	{"core.groups", "count", "lower"},
	{"core.aggregators", "count", "lower"},
	{"sim.rounds", "count", "lower"},
	{"sim.paged_aggregators", "count", "lower"},
	{"faults.injected_events", "count", "lower"},
	{"collio.failovers", "count", "lower"},
	{"collio.stalls", "count", "lower"},
	{"collio.replayed_rounds", "count", "lower"},
	{"sim.recovery_rounds", "count", "lower"},
	{"sim.recovery_s", "sim_s", "lower"},
	{"pfs.requests", "count", "lower"},
	{"pfs.bytes", "bytes", "lower"},
}

// otherLayerMetrics are the per-layer metrics that are not a span total or
// a pass counter.
var otherLayerMetrics = []metricDef{
	{"workload.requests_s", "s", "lower"},
	{"workload.extents", "count", "lower"},
	{"fastsim.price_us_per_round", "us", "lower"},
	{"collio.cost_us_per_round", "us", "lower"},
	{"host_write_mbps", "MB/s", "higher"},
	{"host_read_mbps", "MB/s", "higher"},
	{"sim_mc_mbps", "MB/s", "higher"},
	{"sim_tp_mbps", "MB/s", "higher"},
	{"sim_improve_pct", "%", "higher"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_s", "s", "lower"},
	{"trace.wall_s", "s", "lower"},
	{"trace.overhead_s", "s", "lower"},
	{"trace.unattributed_s", "s", "lower"},
	{"host.ref_s", "s", "lower"},
}

// perLayerMetrics is every metric of a traced run.
func perLayerMetrics() []metricDef {
	var defs []metricDef
	for _, l := range layerSpans {
		defs = append(defs, metricDef{l.span + "_s", "s", "lower"})
		if l.alloc {
			defs = append(defs, metricDef{l.span + "_alloc_bytes", "bytes", "lower"})
		}
	}
	defs = append(defs, layerCounts...)
	return append(defs, otherLayerMetrics...)
}

// endToEnd computes the untraced metrics: medians over passes and
// set-ups, with host times at the nominal speed (see hostScale).
func (res *result) endToEnd(stdout io.Writer) map[string]float64 {
	walls := res.pick(false, func(s sample) float64 { return s.wall })
	line := fmt.Sprintf("wall_s as measured: median of %d passes %.4f", len(walls), walls)
	if p := tailPercentile(len(walls)); p > 0 {
		line += fmt.Sprintf(", p%g %.4f s", p, percentile(walls, p))
	} else {
		line += " (too few for a tail percentile)"
	}
	fmt.Fprintln(stdout, line)
	fmt.Fprintf(stdout, "setup_s as measured: median of %d set-ups %.4f\n", len(res.setup), res.setup)
	scale := res.hostScale()
	fmt.Fprintf(stdout, "host speed: reference loop median %.5f s over %d samples (nominal %.3f s); wall_s, cpu_s and setup_s are scaled by %.4f\n",
		median(res.ref), len(res.ref), refNominal, scale)
	med := func(f func(sample) float64) float64 { return median(res.pick(false, f)) }
	return map[string]float64{
		"wall_s":          scale * median(walls),
		"cpu_s":           scale * med(func(s sample) float64 { return s.cpu }),
		"setup_s":         scale * median(res.setup),
		"alloc_bytes":     med(func(s sample) float64 { return s.alloc }),
		"allocs":          med(func(s sample) float64 { return s.mallocs }),
		"peak_heap_bytes": med(func(s sample) float64 { return s.peakHeap }),
		"ops":             float64(res.opsPerPass),
	}
}

// layerMetrics computes the traced run's metrics: medians over the traced
// passes, except the host data rates and the tracing overhead, which come
// from the untraced passes of the same process.
func (res *result) layerMetrics(stdout io.Writer) map[string]float64 {
	traced := func(f func(sample) float64) float64 { return median(res.pick(true, f)) }
	plain := func(f func(sample) float64) float64 { return median(res.pick(false, f)) }
	wall := traced(func(s sample) float64 { return s.wall })
	m := map[string]float64{
		"workload.requests_s":  median(res.setupReqs),
		"workload.extents":     res.extents,
		"host_write_mbps":      plain(func(s sample) float64 { return s.writeMBps }),
		"host_read_mbps":       plain(func(s sample) float64 { return s.readMBps }),
		"sim_mc_mbps":          traced(func(s sample) float64 { return s.mc }),
		"sim_tp_mbps":          traced(func(s sample) float64 { return s.tp }),
		"sim_improve_pct":      traced(func(s sample) float64 { return s.improve }),
		"runtime.gc_cycles":    traced(func(s sample) float64 { return s.gcCycles }),
		"runtime.gc_pause_s":   traced(func(s sample) float64 { return s.gcPause }),
		"trace.wall_s":         wall,
		"trace.overhead_s":     wall - plain(func(s sample) float64 { return s.wall }),
		"trace.unattributed_s": traced(func(s sample) float64 { return s.layerSecs["pass"] }),
		"host.ref_s":           median(res.ref),
	}
	for _, c := range layerCounts {
		m[c.name] = traced(func(s sample) float64 { return s.counts[c.name] })
	}
	fmt.Fprintf(stdout, "layer self time as a share of traced wall_s (%.4f s, median of %d traced passes):\n",
		wall, len(res.pick(true, func(sample) float64 { return 0 })))
	for _, l := range layerSpans {
		secs := traced(func(s sample) float64 { return s.layerSecs[l.span] })
		m[l.span+"_s"] = secs
		if l.alloc {
			m[l.span+"_alloc_bytes"] = traced(func(s sample) float64 { return s.layerAlloc[l.span] })
		}
		if secs > 0 {
			fmt.Fprintf(stdout, "  %-24s %6.1f%%\n", l.span, 100*secs/wall)
		}
	}
	fmt.Fprintf(stdout, "  %-24s %6.1f%%  (harness glue between layer calls)\n", "unattributed", 100*m["trace.unattributed_s"]/wall)
	perRound := func(secs, rounds float64) float64 {
		if rounds == 0 {
			return 0
		}
		return secs / rounds * 1e6
	}
	m["fastsim.price_us_per_round"] = perRound(m["fastsim.price_s"], m["sim.rounds"])
	m["collio.cost_us_per_round"] = perRound(m["collio.cost_s"],
		traced(func(s sample) float64 { return s.counts["collio.cost_rounds"] }))
	return m
}

// withUnits pairs each computed value with its declared unit, in the
// declared set only.
func withUnits(defs []metricDef, vals map[string]float64) map[string]metricValue {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		m[d.name] = metricValue{vals[d.name], d.unit}
	}
	return m
}
