// Command perfbench is the repository benchmark: it runs one named
// workload against the collective I/O stack for a fixed time, checks every
// output, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) by name and unit. The last line of its output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . -workload exa-clean -seed 42 -seconds 25 -trace 0
//
// It runs from the repository root, where the committed ledgers under
// baselines/ gate every simulated result at the ledgers' own seed.
// run.sh, the benchmark's command, also sets GODEBUG=gcstoptheworld=1 so
// the collector fires at the same allocations on every run of a seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"mcio/internal/bench"
	"mcio/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fl.Uint64("seed", 42, "input seed (42 reproduces the committed baselines)")
	seconds := fl.Float64("seconds", 10, "measurement time, set-up excluded")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %s, -trace 0|1 and -seconds > 0\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := measure(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if *trace == 1 {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		if err := res.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	}
	return res.report(stdout, w, *seed, *trace == 1)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// sample is one pass's host-side cost.
type sample struct {
	traced                   bool
	wall, cpu                float64
	alloc, mallocs, peakHeap float64
	gcCycles, gcPause        float64
	layerSecs, layerAlloc    map[string]float64
	counts                   map[string]float64
	mc, tp, improve          float64
	writeMBps, readMBps      float64
}

type result struct {
	gate       *gate
	tr         *tracer
	setup      []float64
	setupReqs  []float64
	ref        []float64 // reference loop times, for hostScale
	extents    float64
	passes     []sample
	opsPerPass int
	attempted  int
	failed     int
	errs       []string
}

// Set-up runs at least minSetups times and, while it stays under
// setupBudget seconds in total, up to maxSetups times; setup_s is the
// median.
const (
	minSetups   = 7
	maxSetups   = 31
	setupBudget = 1.5
)

// measure builds the workload's inputs several times, then runs passes
// over its operation set while another pass, at the median pass time so
// far, still fits in the time budget. There is always at least one pass,
// so a workload whose pass is longer than the budget runs exactly one. A
// traced run alternates untraced and traced passes, at least one of each,
// so the tracing overhead is measured in the same process.
func measure(w workloadDef, seed uint64, seconds float64, trace bool) (*result, error) {
	// Operations run one at a time, so a layer's allocation delta is its
	// own. One P runs both them and the collector: on a host of a few
	// shared vCPUs a second P only adds stop-the-world waits on a vCPU the
	// host may be running something else on, and the other CPUs stay free
	// for the host's own work.
	runtime.GOMAXPROCS(1)
	bench.SetParallelism(1)

	g, err := loadGate(w.baseline, seed)
	if err != nil {
		return nil, err
	}
	res := &result{gate: g, tr: newTracer(), ref: sampleReference(10)}
	var ops func(*rep)
	for total := 0.0; len(res.setup) < minSetups || (len(res.setup) < maxSetups && total < setupBudget); {
		ops = nil
		runtime.GC()
		s := newRep(nil, g, w.name)
		root := -1
		if trace {
			s.tr = res.tr
			root = s.tr.begin("setup", "")
		}
		t := time.Now()
		ops, err = w.setup(seed, s)
		res.setup = append(res.setup, since(t))
		total += since(t)
		if trace {
			s.tr.end(root)
			secs, _ := s.tr.layerTotals(root)
			res.setupReqs = append(res.setupReqs, secs["workload.requests"])
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.extents = s.counts["workload.extents"]
	}

	start := time.Now()
	for i := 0; ; i++ {
		if i > 0 {
			res.ref = append(res.ref, sampleReference(1)...)
		}
		traced := trace && i%2 == 1
		var tr *tracer
		if traced {
			tr = res.tr
		}
		r := newRep(tr, g, w.name)
		smp := pass(r, ops)
		smp.traced = traced
		res.passes = append(res.passes, smp)
		res.opsPerPass = r.ops
		res.attempted += r.ops
		res.failed += r.failed
		res.errs = append(res.errs, r.errs...)
		if first := res.passes[0]; smp.mc != first.mc || smp.tp != first.tp {
			return nil, fmt.Errorf("simulated bandwidth changed between passes over the same inputs")
		}
		next := median(res.pick(trace && i%2 == 0, func(s sample) float64 { return s.wall }))
		if (!trace || i >= 1) && since(start)+next > seconds {
			break
		}
	}
	res.ref = append(res.ref, sampleReference(10)...)
	return res, nil
}

// pass runs the operation set once from a collected heap and measures it.
func pass(r *rep, ops func(*rep)) sample {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	stopPeak := samplePeakHeap()
	root := -1
	if r.tr != nil {
		root = r.tr.begin("pass", "")
	}
	t := time.Now()
	ops(r)
	r.export()
	wall := since(t)
	if r.tr != nil {
		r.tr.end(root)
	}
	peak := stopPeak()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	s := sample{
		wall: wall, cpu: cpu,
		alloc:    float64(after.TotalAlloc - before.TotalAlloc),
		mallocs:  float64(after.Mallocs - before.Mallocs),
		peakHeap: peak,
		gcCycles: float64(after.NumGC - before.NumGC),
		gcPause:  float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9,
		counts:   r.counts,
	}
	s.mc, s.tp, s.improve = r.simMetrics()
	if r.writeSecs > 0 {
		s.writeMBps = r.writeBytes / r.writeSecs / 1e6
	}
	if r.readSecs > 0 {
		s.readMBps = r.readBytes / r.readSecs / 1e6
	}
	if r.tr != nil {
		s.layerSecs, s.layerAlloc = r.tr.layerTotals(root)
	}
	return s
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// samplePeakHeap polls the heap's object bytes every millisecond until
// the returned stop function is called; stop returns the high-water mark.
func samplePeakHeap() (stop func() float64) {
	const name = "/memory/classes/heap/objects:bytes"
	read := func() float64 {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		return float64(s[0].Value.Uint64())
	}
	var (
		wg   sync.WaitGroup
		peak = read()
		done = make(chan struct{})
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				peak = max(peak, read())
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		return max(peak, read())
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile is the highest of p90, p99, p99.9 that has at least ten
// samples beyond it, or 0 when n is too small for any.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{90, 99, 99.9} {
		if float64(n)*(1-p/100) >= 10 {
			best = p
		}
	}
	return best
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*p/100+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fingerprint identifies the host and build a result came from; host
// times compare only between equal fingerprints.
type fingerprint struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source"`
}

func (res *result) report(stdout io.Writer, w workloadDef, seed uint64, trace bool) int {
	fp := hostFingerprint()
	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "workload: %s (seed %d) — %s\n", w.name, seed, w.why)
	fmt.Fprintf(stdout, "fingerprint: %s\n", fpJSON)
	for i, e := range res.errs {
		if i == 10 {
			fmt.Fprintf(stdout, "failed: ... %d more\n", len(res.errs)-10)
			break
		}
		fmt.Fprintf(stdout, "failed: %s\n", e)
	}
	var m map[string]metricValue
	if trace {
		m = withUnits(perLayerMetrics(), res.layerMetrics(stdout))
	} else {
		m = withUnits(endToEndMetrics, res.endToEnd(stdout))
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "  %-34s %16.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	gateState := "off"
	if res.gate.active() {
		gateState = "on (" + w.baseline + ")"
	}
	fmt.Fprintf(stdout, "ops attempted %d, failed %d, baseline gate %s\n", res.attempted, res.failed, gateState)
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, m})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// pick returns one quantity of the untraced (or traced) passes.
func (res *result) pick(traced bool, f func(sample) float64) []float64 {
	var xs []float64
	for _, p := range res.passes {
		if p.traced == traced {
			xs = append(xs, f(p))
		}
	}
	return xs
}

func hostFingerprint() fingerprint {
	h := obs.CaptureHost()
	return fingerprint{
		GOMAXPROCS: h.GOMAXPROCS, NumCPU: h.NumCPU, Workers: bench.Parallelism(),
		GoVersion: h.GoVersion, Commit: h.GitCommit, Source: sourceHash("."),
	}
}
