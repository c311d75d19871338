package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"mcio/internal/collio"
)

func init() { baselineDir = "../baselines" }

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json to the code: the same
// workloads with the same stated reason, and the same metrics with the
// same units and directions.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], the code %s [%s, %s]",
					kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics())
}

// TestReportedMetricsAreDeclared runs a small checkpoint both ways and
// requires each report to carry exactly the declared metrics.
func TestReportedMetricsAreDeclared(t *testing.T) {
	w := workloadDef{name: "small", setup: smallCheckpoint(nil).setup}
	for _, trace := range []bool{false, true} {
		res, err := measure(w, 3, 0.01, trace)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Fatalf("trace=%v: %d of %d operations failed: %v", trace, res.failed, res.attempted, res.errs)
		}
		vals, defs := res.endToEnd(discard{}), endToEndMetrics
		if trace {
			vals, defs = res.layerMetrics(discard{}), perLayerMetrics()
		}
		var names []string
		for _, d := range defs {
			names = append(names, d.name)
			if _, ok := vals[d.name]; !ok {
				t.Errorf("trace=%v: declared metric %s not computed", trace, d.name)
			}
		}
		for k := range vals {
			if !contains(names, k) {
				t.Errorf("trace=%v: computed metric %s not declared", trace, k)
			}
		}
	}
}

// TestPerturbedSimResultFails prices one Figure 6 cell at the baseline
// seed: the exact result passes the gate, and the same result one ulp off
// in simulated time counts as a failed operation.
func TestPerturbedSimResultFails(t *testing.T) {
	g, err := loadGate("BENCH_fig6.json", 42)
	if err != nil {
		t.Fatal(err)
	}
	if !g.active() {
		t.Fatal("gate inactive at the baseline seed")
	}
	p := fig6Platform
	zs := p.draws(42)
	wl := collPerfWorkload()
	reqs, err := wl.Requests()
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := p.context(128, zs, wl.TotalBytes())
	if err != nil {
		t.Fatal(err)
	}
	r := newRep(nil, g, "test")
	pl, err := plan(r, "cell", "memory-conscious", ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := collio.Cost(ctx, pl, reqs, collio.Write, simOptions())
	if err != nil {
		t.Fatal(err)
	}
	const entry = "memory-conscious/write/mem=128"
	r.op(entry, func() error { return r.priced(entry, res, wl.TotalBytes(), sweepMetrics(res)) })
	if r.failed != 0 {
		t.Fatalf("exact result failed the gate: %v", r.errs)
	}
	bad := *res
	bad.Seconds = math.Nextafter(bad.Seconds, math.Inf(1))
	r.op(entry, func() error { return r.priced(entry, &bad, wl.TotalBytes(), sweepMetrics(&bad)) })
	short := *res
	short.UserBytes--
	r.op(entry, func() error { return r.priced(entry, &short, wl.TotalBytes(), sweepMetrics(&short)) })
	if r.ops != 3 || r.failed != 2 {
		t.Fatalf("ops %d, failed %d; want 3 and 2 (%v)", r.ops, r.failed, r.errs)
	}
}

// TestCorruptedReadBackFails flips one read-back byte on a small
// checkpoint: exactly that read counts as failed, on either path.
func TestCorruptedReadBackFails(t *testing.T) {
	for _, traced := range []bool{false, true} {
		flipped := false
		c := smallCheckpoint(func(rank int, buf []byte) {
			if !flipped && rank == 3 {
				buf[7] ^= 0x10
				flipped = true
			}
		})
		s := newRep(nil, &gate{}, "test")
		ops, err := c.setup(9, s)
		if err != nil {
			t.Fatal(err)
		}
		r := newRep(nil, &gate{}, "test")
		if traced {
			r.tr = newTracer()
		}
		ops(r)
		if r.ops != 4 || r.failed != 1 {
			t.Fatalf("traced=%v: ops %d, failed %d; want 4 and 1 (%v)", traced, r.ops, r.failed, r.errs)
		}
	}
}

// TestLayeredPathMatchesPublicAPI: the traced checkpoint path prices
// exactly what WriteAll and ReadAll price.
func TestLayeredPathMatchesPublicAPI(t *testing.T) {
	c := smallCheckpoint(nil)
	s := newRep(nil, &gate{}, "test")
	ops, err := c.setup(5, s)
	if err != nil {
		t.Fatal(err)
	}
	plain, traced := newRep(nil, &gate{}, "test"), newRep(newTracer(), &gate{}, "test")
	ops(plain)
	ops(traced)
	if plain.failed+traced.failed != 0 {
		t.Fatalf("failures: %v %v", plain.errs, traced.errs)
	}
	if !reflect.DeepEqual(plain.mcMBps, traced.mcMBps) || !reflect.DeepEqual(plain.tpMBps, traced.tpMBps) {
		t.Fatalf("simulated bandwidth differs: public %v/%v, layered %v/%v",
			plain.mcMBps, plain.tpMBps, traced.mcMBps, traced.tpMBps)
	}
}

func smallCheckpoint(afterRead func(int, []byte)) checkpoint {
	return checkpoint{ranks: 12, ranksPerNode: 4, targets: 4, block: 4 << 10, segments: 2, collBuf: 8 << 10, afterRead: afterRead}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
