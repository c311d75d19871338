package bench

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mcio/internal/collio"
)

// testScale keeps package tests fast; shapes are scale-invariant.
const testScale = 256

func TestConfigValidate(t *testing.T) {
	good := Fig7Config(testScale, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Ranks = 0 },
		func(c *Config) { c.RanksPerNode = 0 },
		func(c *Config) { c.Targets = 0 },
		func(c *Config) { c.Scale = 0 },
		func(c *Config) { c.SigmaMB = -1 },
		func(c *Config) { c.MemMB = nil },
		func(c *Config) { c.MemMB = []int{0} },
	}
	for i, mut := range mutations {
		cfg := Fig7Config(testScale, 1)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestScaledClamps(t *testing.T) {
	c := Config{Scale: 1000}
	if c.scaled(500) != 1 {
		t.Fatal("scaled must clamp at 1")
	}
	if c.scaled(2000) != 2 {
		t.Fatal("scaled arithmetic")
	}
}

func TestFig7ShapeMatchesPaper(t *testing.T) {
	s, err := Fig7(testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != len(paperSweepMB())*4 {
		t.Fatalf("points = %d", len(s.Points))
	}
	// Headline: memory-conscious beats two-phase on average for both ops.
	if imp := s.Improvement("write"); imp <= 0.2 {
		t.Errorf("write improvement = %+.1f%%, expected clearly positive", imp*100)
	}
	if imp := s.Improvement("read"); imp <= 0.2 {
		t.Errorf("read improvement = %+.1f%%, expected clearly positive", imp*100)
	}
	// Both strategies degrade as aggregator memory shrinks (paper's
	// overall trend): the 2 MB point is well below the 128 MB point.
	for _, strategy := range []string{"two-phase", "memory-conscious"} {
		lo := s.find(2, strategy, "write").MBps
		hi := s.find(128, strategy, "write").MBps
		if lo >= hi {
			t.Errorf("%s write does not degrade under memory pressure: 2MB=%.0f 128MB=%.0f",
				strategy, lo, hi)
		}
	}
	// Reads stream faster than writes for the same plan.
	for _, p := range s.Points {
		if p.Op != "write" {
			continue
		}
		r := s.find(p.MemMB, p.Strategy, "read")
		if r.MBps < p.MBps {
			t.Errorf("%s at %d MB: read %.0f slower than write %.0f",
				p.Strategy, p.MemMB, r.MBps, p.MBps)
		}
	}
}

func TestFig6Runs(t *testing.T) {
	s, err := Fig6(testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	if imp := s.Improvement("write"); imp <= 0 {
		t.Errorf("fig6 write improvement = %+.1f%%, want positive", imp*100)
	}
	if imp := s.Improvement("read"); imp <= 0 {
		t.Errorf("fig6 read improvement = %+.1f%%, want positive", imp*100)
	}
}

func TestFig8Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("1080-rank sweep")
	}
	s, err := Fig8(testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	if imp := s.Improvement("write"); imp <= 0 {
		t.Errorf("fig8 write improvement = %+.1f%%, want positive", imp*100)
	}
	// The paper's Figure 8 baseline declines steeply from 128 MB to 2 MB.
	base2 := s.find(2, "two-phase", "write").MBps
	base128 := s.find(128, "two-phase", "write").MBps
	if base128/base2 < 1.5 {
		t.Errorf("fig8 baseline decline = %.2fx, expected > 1.5x", base128/base2)
	}
}

func TestSweepDeterministic(t *testing.T) {
	a, err := Fig7(testScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig7(testScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i].MBps != b.Points[i].MBps {
			t.Fatalf("point %d differs across identical runs", i)
		}
	}
}

func TestSeedChangesDraws(t *testing.T) {
	a, err := Fig7(testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig7(testScale, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Points {
		if a.Points[i].MBps != b.Points[i].MBps {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical sweeps")
	}
}

func TestRender(t *testing.T) {
	s, err := Fig7(testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	out := Render(s)
	for _, want := range []string{"fig7", "2 MB", "128 MB", "average improvement"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q", want)
		}
	}
	det := RenderDetails(s)
	for _, want := range []string{"two-phase", "memory-conscious", "bufCV"} {
		if !strings.Contains(det, want) {
			t.Errorf("RenderDetails missing %q", want)
		}
	}
}

func TestImprovementEmpty(t *testing.T) {
	s := &Series{Config: Config{MemMB: []int{1}}}
	if s.Improvement("write") != 0 {
		t.Fatal("empty series improvement should be 0")
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweeps")
	}
	type ab struct {
		name string
		run  func(int64, uint64) (*Table, error)
	}
	for _, a := range []ab{
		{"grouping", AblationGrouping},
		{"nah", AblationNah},
		{"sigma", AblationSigma},
		{"overlap", AblationOverlap},
		{"aggs-per-node", AblationAggsPerNode},
	} {
		tbl, err := a.run(testScale, 42)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table", a.name)
		}
		if out := tbl.Render(); !strings.Contains(out, "ablation") {
			t.Errorf("%s: render missing title", a.name)
		}
	}
}

func TestAblationSigmaTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep")
	}
	// The memory-conscious advantage must grow with availability variance:
	// at sigma 0 the strategies face identical uniform memory; at sigma
	// 100 the baseline's oblivious placement pays heavily.
	tbl, err := AblationSigma(testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	parse := func(s string) float64 {
		var v float64
		if _, err := fmtSscanfPercent(s, &v); err != nil {
			t.Fatalf("bad improvement cell %q", s)
		}
		return v
	}
	first := parse(tbl.Rows[0][3])
	last := parse(tbl.Rows[len(tbl.Rows)-1][3])
	if last <= first {
		t.Errorf("improvement should grow with sigma: %v -> %v", first, last)
	}
}

// fmtSscanfPercent parses "+12.3%" into a float64.
func fmtSscanfPercent(s string, v *float64) (int, error) {
	return fmt.Sscanf(strings.TrimSuffix(s, "%"), "%f", v)
}

func TestMotivation(t *testing.T) {
	tbl, err := Motivation(testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// At the finest granularity, collective I/O must beat independent.
	var indep, mc float64
	fmt.Sscanf(tbl.Rows[0][1], "%f", &indep)
	fmt.Sscanf(tbl.Rows[0][3], "%f", &mc)
	if mc <= indep {
		t.Fatalf("collective (%v) not faster than independent (%v) at fine granularity", mc, indep)
	}
}

func TestScalingSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-size sweep")
	}
	tbl, err := ScalingSweep(testScale, 42, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Weak scaling: aggregate bandwidth grows with process count for both
	// strategies, and memory-conscious wins at every size.
	var prevBase float64
	for i, row := range tbl.Rows {
		var base, mc float64
		fmt.Sscanf(row[2], "%f", &base)
		fmt.Sscanf(row[3], "%f", &mc)
		if mc <= base {
			t.Errorf("row %d: mc %v not faster than base %v", i, mc, base)
		}
		if base < prevBase {
			t.Errorf("row %d: baseline did not scale (%v < %v)", i, base, prevBase)
		}
		prevBase = base
	}
	// Defaulted memory argument.
	if _, err := ScalingSweep(testScale, 42, 0); err != nil {
		t.Fatal(err)
	}
}

func TestTuneWorkload(t *testing.T) {
	cfg := Fig7Config(testScale, 42)
	cfg.MemMB = []int{16}
	wl, _ := Fig7Workload(cfg)
	res, err := TuneWorkload(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations == 0 || res.Best.Bandwidth <= 0 {
		t.Fatalf("degenerate tune: %+v", res.Best)
	}
	bad := cfg
	bad.Scale = 0
	if _, err := TuneWorkload(bad, wl); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestStrategyComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("three-strategy sweep")
	}
	tbl, err := StrategyComparison(testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(paperSweepMB()) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Memory-conscious must win the comparison at the scarce end.
	var base, la, mc float64
	fmt.Sscanf(tbl.Rows[0][1], "%f", &base)
	fmt.Sscanf(tbl.Rows[0][2], "%f", &la)
	fmt.Sscanf(tbl.Rows[0][3], "%f", &mc)
	if mc <= base || mc <= la {
		t.Fatalf("memory-conscious (%v) should beat two-phase (%v) and layout-aware (%v)", mc, base, la)
	}
}

func TestTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("five design points")
	}
	tbl, err := Trajectory(testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Memory-conscious wins at every design point along the trajectory.
	for i, row := range tbl.Rows {
		var base, mc float64
		fmt.Sscanf(row[2], "%f", &base)
		fmt.Sscanf(row[3], "%f", &mc)
		if mc <= base {
			t.Errorf("row %d: mc %v <= base %v", i, mc, base)
		}
	}
}

func TestSeriesJSONExport(t *testing.T) {
	s, err := Fig7(testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"name": "fig7-ior-120"`, `"mem_mb": 2`, `"write_improvement"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %s", want)
		}
	}
	tbl := &Table{Name: "t", Header: []string{"a"}, Rows: [][]string{{"1"}}}
	buf.Reset()
	if err := tbl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"rows"`) {
		t.Fatal("table JSON missing rows")
	}
}

func TestRoundTraceRenders(t *testing.T) {
	out, err := RoundTrace(testScale, 42, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"round trace", "two-phase", "memory-conscious", "round "} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q", want)
		}
	}
}

func TestRandomVsInterleaved(t *testing.T) {
	if testing.Short() {
		t.Skip("two sweeps")
	}
	tbl, err := RandomVsInterleaved(testScale, 42, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for i, row := range tbl.Rows {
		var base, mc float64
		fmt.Sscanf(row[1], "%f", &base)
		fmt.Sscanf(row[2], "%f", &mc)
		if mc <= base {
			t.Errorf("row %d (%s): mc %v <= base %v", i, row[0], mc, base)
		}
	}
	if _, err := RandomVsInterleaved(testScale, 42, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPlansAt(t *testing.T) {
	cfg := Fig7Config(testScale, 42)
	plans, topo, err := PlansAt(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("plans = %d", len(plans))
	}
	if topo.Size() != cfg.Ranks {
		t.Fatalf("topology size = %d", topo.Size())
	}
	for _, p := range plans {
		if len(p.Domains) == 0 {
			t.Fatalf("plan %s has no domains", p.Strategy)
		}
		if out := p.Describe(topo); !strings.Contains(out, "domain 0") {
			t.Fatalf("describe output broken for %s", p.Strategy)
		}
	}
	bad := cfg
	bad.Ranks = 0
	if _, _, err := PlansAt(bad, 8); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestFigExaEnginesMatchSmall shrinks the fig-exa configuration to a
// byte-path-feasible size and cross-checks that both engines price every
// cell of the sweep identically — the fast path's exactness contract on
// the exascale experiment's own workload shape.
func TestFigExaEnginesMatchSmall(t *testing.T) {
	cfg, wl, name := figExaSmall()
	fast, err := RunSweep(cfg, wl, name)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = EngineBytes
	bytes, err := RunSweep(cfg, wl, name)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.Points) != len(bytes.Points) || len(fast.Points) == 0 {
		t.Fatalf("point counts diverge: fast %d, bytes %d", len(fast.Points), len(bytes.Points))
	}
	for i := range fast.Points {
		f, b := fast.Points[i], bytes.Points[i]
		if !reflect.DeepEqual(f.Result, b.Result) {
			t.Fatalf("cell %s/%s/mem=%d: engines diverge", f.Strategy, f.Op, f.MemMB)
		}
	}
}

// figExaSmall is the fig-exa sweep shrunk to a byte-path-feasible
// size: 600 ranks on 100 nodes, 16 targets, at testScale.
func figExaSmall() (Config, Workload, string) {
	cfg := FigExaConfig(testScale, 42)
	cfg.Ranks = 600
	cfg.RanksPerNode = 6
	cfg.Targets = 16
	wl, name := FigExaWorkload(cfg)
	return cfg, wl, name
}

// TestFigExaPaperClaimsSmall pins the exascale extrapolation's claims on
// the reduced fig-exa sweep, as TestFig7ShapeMatchesPaper pins Figure
// 7's: at every memory point the two-phase baseline pages a large share
// of its nodes (about half), the memory-conscious strategy pages at most
// one, and memory-conscious is faster in every (memory, op) cell.
func TestFigExaPaperClaimsSmall(t *testing.T) {
	cfg, wl, name := figExaSmall()
	s, err := RunSweep(cfg, wl, name)
	if err != nil {
		t.Fatal(err)
	}
	nodes := cfg.Ranks / cfg.RanksPerNode
	for _, memMB := range cfg.MemMB {
		for _, op := range []string{"write", "read"} {
			tp := s.find(memMB, "two-phase", op)
			mc := s.find(memMB, "memory-conscious", op)
			if tp == nil || mc == nil {
				t.Fatalf("mem=%d %s: sweep cell missing", memMB, op)
			}
			if frac := float64(tp.Result.PagedAggregators) / float64(nodes); frac < 0.3 || frac > 0.7 {
				t.Errorf("mem=%d %s: two-phase pages %d of %d nodes (%.2f), want a fraction in [0.3, 0.7]",
					memMB, op, tp.Result.PagedAggregators, nodes, frac)
			}
			if mc.Result.PagedAggregators > 1 {
				t.Errorf("mem=%d %s: memory-conscious pages %d aggregators, want at most 1",
					memMB, op, mc.Result.PagedAggregators)
			}
			if mc.MBps <= tp.MBps {
				t.Errorf("mem=%d %s: memory-conscious %.1f MB/s is not above two-phase %.1f MB/s",
					memMB, op, mc.MBps, tp.MBps)
			}
		}
	}
}

// TestEnginesMatchAllFigures cross-checks the two pricing engines on
// every cell of every figure sweep: each registry figure priced on every
// engine its entry declares must agree bit for bit — seconds, totals,
// blame traces, everything in the CostResult. This is the CI
// cross-check gate; it runs the sweeps through runFigure with the
// engine set the way Ledger sets it, so the `mcio bench -engine` path
// is what is being proven.
func TestEnginesMatchAllFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("three full figure sweeps, twice each")
	}
	if _, err := Ledger("fig6", testScale, 42, "warp"); err == nil {
		t.Fatal("Ledger accepted an unknown engine")
	}
	figures := ObserveCmd.Entries()
	if len(figures) != 3 {
		t.Fatalf("registry declares %d figures, want fig6, fig7 and fig8", len(figures))
	}
	for _, fig := range figures {
		if !reflect.DeepEqual(fig.Engines, Engines) {
			t.Fatalf("%s declares engines %v, want every engine %v", fig.Name, fig.Engines, Engines)
		}
		byEngine := map[string]*Series{}
		for _, eng := range fig.Engines {
			s, err := runFigure(fig.Figure, Args{Scale: testScale, Seed: 42, Engine: eng})
			if err != nil {
				t.Fatalf("%s/%s: %v", fig.Name, eng, err)
			}
			byEngine[eng] = s
		}
		fast, bytes := byEngine[EngineFast], byEngine[EngineBytes]
		if len(fast.Points) != len(bytes.Points) || len(fast.Points) == 0 {
			t.Fatalf("%s: point counts diverge: fast %d, bytes %d",
				fig.Name, len(fast.Points), len(bytes.Points))
		}
		for i := range fast.Points {
			f, b := fast.Points[i], bytes.Points[i]
			if !reflect.DeepEqual(f.Result, b.Result) {
				t.Errorf("%s cell %s/%s/mem=%d: engines diverge",
					fig.Name, f.Strategy, f.Op, f.MemMB)
			}
		}
	}
}

// BenchmarkFastPathExa is the headline fast-path measurement: the full
// fig-exa sweep — one million ranks on ten thousand exascale nodes, four
// memory points, two strategies, write and read — priced analytically.
// The acceptance bar is well under a minute per sweep; the byte path
// cannot run this at all without materializing ~1M messages per round.
func BenchmarkFastPathExa(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		collio.ResetPlanCache()
		if _, err := FigExa(DefaultScale, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFastVsByteFig6 compares the two pricing engines head to head
// on the identical Figure 6 sweep: same plans, same results (the
// cross-check tests assert bitwise equality), different cost to compute
// them.
func BenchmarkFastVsByteFig6(b *testing.B) {
	for _, engine := range Engines {
		b.Run(engine, func(b *testing.B) {
			cfg := Fig6Config(testScale, 42)
			cfg.Engine = engine
			wl, name, err := Fig6Workload(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				collio.ResetPlanCache()
				if _, err := RunSweep(cfg, wl, name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
