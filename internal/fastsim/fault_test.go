package fastsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/faults"
	"mcio/internal/obs/timeline"
	"mcio/internal/pfs"
	"mcio/internal/sim"
	"mcio/internal/twophase"
)

// faultedPlan builds a fresh plan and fault handler for one engine run.
// Recovery mutates handler state (and, for the memory-conscious
// strategy, the plan's partition trees), so cross-checks must never
// share either between engines.
func faultedPlan(ctx *collio.Context, strategy string, reqs []collio.RankRequest,
	spec faults.Spec) (*collio.Plan, collio.FaultHandler, error) {
	switch strategy {
	case "memory-conscious":
		p, state, err := core.New().PlanWithState(ctx, reqs)
		if err != nil {
			return nil, nil, err
		}
		return p, &core.Failover{State: state, Detect: spec.DetectSeconds}, nil
	case "two-phase":
		p, err := twophase.New().Plan(ctx, reqs)
		if err != nil {
			return nil, nil, err
		}
		return p, twophase.NewStallRetry(ctx.Avail, spec.StallSeconds), nil
	}
	return nil, nil, fmt.Errorf("unknown strategy %q", strategy)
}

// faultedEngine is the signature both engines' faulted entry points
// share.
type faultedEngine func(*collio.Context, *collio.Plan, []collio.RankRequest, collio.Op,
	sim.Options, *faults.Injector, collio.FaultHandler) (*collio.FaultResult, error)

// runFaulted prices one faulted cell with one engine, from a freshly
// generated fault plan, a fresh strategy plan and a fresh handler.
func runFaulted(t *testing.T, ctx *collio.Context, strategy string, reqs []collio.RankRequest,
	op collio.Op, opt sim.Options, spec faults.Spec, engine faultedEngine) (*collio.FaultResult, error) {
	t.Helper()
	fplan, err := spec.Generate(ctx.Topo.Nodes(), ctx.FS.Targets)
	if err != nil {
		t.Fatal(err)
	}
	plan, handler, err := faultedPlan(ctx, strategy, reqs, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(reqs); err != nil {
		t.Fatal(err)
	}
	return engine(ctx, plan, reqs, op, opt, faults.NewInjector(fplan), handler)
}

// priceFaultedBoth prices one faulted cell with both engines — each
// from its own freshly built plan, injector and handler — and fails on
// any divergence in the full FaultResult: costs, engine totals, fault
// tallies, injected-event counts (the schedule must be engine-
// invariant), and round traces.
func priceFaultedBoth(t *testing.T, ctx *collio.Context, strategy string,
	reqs []collio.RankRequest, op collio.Op, opt sim.Options, spec faults.Spec) *collio.FaultResult {
	t.Helper()
	want, wantErr := runFaulted(t, ctx, strategy, reqs, op, opt, spec, collio.CostWithFaults)
	got, gotErr := runFaulted(t, ctx, strategy, reqs, op, opt, spec, CostWithFaults)
	if wantErr != nil {
		// A schedule can legitimately kill the whole cluster; the handler's
		// refusal must surface identically from both engines.
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s %s: error divergence\nfast: %v\nbyte: %v",
				strategy, op, gotErr, wantErr)
		}
		return nil
	}
	if gotErr != nil {
		t.Fatalf("%s %s: fast path errored where byte path priced: %v", strategy, op, gotErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %s: faulted engines diverge\nfast: %+v\nbyte: %+v",
			strategy, op, got, want)
	}
	return got
}

// interleavedReqs is the crash cells' workload: each rank owns six
// 700-byte records interleaved rank-major across the file, so rounds
// carry uneven remainders and stripe maps span several targets.
func interleavedReqs(ranks int) []collio.RankRequest {
	reqs := make([]collio.RankRequest, ranks)
	const rec = 700
	for r := range reqs {
		reqs[r].Rank = r
		for b := 0; b < 6; b++ {
			reqs[r].Extents = append(reqs[r].Extents, pfs.Extent{
				Offset: int64(b*ranks+r) * rec,
				Length: rec,
			})
		}
	}
	return reqs
}

// TestFaultedEnginesMatchCrash pins a schedule dominated by host-level
// events — crashes and memory collapses forcing remerges, replays and
// recovery rounds — and checks bit-identity on a workload with uneven
// rounds.
func TestFaultedEnginesMatchCrash(t *testing.T) {
	ctx := testContext(t, 16, 4, 8, 8<<10)
	reqs := interleavedReqs(16)
	opt := sim.DefaultOptions()
	opt.Trace = true
	// Rate 5 survives under both strategies (remerges and stalls price to
	// completion); rate 8 wipes the cluster under memory-conscious and
	// must surface the identical handler error from both engines.
	failovers := 0
	for _, rate := range []float64{5, 8} {
		for _, strategy := range []string{"two-phase", "memory-conscious"} {
			ref := priceFaultedBoth(t, ctx, strategy, reqs, collio.Write, opt,
				faults.DefaultSpec(3, 1).WithRate(0))
			spec := faults.DefaultSpec(3, ref.Seconds*4).WithRate(rate)
			for _, op := range []collio.Op{collio.Write, collio.Read} {
				res := priceFaultedBoth(t, ctx, strategy, reqs, op, opt, spec)
				if res == nil {
					continue
				}
				if len(res.Injected) == 0 {
					t.Fatalf("%s %s rate %g: schedule injected no events — test exercises nothing", strategy, op, rate)
				}
				failovers += res.Failovers
			}
		}
	}
	if failovers == 0 {
		t.Fatal("no cell exercised a failover — crash recovery untested")
	}
}

// TestFaultedEnginesMatchRandom is the property test: random seeded
// topologies, workloads and fault schedules — cycling plain, gray
// (stragglers, flaky NICs, slow OSTs, leaks) and corruption (bit
// flips, torn writes) profiles — must price identically under both
// engines, strategies and directions.
func TestFaultedEnginesMatchRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	trials := 18
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		ranks := 4 + rng.Intn(16)
		perNode := 1 + rng.Intn(4)
		targets := 1 + rng.Intn(6)
		avail := int64(1+rng.Intn(16)) << 9
		ctx := testContext(t, ranks, perNode, targets, avail)
		reqs := randomReqs(rng, ranks)
		opt := sim.DefaultOptions()
		opt.Overlap = trial%2 == 0
		opt.Trace = true
		seed := uint64(trial)*31 + 5
		for _, strategy := range []string{"two-phase", "memory-conscious"} {
			ref := priceFaultedBoth(t, ctx, strategy, reqs, collio.Write, opt,
				faults.DefaultSpec(seed, 1).WithRate(0))
			horizon := ref.Seconds * 4
			if horizon <= 0 {
				horizon = 1
			}
			spec := faults.DefaultSpec(seed, horizon).WithRate(2 + float64(rng.Intn(8)))
			switch trial % 3 {
			case 1:
				spec = spec.WithGray(1 + float64(rng.Intn(4)))
			case 2:
				spec = spec.WithCorruption(1 + float64(rng.Intn(4)))
			}
			for _, op := range []collio.Op{collio.Write, collio.Read} {
				priceFaultedBoth(t, ctx, strategy, reqs, op, opt, spec)
			}
		}
	}
}

// TestFaultedEmptyInjectorDelegates checks the inert paths: a nil or
// event-free injector must reduce to the fault-free fast path (same
// CostResult, empty Injected map), and a missing handler must be an
// error, both exactly as on the byte path.
func TestFaultedEmptyInjectorDelegates(t *testing.T) {
	ctx := testContext(t, 12, 4, 4, 16<<10)
	reqs := make([]collio.RankRequest, 12)
	const chunk = 3 << 10
	for r := range reqs {
		reqs[r] = collio.RankRequest{Rank: r, Extents: []pfs.Extent{
			{Offset: int64(r) * chunk, Length: chunk},
		}}
	}
	opt := sim.DefaultOptions()
	opt.Trace = true
	spec := faults.DefaultSpec(1, 1).WithRate(0)
	priceFaultedBoth(t, ctx, "two-phase", reqs, collio.Write, opt, spec)

	plan, handler, err := faultedPlan(ctx, "two-phase", reqs, spec)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := collio.Cost(ctx, plan, reqs, collio.Write, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CostWithFaults(ctx, plan, reqs, collio.Write, opt, nil, handler)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.CostResult, *clean) || len(res.Injected) != 0 {
		t.Fatalf("empty injector did not reduce to the clean run: %+v", res)
	}

	fplan, err := faults.DefaultSpec(1, 10).WithRate(4).Generate(ctx.Topo.Nodes(), ctx.FS.Targets)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CostWithFaults(ctx, plan, reqs, collio.Write, opt, faults.NewInjector(fplan), nil); err == nil {
		t.Fatal("faulted pricing without a handler should error")
	}
}

// TestFaultScheduleEngineInvariant pins a fault schedule and proves the
// event stream both engines consume is the same object, not merely
// same-shaped: the generated plans are identical, and after a full
// priced run each engine's injector has applied the same events — same
// per-kind counts, same dead-node set, same escalations. Together with
// the bit-identity checks this closes the loop: same schedule in, same
// recovery out, regardless of engine.
func TestFaultScheduleEngineInvariant(t *testing.T) {
	ctx := testContext(t, 24, 4, 8, 12<<10)
	reqs := make([]collio.RankRequest, 24)
	for r := range reqs {
		reqs[r] = collio.RankRequest{Rank: r,
			Extents: []pfs.Extent{{Offset: int64(r) * 900, Length: 900}}}
	}
	opt := sim.DefaultOptions()
	opt.Trace = true
	for _, strategy := range []string{"two-phase", "memory-conscious"} {
		ref := priceFaultedBoth(t, ctx, strategy, reqs, collio.Write, opt,
			faults.DefaultSpec(11, 1).WithRate(0))
		spec := faults.DefaultSpec(11, ref.Seconds*4).WithRate(3).WithGray(2).WithCorruption(2)

		planA, err := spec.Generate(ctx.Topo.Nodes(), ctx.FS.Targets)
		if err != nil {
			t.Fatal(err)
		}
		planB, err := spec.Generate(ctx.Topo.Nodes(), ctx.FS.Targets)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(planA, planB) {
			t.Fatal("Generate is not a pure function of the spec: plans diverge")
		}

		type engineRun struct {
			name string
			cost func(*collio.Context, *collio.Plan, []collio.RankRequest, collio.Op,
				sim.Options, *faults.Injector, collio.FaultHandler) (*collio.FaultResult, error)
			inj *faults.Injector
		}
		runs := []engineRun{
			{"byte", collio.CostWithFaults, faults.NewInjector(planA)},
			{"fast", CostWithFaults, faults.NewInjector(planB)},
		}
		for i := range runs {
			plan, handler, err := faultedPlan(ctx, strategy, reqs, spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := runs[i].cost(ctx, plan, reqs, collio.Write, opt, runs[i].inj, handler); err != nil {
				t.Fatalf("%s: %s: %v", strategy, runs[i].name, err)
			}
		}
		byte_, fast := runs[0].inj, runs[1].inj
		if !reflect.DeepEqual(fast.Counts(), byte_.Counts()) {
			t.Fatalf("%s: applied-event counts diverge\nfast %v\nbyte %v",
				strategy, fast.Counts(), byte_.Counts())
		}
		if len(byte_.Counts()) == 0 {
			t.Fatalf("%s: schedule applied no events — invariance proved vacuously", strategy)
		}
		if !reflect.DeepEqual(fast.DeadNodes(), byte_.DeadNodes()) {
			t.Fatalf("%s: dead-node sets diverge: fast %v byte %v",
				strategy, fast.DeadNodes(), byte_.DeadNodes())
		}
		if fast.Escalations() != byte_.Escalations() {
			t.Fatalf("%s: escalation counts diverge: fast %d byte %d",
				strategy, fast.Escalations(), byte_.Escalations())
		}
	}
}

// TestFaultedEnginesMatchTimeline checks that both engines record the
// same timeline: on the crash schedule of TestFaultedEnginesMatchCrash,
// a recorder attached to each engine's context must end up with the
// same journal entries and the same node and OST utilization series.
func TestFaultedEnginesMatchTimeline(t *testing.T) {
	ctx := testContext(t, 16, 4, 8, 8<<10)
	reqs := interleavedReqs(16)
	opt := sim.DefaultOptions()
	failovers := 0
	for _, strategy := range []string{"two-phase", "memory-conscious"} {
		ref := priceFaultedBoth(t, ctx, strategy, reqs, collio.Write, opt,
			faults.DefaultSpec(3, 1).WithRate(0))
		spec := faults.DefaultSpec(3, ref.Seconds*4).WithRate(5)
		for _, op := range []collio.Op{collio.Write, collio.Read} {
			record := func(engine faultedEngine) *timeline.Recorder {
				tctx := *ctx
				tctx.Timeline = timeline.NewRecorder(0, 0)
				if _, err := runFaulted(t, &tctx, strategy, reqs, op, opt, spec, engine); err != nil {
					t.Fatalf("%s %s: %v", strategy, op, err)
				}
				return tctx.Timeline
			}
			want, got := record(collio.CostWithFaults), record(CostWithFaults)
			wantEvents, gotEvents := want.J().Events(), got.J().Events()
			if !reflect.DeepEqual(gotEvents, wantEvents) {
				t.Fatalf("%s %s: journals diverge\nfast: %+v\nbyte: %+v", strategy, op, gotEvents, wantEvents)
			}
			wantSeries, gotSeries := entitySeries(want), entitySeries(got)
			if len(wantSeries) == 0 {
				t.Fatalf("%s %s: byte engine recorded no node or OST series", strategy, op)
			}
			if !reflect.DeepEqual(gotSeries, wantSeries) {
				t.Fatalf("%s %s: utilization series diverge\nfast: %+v\nbyte: %+v", strategy, op, gotSeries, wantSeries)
			}
			for _, ev := range wantEvents {
				if ev.Kind == timeline.EvFailover {
					failovers++
				}
			}
		}
	}
	if failovers == 0 {
		t.Fatal("no failover journaled — recovery recording untested")
	}
}

// entitySeries returns the recorder's node and OST series.
func entitySeries(rec *timeline.Recorder) []timeline.SeriesView {
	var out []timeline.SeriesView
	for _, v := range rec.Snapshot() {
		if strings.HasPrefix(v.Entity, "node ") || strings.HasPrefix(v.Entity, "ost ") {
			out = append(out, v)
		}
	}
	return out
}

// FuzzFaultedEnginesMatch is the coverage-guided form of the faulted
// cross-check: the fuzz input picks the topology (nodes, ranks per
// node), the fault schedule (seed, rate, plain/gray/corruption
// profile), the strategy and the direction of an interleaved workload,
// and both engines must price it identically — errors included. The
// seed corpus holds the cells of TestFaultedEnginesMatchCrash.
func FuzzFaultedEnginesMatch(f *testing.F) {
	for _, rate := range []uint8{5, 8} {
		for strategy := uint8(0); strategy < 2; strategy++ {
			for op := uint8(0); op < 2; op++ {
				f.Add(uint8(4), uint8(4), uint64(3), rate, uint8(0), strategy, op)
			}
		}
	}
	f.Fuzz(func(t *testing.T, nodes, perNode uint8, seed uint64, rate, profile, strategy, op uint8) {
		n, per := 1+int(nodes%8), 1+int(perNode%4)
		ctx := testContext(t, n*per, per, 8, 8<<10)
		reqs := interleavedReqs(n * per)
		opt := sim.DefaultOptions()
		opt.Trace = true
		strat := []string{"two-phase", "memory-conscious"}[strategy%2]
		ref := priceFaultedBoth(t, ctx, strat, reqs, collio.Write, opt,
			faults.DefaultSpec(seed, 1).WithRate(0))
		horizon := ref.Seconds * 4
		if horizon <= 0 {
			horizon = 1
		}
		spec := faults.DefaultSpec(seed, horizon).WithRate(float64(rate % 10))
		switch intensity := 1 + float64(rate%4); profile % 3 {
		case 1:
			spec = spec.WithGray(intensity)
		case 2:
			spec = spec.WithCorruption(intensity)
		}
		priceFaultedBoth(t, ctx, strat, reqs, []collio.Op{collio.Write, collio.Read}[op%2], opt, spec)
	})
}
