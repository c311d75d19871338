package bench

import (
	"bytes"
	"fmt"
	"strings"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/faults"
	"mcio/internal/health"
	"mcio/internal/integrity"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/obs"
	"mcio/internal/obs/timeline"
	"mcio/internal/pfs"
	"mcio/internal/sim"
	"mcio/internal/stats"
)

// ChaosCampaigns lists every `mcio chaos` campaign, in display order —
// the single source of truth for the subcommand's usage text and its
// unknown-campaign error, exactly as LedgerExperiments is for bench.
var ChaosCampaigns = []string{"corruption", "gray"}

// graySalt decorrelates the gray campaign's per-op seed stream from the
// corruption soak's, so `chaos -gray -seed 1` and `chaos -seed 1` draw
// independent workloads.
const graySalt = 0x677261796661696c // "grayfail"

// GrayConfig parameterizes a gray-failure campaign (mcio chaos -gray).
type GrayConfig struct {
	// Seed makes the whole campaign — workloads, gray-fault schedules,
	// corruption schedules, hedge picks — a pure function of one number.
	Seed uint64
	// Ops is how many randomized operations the campaign runs. Each op
	// prices a static and an adaptive run under the same gray schedule,
	// replans through the health-driven degradation controller, and then
	// executes a real hedged write/read with silent corruption.
	Ops int
	// Rate scales the gray-fault and silent-corruption event rates
	// (1 ≈ a couple of events per entity per op horizon); 0 disables
	// injection, leaving only the clean-path hedging checks.
	Rate float64
	// Repair enables the detect→re-request→rewrite path. Hedging only
	// engages with repair on (a hedged duplicate rides the re-request
	// protocol), so Repair=false reduces the byte-level section to pure
	// detection accounting.
	Repair bool
	// Timeline, when non-nil, records the pinned duel's adaptive run —
	// utilization series plus the fault/suspicion/breaker journal — so
	// `mcio profile gray` can render onset → detection → reaction.
	Timeline *timeline.Recorder
	// Obs, when non-nil, receives the campaign counters (chaos.gray_*,
	// health.*, integrity.*) and the planners' metrics.
	Obs *obs.Observer
}

// GrayReport is the outcome of a gray campaign: what the adaptive
// policy did (suspicion, proactive failover, breakers, hedging), what
// the integrity layer saw, the pinned static-vs-adaptive duel, and
// every invariant violation found (empty Violations is the pass
// condition).
type GrayReport struct {
	Ops int

	// Cost-level adaptive accounting, summed over ops and the duel.
	SuspectEvents      int
	ProactiveFailovers int
	BreakerOpens       int
	BreakerFastFails   int
	FlakyDrops         int
	LeakedNodes        int
	HedgedMessages     int
	HedgedBytes        int64
	DedupedBytes       int64
	// RungTransitions counts degradation-controller rung changes caused
	// by health state (the initial baseline plan is not counted).
	RungTransitions int

	// The pinned duel: a degrading OST plus a straggling aggregator
	// host on a fixed machine. The adaptive run must be strictly faster.
	DuelStaticSeconds   float64
	DuelAdaptiveSeconds float64
	// Detection-lag decomposition of the duel's slowed OST, from its
	// timeline journal: fault onset → first suspicion crossing → first
	// reaction (breaker open), in simulated seconds. -1 marks a stage
	// that never fired (itself a violation — the duel must detect).
	DuelOnsetToSuspectSeconds  float64
	DuelOnsetToReactionSeconds float64

	// Byte-level hedged-execution accounting.
	InjectedFlips     int
	InjectedTorn      int
	Detected          int64
	Repaired          int64
	Unrepaired        int64
	HedgedChunks      int64
	DedupedChunkBytes int64

	Violations []string
}

// Injected returns the total silent corruptions actually injected into
// the byte-level section.
func (r *GrayReport) Injected() int { return r.InjectedFlips + r.InjectedTorn }

// Undetected returns injected corruptions the integrity layer never
// flagged — held at zero by the campaign's detection invariant.
func (r *GrayReport) Undetected() int {
	u := r.Injected() - int(r.Detected)
	if u < 0 {
		u = 0
	}
	return u
}

// String renders the campaign summary.
func (r *GrayReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "gray: %d ops\n", r.Ops)
	fmt.Fprintf(&b, "adaptive: %d suspect events, %d proactive failovers, %d breaker opens, %d fast-fails, %d rung transitions\n",
		r.SuspectEvents, r.ProactiveFailovers, r.BreakerOpens, r.BreakerFastFails, r.RungTransitions)
	fmt.Fprintf(&b, "hedging: %d messages (%d bytes priced, %d deduped), %d real chunks (%d duplicate bytes discarded)\n",
		r.HedgedMessages, r.HedgedBytes, r.DedupedBytes, r.HedgedChunks, r.DedupedChunkBytes)
	fmt.Fprintf(&b, "gray load: %d flaky drops, %d leaked nodes\n", r.FlakyDrops, r.LeakedNodes)
	fmt.Fprintf(&b, "duel: static %.4fs vs adaptive %.4fs\n", r.DuelStaticSeconds, r.DuelAdaptiveSeconds)
	fmt.Fprintf(&b, "duel detection lag: onset->suspect %.4fs, onset->reaction %.4fs\n",
		r.DuelOnsetToSuspectSeconds, r.DuelOnsetToReactionSeconds)
	fmt.Fprintf(&b, "corruptions: %d injected (%d bit flips, %d torn writes), %d detected, %d repaired, %d unrepaired, %d undetected\n",
		r.Injected(), r.InjectedFlips, r.InjectedTorn, r.Detected, r.Repaired, r.Unrepaired, r.Undetected())
	if len(r.Violations) == 0 {
		fmt.Fprintf(&b, "invariants: all held\n")
	} else {
		fmt.Fprintf(&b, "invariants: %d VIOLATED\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	return b.String()
}

// grayAdaptive is the campaign's adaptive policy: default detector and
// breakers, with a short warmup and hedge window so the small per-op
// workloads cross them. Deterministic — the campaign report is a pure
// function of its config.
func grayAdaptive() *collio.Adaptive {
	ad := collio.NewAdaptive()
	ad.Detector = health.NewDetector(health.Config{Warmup: 2})
	ad.HedgeMinSamples = 8
	return ad
}

// Gray runs a seeded gray-failure campaign. Every operation draws a
// fresh workload and gray-fault schedule (OST slowdowns, flaky NICs,
// memory leaks) and checks the invariant battery:
//
//   - pricing: the adaptive run moves exactly the user bytes the static
//     run moves — suspicion, breakers and hedging change placement and
//     timing, never payload — and every hedged byte is deduplicated
//     (DedupedBytes == HedgedBytes, the zero-double-count invariant);
//   - health-driven planning: replanning through the degradation
//     controller after the run never fails and still tiles the request
//     union exactly once, with rung transitions recorded;
//   - real bytes: a hedged verified write/read under silent corruption
//     detects every injected corruption, conserves written bytes, and
//     (with repair on) leaves the file byte-identical to the fault-free
//     oracle — hedged duplicates are verified and discarded, never
//     scattered into user buffers.
//
// The campaign ends with the pinned duel — a degrading OST plus a
// straggling aggregator host — where the adaptive run must be strictly
// faster than the static retry-only baseline. Violations are collected,
// not fatal. The campaign is deterministic: same config, same report.
func Gray(cfg GrayConfig) (*GrayReport, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 20
	}
	if cfg.Rate < 0 {
		return nil, fmt.Errorf("bench: negative gray fault rate %g", cfg.Rate)
	}

	fsCfg := pfs.DefaultConfig(4)
	fsCfg.StripeUnit = 64
	fsys, err := pfs.NewFileSystem(fsCfg)
	if err != nil {
		return nil, err
	}

	rep := &GrayReport{Ops: cfg.Ops}
	fail := func(op int, format string, args ...any) {
		where := fmt.Sprintf("op %d", op)
		if op < 0 {
			where = "duel"
		}
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("%s: %s", where, fmt.Sprintf(format, args...)))
	}

	o := cfg.Obs
	if o == nil {
		o = obs.New()
	}
	s := core.New()

	for op := 0; op < cfg.Ops; op++ {
		opSeed := chaosMix(cfg.Seed^graySalt, op)
		r := stats.NewRNG(opSeed)

		// Machine for this operation: several ranks per node so groups
		// span hosts and a straggling node hurts more than one rank.
		ranks := 6 + r.Intn(7)
		perNode := 2 + r.Intn(2)
		topo, err := mpi.BlockTopology(ranks, perNode)
		if err != nil {
			return nil, err
		}
		mc := machine.Testbed640()
		mc.Nodes = topo.Nodes()
		buf := int64(1 << (12 + r.Intn(3)))
		params := collio.DefaultParams(buf)
		params.MsgInd = 4 * buf
		params.MsgGroup = 16 * buf
		params.MemMin = buf / 2
		avail := make([]int64, topo.Nodes())
		for i := range avail {
			avail[i] = mc.MemPerNode
		}
		ctx := &collio.Context{Topo: topo, Machine: mc, Avail: avail,
			FS: fsCfg, Params: params, Obs: o}

		// Cost-level workload: contiguous per-rank regions, big enough
		// that the run spans several rounds of the gray horizon.
		per := int64(1<<14 + r.Intn(1<<15))
		reqs := make([]collio.RankRequest, ranks)
		for i := range reqs {
			reqs[i] = collio.RankRequest{Rank: i,
				Extents: []pfs.Extent{{Offset: int64(i) * per, Length: per}}}
		}

		refPlan, err := s.Plan(ctx, reqs)
		if err != nil {
			fail(op, "planning failed: %v", err)
			continue
		}
		ref, err := collio.Cost(ctx, refPlan, reqs, collio.Write, sim.DefaultOptions())
		if err != nil {
			fail(op, "reference pricing failed: %v", err)
			continue
		}
		horizon := ref.Seconds * 4
		spec := faults.DefaultSpec(opSeed, horizon).WithRate(0).WithGray(cfg.Rate)

		runCost := func(ad *collio.Adaptive) (*collio.FaultResult, error) {
			plan, state, err := s.PlanWithState(ctx, reqs)
			if err != nil {
				return nil, err
			}
			fplan, err := spec.Generate(topo.Nodes(), fsCfg.Targets)
			if err != nil {
				return nil, err
			}
			inj := faults.NewInjector(fplan)
			handler := &core.Failover{State: state, Detect: spec.DetectSeconds}
			if ad == nil {
				return collio.CostWithFaults(ctx, plan, reqs, collio.Write, sim.DefaultOptions(), inj, handler)
			}
			return collio.CostAdaptive(ctx, plan, reqs, collio.Write, sim.DefaultOptions(), inj, handler, ad)
		}

		static, err := runCost(nil)
		if err != nil {
			fail(op, "static run failed: %v", err)
			continue
		}
		ad := grayAdaptive()
		// The controller shares the run's detector, so the post-run
		// replan sees exactly the suspicion the priced run raised.
		dc := core.NewDegradationController(s, ad.Detector)
		if _, err := dc.Plan(ctx, reqs); err != nil {
			fail(op, "baseline controller plan failed: %v", err)
			continue
		}
		adaptive, err := runCost(ad)
		if err != nil {
			fail(op, "adaptive run failed: %v", err)
			continue
		}

		// Invariant: policy never changes payload — same user bytes.
		if adaptive.UserBytes != static.UserBytes {
			fail(op, "user bytes diverged: adaptive %d vs static %d",
				adaptive.UserBytes, static.UserBytes)
		}
		// Invariant: zero double-counted hedged bytes — every byte a
		// hedge duplicated was deduplicated.
		if adaptive.DedupedBytes != adaptive.HedgedBytes {
			fail(op, "hedge accounting: %d bytes hedged, %d deduped",
				adaptive.HedgedBytes, adaptive.DedupedBytes)
		}

		// Health-driven replan: masking suspected nodes must still
		// produce a valid tiling (or a lawful independent fallback).
		dp, err := dc.Plan(ctx, reqs)
		if err != nil {
			fail(op, "health-driven replan failed: %v", err)
		} else if !dp.Independent {
			if err := dp.Plan.Validate(reqs); err != nil {
				fail(op, "health-masked plan tiling violated: %v", err)
			}
		}
		rep.RungTransitions += len(dc.Transitions()) - 1

		rep.SuspectEvents += adaptive.SuspectEvents
		rep.ProactiveFailovers += adaptive.ProactiveFailovers
		rep.BreakerOpens += adaptive.BreakerOpens
		rep.BreakerFastFails += adaptive.BreakerFastFails
		rep.FlakyDrops += adaptive.FlakyDrops
		rep.LeakedNodes += adaptive.LeakedNodes
		rep.HedgedMessages += adaptive.HedgedMessages
		rep.HedgedBytes += adaptive.HedgedBytes
		rep.DedupedBytes += adaptive.DedupedBytes

		// Byte-level section: a real hedged write/read under silent
		// corruption, against the fault-free oracle.
		if err := grayExecOp(ctx, s, fsys, o, rep, fail, op, opSeed, r, cfg); err != nil {
			return nil, err
		}
	}
	fsys.SetCorrupter(nil)

	// Campaign-level engagement check: with repair on, the Every=2
	// hedger must have hedged real chunks somewhere — a silently inert
	// hedge path would otherwise pass every per-op invariant.
	if cfg.Repair && rep.HedgedChunks == 0 {
		fail(-1, "hedged execution never engaged across %d ops", cfg.Ops)
	}

	if err := grayDuel(rep, fail, cfg.Timeline); err != nil {
		return nil, err
	}

	o.Counter("chaos.gray_ops").Add(int64(cfg.Ops))
	o.Counter("chaos.gray_suspect_events").Add(int64(rep.SuspectEvents))
	o.Counter("chaos.gray_proactive_failovers").Add(int64(rep.ProactiveFailovers))
	o.Counter("chaos.gray_hedged_bytes").Add(rep.HedgedBytes)
	o.Counter("chaos.gray_deduped_bytes").Add(rep.DedupedBytes)
	o.Counter("chaos.gray_corruptions_injected").Add(int64(rep.Injected()))
	o.Counter("chaos.gray_corruptions_detected").Add(rep.Detected)
	o.Counter("chaos.invariant_violations").Add(int64(len(rep.Violations)))
	return rep, nil
}

// grayExecOp runs one real hedged write/read with silent corruption and
// checks the byte-level invariant battery: detection of every injected
// corruption, bytes-written conservation, and (with repair on) oracle
// byte-identity with every hedged duplicate discarded.
func grayExecOp(ctx *collio.Context, s *core.Strategy, fsys *pfs.FileSystem,
	o *obs.Observer, rep *GrayReport, fail func(int, string, ...any),
	op int, opSeed uint64, r *stats.RNG, cfg GrayConfig) error {
	ranks := ctx.Topo.Size()

	// Small permuted-block workload (the shuffle moves real bytes).
	blocks := 12 + r.Intn(9)
	blockLen := int64(24 + r.Intn(81))
	owners := make([][]int, blocks)
	for i, b := range r.Perm(blocks) {
		if r.Float64() < 0.1 {
			continue // hole
		}
		owners[b] = append(owners[b], i%ranks)
	}
	reqs := blockRequests(ranks, owners, blockLen)

	spec := faults.DefaultSpec(opSeed, 1).WithRate(0).WithCorruption(cfg.Rate)
	fplan, err := spec.Generate(ctx.Topo.Nodes(), ctx.FS.Targets)
	if err != nil {
		return err
	}
	ranksByNode := make([][]int, ctx.Topo.Nodes())
	for rank := 0; rank < ranks; rank++ {
		n := ctx.Topo.NodeOf(rank)
		ranksByNode[n] = append(ranksByNode[n], rank)
	}
	corr := faults.NewCorrupter(fplan, ranksByNode)
	fsys.SetCorrupter(corr)
	chk := integrity.NewChecker(integrity.Config{Seed: opSeed, Repair: cfg.Repair, MaxRepairs: 32})
	chk.SetObserver(o)
	hed := &collio.Hedger{Seed: int64(opSeed), Every: 2}

	plan, err := s.Plan(ctx, reqs)
	if err != nil {
		fail(op, "byte-level planning failed: %v", err)
		return nil
	}
	if err := plan.Validate(reqs); err != nil {
		fail(op, "byte-level plan tiling violated: %v", err)
		return nil
	}

	data := make([]collio.RankData, ranks)
	var size int64
	for i := range data {
		buf := make([]byte, reqs[i].Bytes())
		fillChaosPattern(op, i, buf)
		data[i] = collio.RankData{Req: reqs[i], Buf: buf}
		for _, e := range reqs[i].Extents {
			if e.End() > size {
				size = e.End()
			}
		}
	}
	oracle := make([]byte, size)
	for i := range data {
		var pos int64
		for _, e := range reqs[i].Extents {
			copy(oracle[e.Offset:e.End()], data[i].Buf[pos:pos+e.Length])
			pos += e.Length
		}
	}

	file := fsys.Open(fmt.Sprintf("gray-%d", op))
	writtenBefore := sumI64(fsys.Stats().Written())
	if err := collio.ExecVerifiedHedged(ctx, plan, data, file, collio.Write, chk, corr, hed); err != nil {
		fail(op, "hedged write failed: %v", err)
		return nil
	}

	// Invariant: hedged duplicates are messages, never writes — written
	// bytes stay the plan's bytes plus repair rewrites.
	writtenDelta := sumI64(fsys.Stats().Written()) - writtenBefore
	if want := plan.TotalBytes() + chk.Report().RewrittenBytes; writtenDelta != want {
		fail(op, "bytes-written conservation violated: delta %d != planned %d + rewritten %d",
			writtenDelta, plan.TotalBytes(), chk.Report().RewrittenBytes)
	}

	readData := make([]collio.RankData, ranks)
	for i := range readData {
		readData[i] = collio.RankData{Req: reqs[i], Buf: make([]byte, len(data[i].Buf))}
	}
	if err := collio.ExecVerifiedHedged(ctx, plan, readData, file, collio.Read, chk, corr, hed); err != nil {
		fail(op, "hedged read failed: %v", err)
		return nil
	}

	crep := chk.Report()
	crep.JournalInto(cfg.Timeline.J(), fmt.Sprintf("op %d", op))
	injected := corr.Injected()
	// Invariant: every injected corruption is detected — including
	// fresh flips landing on hedged duplicates.
	if int(crep.Detected) != injected {
		fail(op, "detection mismatch: %d corruptions injected, %d detected", injected, crep.Detected)
	}
	if cfg.Repair || injected == 0 {
		if crep.Unrepaired != 0 {
			fail(op, "%d corruptions unrepaired with repair enabled", crep.Unrepaired)
		}
		got := make([]byte, size)
		if _, err := file.ReadAt(got, 0); err != nil {
			fail(op, "oracle readback failed: %v", err)
		} else if !bytes.Equal(got, oracle) {
			fail(op, "file contents differ from fault-free oracle under gray hedging")
		}
		for i := range readData {
			var pos int64
			for _, e := range reqs[i].Extents {
				if !bytes.Equal(readData[i].Buf[pos:pos+e.Length], oracle[e.Offset:e.End()]) {
					fail(op, "rank %d read differs from oracle at extent [%d,%d)", i, e.Offset, e.End())
					return nil
				}
				pos += e.Length
			}
		}
	}

	rep.InjectedFlips += corr.InjectedFlips()
	rep.InjectedTorn += corr.InjectedTorn()
	rep.Detected += crep.Detected
	rep.Repaired += crep.Repaired
	rep.Unrepaired += crep.Unrepaired
	rep.HedgedChunks += hed.Hedged()
	rep.DedupedChunkBytes += hed.DedupedBytes()
	return nil
}

// grayDuel runs the pinned acceptance scenario on a fixed machine: a
// step-degrading OST and a straggling aggregator host, onset after the
// detector has a healthy baseline. The adaptive run must move the same
// user bytes, raise suspicion, fail over proactively, and finish in
// strictly less simulated time than the static retry-only baseline.
//
// The adaptive run always records into a timeline (the caller's rec,
// or a private one): the slowed OST's journal yields the onset →
// suspicion → reaction detection-lag decomposition the report and the
// ledger carry. The static run never records, so the overlay shows
// exactly what the adaptive policy saw and did.
func grayDuel(rep *GrayReport, fail func(int, string, ...any), rec *timeline.Recorder) error {
	if rec == nil {
		rec = timeline.NewRecorder(0, 0)
	}
	topo, err := mpi.BlockTopology(12, 3)
	if err != nil {
		return err
	}
	mc := machine.Testbed640()
	mc.Nodes = topo.Nodes()
	buf := int64(1 << 16)
	params := collio.DefaultParams(buf)
	params.MsgInd = 4 * buf
	params.MsgGroup = 16 * buf
	params.MemMin = buf / 2
	avail := make([]int64, topo.Nodes())
	for i := range avail {
		avail[i] = mc.MemPerNode
	}
	fsCfg := pfs.DefaultConfig(4)
	fsCfg.StripeUnit = 64
	ctx := &collio.Context{Topo: topo, Machine: mc, Avail: avail, FS: fsCfg, Params: params}
	reqs := make([]collio.RankRequest, 12)
	for i := range reqs {
		reqs[i] = collio.RankRequest{Rank: i,
			Extents: []pfs.Extent{{Offset: int64(i) << 18, Length: 1 << 18}}}
	}

	s := core.New()
	refPlan, err := s.Plan(ctx, reqs)
	if err != nil {
		return err
	}
	ref, err := collio.Cost(ctx, refPlan, reqs, collio.Write, sim.DefaultOptions())
	if err != nil {
		return err
	}
	horizon := ref.Seconds * 6
	onset := ref.Seconds / 3
	spec := faults.DefaultSpec(11, horizon).WithRate(0)

	run := func(ad *collio.Adaptive) (*collio.FaultResult, error) {
		// Only the adaptive run records: a shallow context copy keeps
		// the static baseline recorder-free without sharing state.
		cctx := *ctx
		if ad != nil {
			cctx.Timeline = rec
		}
		plan, state, err := s.PlanWithState(&cctx, reqs)
		if err != nil {
			return nil, err
		}
		victim := plan.Domains[0].AggNode
		sched := &faults.Plan{Spec: spec, Events: []faults.Event{
			{Kind: faults.Straggler, Time: onset, Node: victim, Target: -1,
				Duration: horizon, Severity: 8},
			{Kind: faults.OSTSlowdown, Time: onset, Node: -1, Target: 0,
				Duration: horizon, Severity: 5, Profile: faults.ProfileStep},
		}}
		inj := faults.NewInjector(sched)
		handler := &core.Failover{State: state, Detect: spec.DetectSeconds}
		if ad == nil {
			return collio.CostWithFaults(&cctx, plan, reqs, collio.Write, sim.DefaultOptions(), inj, handler)
		}
		return collio.CostAdaptive(&cctx, plan, reqs, collio.Write, sim.DefaultOptions(), inj, handler, ad)
	}

	static, err := run(nil)
	if err != nil {
		return err
	}
	adaptive, err := run(grayAdaptive())
	if err != nil {
		return err
	}
	rep.DuelStaticSeconds = static.Seconds
	rep.DuelAdaptiveSeconds = adaptive.Seconds
	rep.DuelOnsetToSuspectSeconds, rep.DuelOnsetToReactionSeconds = -1, -1
	for _, l := range timeline.DetectionLags(rec.J().Events()) {
		if l.Entity == timeline.Ent("ost", 0) {
			rep.DuelOnsetToSuspectSeconds = l.OnsetToSuspect()
			rep.DuelOnsetToReactionSeconds = l.OnsetToReact()
		}
	}
	if rep.DuelOnsetToSuspectSeconds < 0 || rep.DuelOnsetToReactionSeconds < 0 {
		fail(-1, "duel detection lag unmeasurable: onset->suspect %.4g, onset->reaction %.4g",
			rep.DuelOnsetToSuspectSeconds, rep.DuelOnsetToReactionSeconds)
	}
	rep.SuspectEvents += adaptive.SuspectEvents
	rep.ProactiveFailovers += adaptive.ProactiveFailovers
	rep.BreakerOpens += adaptive.BreakerOpens
	rep.BreakerFastFails += adaptive.BreakerFastFails

	if adaptive.UserBytes != static.UserBytes {
		fail(-1, "user bytes diverged: adaptive %d vs static %d", adaptive.UserBytes, static.UserBytes)
	}
	if adaptive.SuspectEvents == 0 {
		fail(-1, "gray schedule raised no suspicion")
	}
	if adaptive.ProactiveFailovers == 0 {
		fail(-1, "suspected straggler triggered no proactive failover")
	}
	if adaptive.Seconds >= static.Seconds {
		fail(-1, "adaptive (%.4fs) not strictly faster than static (%.4fs)",
			adaptive.Seconds, static.Seconds)
	}
	return nil
}
