package bench

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"mcio/internal/collio"
	"mcio/internal/obs"
	"mcio/internal/obs/analyze"
)

// chaosLedgerOps is the campaign length of the chaos ledger run: long
// enough that detection/repair/degradation counts are meaningful, short
// enough for the CI gate.
const chaosLedgerOps = 50

// grayLedgerOps is the campaign length of the gray ledger run: each op
// prices three cost runs and executes two real hedged collectives, so
// it is shorter than the corruption soak for the same CI budget.
const grayLedgerOps = 20

// Ledger runs one `mcio bench` experiment of the registry on engine
// ("" picks the experiment's default) and returns its run ledger — the
// stable obs.RunRecord that `mcio bench -out` writes and `mcio diff`
// compares. An engine the experiment does not declare is rejected.
// Every priced entry carries bandwidth, simulated wall time, round
// count and the critical-path blame breakdown, so a ledger diff can say
// not just "fig6 got slower" but "its paging share doubled".
func Ledger(name string, scale int64, seed uint64, engine string) (*obs.RunRecord, error) {
	e, err := BenchCmd.Lookup(name)
	if err != nil {
		return nil, err
	}
	if engine, err = e.resolveEngine(engine); err != nil {
		return nil, err
	}
	rec := &obs.RunRecord{
		Name: name,
		Params: map[string]string{
			"scale": strconv.FormatInt(scale, 10),
			"seed":  strconv.FormatUint(seed, 10),
		},
	}
	if err := e.Ledger(rec, Args{Scale: scale, Seed: seed, Engine: engine}); err != nil {
		return nil, err
	}
	return rec, nil
}

// StampedLedger is Ledger plus provenance: it times the run on the
// host clock, captures allocator telemetry around it via
// runtime.ReadMemStats, and stamps the record with the host metadata
// the perf-history archive keys on. Ledger itself stays a pure function
// of its arguments — the parallel byte-identity tests rely on that — so
// everything nondeterministic lives here.
func StampedLedger(name string, scale int64, seed uint64, engine string) (*obs.RunRecord, error) {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	rec, err := Ledger(name, scale, seed, engine)
	if err != nil {
		return nil, err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	rec.UnixNanos = start.UnixNano()
	rec.Host = obs.CaptureHost()
	rec.Telemetry = &obs.Telemetry{
		HostWallSeconds: time.Since(start).Seconds(),
		TotalAllocBytes: after.TotalAlloc - before.TotalAlloc,
		PeakHeapBytes:   after.HeapSys,
	}
	// The experiments that price on the fast engine by default exist to
	// prove its speed, so their ledgers also carry the host-side cost of
	// producing them as a metrics-only entry: the trend gate drift-checks
	// metrics series over history, turning a fast-path slowdown or
	// allocation regression into a flagged series. (Metrics do not feed
	// the step-regression diff, so cross-machine wall-clock noise cannot
	// fail the baseline gate.)
	if e, _ := BenchCmd.Lookup(name); e.Engines[0] == EngineFast {
		rec.Entries = append(rec.Entries, obs.RunEntry{
			Name: name + "/harness",
			Metrics: map[string]float64{
				"host_wall_seconds": rec.Telemetry.HostWallSeconds,
				"total_alloc_bytes": float64(rec.Telemetry.TotalAllocBytes),
			},
		})
	}
	return rec, nil
}

// sweepLedger is the ledger of a bandwidth sweep: one entry per point.
// Trend matches series across archived records by entry name, so
// experiments sharing one history directory need distinct names (the
// chaos/gray convention): fig-exa passes a prefix, while fig6-8 keep
// their legacy bare names, pinned by the committed baselines.
func sweepLedger(fig figureFunc, prefix string) func(*obs.RunRecord, Args) error {
	return func(rec *obs.RunRecord, a Args) error {
		series, err := runFigure(fig, a)
		if err != nil {
			return err
		}
		for _, p := range series.Points {
			e := sweepEntry(p, series.Config.Overlap)
			e.Name = prefix + e.Name
			rec.Entries = append(rec.Entries, e)
		}
		return nil
	}
}

// trajectoryLedger records both strategies at every Table 1 design
// point.
func trajectoryLedger(rec *obs.RunRecord, a Args) error {
	points, err := trajectoryRun(a.Scale, a.Seed)
	if err != nil {
		return err
	}
	for _, pt := range points {
		for _, strategy := range []string{"two-phase", "memory-conscious"} {
			res := pt.Results[strategy]
			e := costEntry(fmt.Sprintf("t=%.2f/%s", pt.T, strategy), res, pt.Overlap)
			e.Metrics["mem_per_core_bytes"] = float64(pt.MemPerCore)
			rec.Entries = append(rec.Entries, e)
		}
	}
	return nil
}

// faultsLedger records every (rate, strategy) cell of the resilience
// sweep.
func faultsLedger(rec *obs.RunRecord, a Args) error {
	points, err := faultSweepRun(a.Scale, a.Seed, a.Engine)
	if err != nil {
		return err
	}
	for _, pt := range points {
		rec.Entries = append(rec.Entries, faultEntry(fmt.Sprintf("rate=%g/%s", pt.Rate, pt.Strategy), pt.Res, pt.Overlap))
	}
	return nil
}

// exaFaultsLedger records every cell of the exascale fault grid.
func exaFaultsLedger(rec *obs.RunRecord, a Args) error {
	cfg := FigExaFaultsConfig(a.Scale, a.Seed)
	cfg.Engine = a.Engine
	points, err := figExaFaultsRunCfg(cfg)
	if err != nil {
		return err
	}
	for _, pt := range points {
		rec.Entries = append(rec.Entries, faultEntry(fmt.Sprintf("fig-exa-faults/crash=%g,strag=%g,sev=%g/%s",
			pt.Cell.Crash, pt.Cell.Frac, pt.Cell.Sev, pt.Strategy), pt.Res, pt.Overlap))
	}
	return nil
}

// chaosLedger records the corruption soak's counters.
func chaosLedger(rec *obs.RunRecord, a Args) error {
	rep, err := Chaos(ChaosConfig{Seed: a.Seed, Ops: chaosLedgerOps, Rate: 2, Repair: true})
	if err != nil {
		return err
	}
	rec.Params["ops"] = strconv.Itoa(chaosLedgerOps)
	rec.Params["rate"] = "2"
	rec.Params["repair"] = "true"
	rec.Entries = append(rec.Entries, chaosEntries(rep)...)
	return nil
}

// grayLedger records the gray-failure campaign's counters.
func grayLedger(rec *obs.RunRecord, a Args) error {
	rep, err := Gray(GrayConfig{Seed: a.Seed, Ops: grayLedgerOps, Rate: 2, Repair: true})
	if err != nil {
		return err
	}
	rec.Params["ops"] = strconv.Itoa(grayLedgerOps)
	rec.Params["rate"] = "2"
	rec.Params["repair"] = "true"
	rec.Entries = append(rec.Entries, grayEntries(rep)...)
	return nil
}

// chaosEntries converts a chaos-campaign report into metrics-only
// ledger entries — detection counts, repair byte totals and the
// degradation-ladder rung counts — so resilience behaviour sits under
// the same trend-over-history gate as the bandwidth sweeps. The trend
// analyzer treats metrics-only entries as "steady": any sustained move
// in either direction is a behavioural shift worth flagging.
func chaosEntries(rep *ChaosReport) []obs.RunEntry {
	return []obs.RunEntry{
		{Name: "chaos/detection", Metrics: map[string]float64{
			"injected_flips": float64(rep.InjectedFlips),
			"injected_torn":  float64(rep.InjectedTorn),
			"detected":       float64(rep.Detected),
			"undetected":     float64(rep.Undetected()),
		}},
		{Name: "chaos/repair", Metrics: map[string]float64{
			"repaired":        float64(rep.Repaired),
			"unrepaired":      float64(rep.Unrepaired),
			"rewritten_bytes": float64(rep.RewrittenBytes),
			"sums_stamped":    float64(rep.SumsStamped),
			"sums_verified":   float64(rep.SumsVerified),
		}},
		{Name: "chaos/degradation", Metrics: map[string]float64{
			"collective_ops":  float64(rep.CollectiveOps),
			"shrunk_ops":      float64(rep.ShrunkOps),
			"independent_ops": float64(rep.IndependentOps),
			"violations":      float64(len(rep.Violations)),
		}},
	}
}

// grayEntries converts a gray-campaign report into metrics-only ledger
// entries — adaptive-policy activity, hedging totals, detection counts
// and the pinned duel's wall times — so gray-failure behaviour is
// drift-checked over history like the bandwidth sweeps.
func grayEntries(rep *GrayReport) []obs.RunEntry {
	return []obs.RunEntry{
		{Name: "gray/adaptive", Metrics: map[string]float64{
			"suspect_events":      float64(rep.SuspectEvents),
			"proactive_failovers": float64(rep.ProactiveFailovers),
			"breaker_opens":       float64(rep.BreakerOpens),
			"breaker_fast_fails":  float64(rep.BreakerFastFails),
			"rung_transitions":    float64(rep.RungTransitions),
		}},
		{Name: "gray/hedging", Metrics: map[string]float64{
			"hedged_messages":     float64(rep.HedgedMessages),
			"hedged_bytes":        float64(rep.HedgedBytes),
			"deduped_bytes":       float64(rep.DedupedBytes),
			"hedged_chunks":       float64(rep.HedgedChunks),
			"deduped_chunk_bytes": float64(rep.DedupedChunkBytes),
		}},
		{Name: "gray/detection", Metrics: map[string]float64{
			"injected":   float64(rep.Injected()),
			"detected":   float64(rep.Detected),
			"undetected": float64(rep.Undetected()),
			"repaired":   float64(rep.Repaired),
			"unrepaired": float64(rep.Unrepaired),
		}},
		{Name: "gray/duel", Metrics: map[string]float64{
			"static_seconds":   rep.DuelStaticSeconds,
			"adaptive_seconds": rep.DuelAdaptiveSeconds,
			"violations":       float64(len(rep.Violations)),
		}},
		{Name: "gray/latency", Metrics: map[string]float64{
			"onset_to_suspect_seconds":  rep.DuelOnsetToSuspectSeconds,
			"onset_to_reaction_seconds": rep.DuelOnsetToReactionSeconds,
		}},
	}
}

// sweepEntry converts one figure sweep point into a ledger entry.
func sweepEntry(p Point, overlap bool) obs.RunEntry {
	e := costEntry(fmt.Sprintf("%s/%s/mem=%d", p.Strategy, p.Op, p.MemMB), p.Result, overlap)
	e.Metrics["paged_aggregators"] = float64(p.Result.PagedAggregators)
	e.Metrics["domains"] = float64(p.Result.Domains)
	return e
}

// costEntry builds the common ledger entry for one priced run: headline
// numbers plus the per-phase critical-path blame from the round trace.
func costEntry(name string, res *collio.CostResult, overlap bool) obs.RunEntry {
	e := obs.RunEntry{
		Name:          name,
		BandwidthMBps: res.Bandwidth / 1e6,
		WallSeconds:   res.Seconds,
		Rounds:        res.Totals.Rounds,
		Metrics:       map[string]float64{},
	}
	if len(res.Trace) > 0 {
		b := analyze.BlameFromTrace(res.Trace, overlap)
		// Whatever wall time the rounds do not cover (e.g. flat recovery
		// latency) lands in "other" so the blame sums to WallSeconds.
		if rest := res.Seconds - b.Total(); rest > 1e-12 {
			b[analyze.PhaseOther] += rest
		}
		e.Blame = map[string]float64(b)
	}
	return e
}

// faultEntry is costEntry for a faulted run, plus the recovery counts.
// Recovery the trace cannot see (detection stalls, reboot waits) tops
// up the blame; totals keep summing to wall time.
func faultEntry(name string, res *collio.FaultResult, overlap bool) obs.RunEntry {
	e := costEntry(name, &res.CostResult, overlap)
	topUpRecovery(e.Blame, res.RecoverySeconds)
	e.Metrics["failovers"] = float64(res.Failovers)
	e.Metrics["stalls"] = float64(res.Stalls)
	e.Metrics["replayed_rounds"] = float64(res.ReplayedRounds)
	e.Metrics["recovery_seconds"] = res.RecoverySeconds
	return e
}

// topUpRecovery moves stall time the round trace cannot attribute from
// "other" into "recovery": recoverySeconds is the run's authoritative
// recovery total. Only time already parked in "other" moves, so the
// blame total is preserved.
func topUpRecovery(blame map[string]float64, recoverySeconds float64) {
	if blame == nil {
		return
	}
	extra := recoverySeconds - blame[analyze.PhaseRecovery]
	if extra <= 0 {
		return
	}
	if other := blame[analyze.PhaseOther]; extra > other {
		extra = other
	}
	blame[analyze.PhaseRecovery] += extra
	blame[analyze.PhaseOther] -= extra
}
