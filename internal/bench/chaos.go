package bench

import (
	"bytes"
	"fmt"
	"strings"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/faults"
	"mcio/internal/integrity"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/obs"
	"mcio/internal/obs/timeline"
	"mcio/internal/pfs"
	"mcio/internal/stats"
)

// ChaosConfig parameterizes a chaos-soak campaign (mcio chaos).
type ChaosConfig struct {
	// Seed makes the whole campaign — workloads, machine states,
	// corruption schedules, bit positions — a pure function of one number.
	Seed uint64
	// Ops is how many randomized collective operations the soak runs.
	Ops int
	// Rate scales the silent-corruption event rates (1 ≈ a couple of
	// events per entity per operation); 0 disables corruption entirely.
	Rate float64
	// Repair enables the detect→re-request→rewrite path. With it off the
	// campaign instead proves that every injected corruption is detected.
	Repair bool
	// Obs, when non-nil, receives the campaign counters (chaos.*,
	// integrity.*) and the planners' metrics.
	Obs *obs.Observer
	// Timeline, when non-nil, receives a sequence-ordered journal entry
	// per op that detected corruption (the integrity layer is
	// concurrent, so per-incident simulated timestamps do not exist).
	Timeline *timeline.Recorder
}

// ChaosReport is the outcome of a campaign: what was injected, what the
// integrity layer did about it, how often the degradation ladder fired,
// and every invariant violation found (an empty Violations list is the
// pass condition).
type ChaosReport struct {
	Ops            int
	CollectiveOps  int // ops that ran the full aggregation path
	ShrunkOps      int // ops placed only after shrinking the appetite
	IndependentOps int // ops that fell back to independent I/O
	InjectedFlips  int
	InjectedTorn   int
	Detected       int64
	Repaired       int64
	Unrepaired     int64
	RewrittenBytes int64
	SumsStamped    int64
	SumsVerified   int64
	Violations     []string
}

// Injected returns the total corruptions actually injected.
func (r *ChaosReport) Injected() int { return r.InjectedFlips + r.InjectedTorn }

// Undetected returns injected corruptions the integrity layer never
// flagged — the number the whole tentpole exists to hold at zero.
func (r *ChaosReport) Undetected() int {
	u := r.Injected() - int(r.Detected)
	if u < 0 {
		u = 0
	}
	return u
}

// String renders the campaign summary.
func (r *ChaosReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: %d ops (%d collective, %d shrunk, %d independent)\n",
		r.Ops, r.CollectiveOps, r.ShrunkOps, r.IndependentOps)
	fmt.Fprintf(&b, "corruptions: %d injected (%d bit flips, %d torn writes), %d detected, %d repaired, %d unrepaired, %d undetected\n",
		r.Injected(), r.InjectedFlips, r.InjectedTorn, r.Detected, r.Repaired, r.Unrepaired, r.Undetected())
	fmt.Fprintf(&b, "integrity: %d sums stamped, %d verified, %d bytes rewritten\n",
		r.SumsStamped, r.SumsVerified, r.RewrittenBytes)
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

// chaosMix mixes the campaign seed with an operation index into an
// independent per-op seed (SplitMix64 increments, like the fault
// streams).
func chaosMix(seed uint64, op int) uint64 {
	return seed ^ (uint64(op)+1)*0x9e3779b97f4a7c15
}

// Chaos runs a seeded randomized soak: every operation draws a fresh
// workload, machine state and silent-corruption schedule, runs a real
// write (collective, shrunk, or independent per the degradation ladder)
// followed by a real read-back, and checks the invariant battery —
// domains tile the request union exactly once, chosen aggregators
// respect Mem_min and N_ah when memory is ample, written bytes are
// conserved (plan bytes + repair rewrites, even when writes are torn),
// detected corruptions equal injected ones, and with repair enabled the
// final file is byte-identical to the fault-free oracle and reads return
// exactly what was written. Violations are collected, not fatal, so one
// bad op cannot hide later ones. The campaign is deterministic: same
// config, same report.
func Chaos(cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 50
	}
	if cfg.Rate < 0 {
		return nil, fmt.Errorf("bench: negative chaos corruption rate %g", cfg.Rate)
	}

	fsCfg := pfs.DefaultConfig(4)
	fsCfg.StripeUnit = 64 // small stripes: several object accesses per extent
	fsys, err := pfs.NewFileSystem(fsCfg)
	if err != nil {
		return nil, err
	}

	rep := &ChaosReport{Ops: cfg.Ops}
	fail := func(op int, format string, args ...any) {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("op %d: %s", op, fmt.Sprintf(format, args...)))
	}

	// The campaign always runs observed: planner counters are how chaos
	// learns whether a plan used fallback placements (which may lawfully
	// exceed N_ah). A caller-supplied observer additionally exports
	// everything.
	o := cfg.Obs
	if o == nil {
		o = obs.New()
	}
	o.Counter("chaos.ops").Add(int64(cfg.Ops))
	cViol := o.Counter("chaos.invariant_violations")
	cFallback := o.Counter("plan.fallback_placements", obs.L("strategy", core.New().Name()))

	for op := 0; op < cfg.Ops; op++ {
		opSeed := chaosMix(cfg.Seed, op)
		r := stats.NewRNG(opSeed)

		// Machine and tunables for this operation.
		ranks := 4 + r.Intn(6)
		perNode := 1 + r.Intn(3)
		topo, err := mpi.BlockTopology(ranks, perNode)
		if err != nil {
			return nil, err
		}
		mc := machine.Testbed640()
		mc.Nodes = topo.Nodes()
		params := collio.DefaultParams(int64(64 + r.Intn(192)))
		params.MsgInd = int64(100 + r.Intn(400))
		params.MsgGroup = int64(500 + r.Intn(2000))
		params.MemMin = int64(64 + r.Intn(192))
		params.Nah = 1 + r.Intn(4)

		// Memory scenario: mostly ample (the Mem_min/N_ah invariant is
		// assertable), sometimes tight (fallback placements), sometimes
		// fully starved (the degradation ladder must fire).
		avail := make([]int64, topo.Nodes())
		scenario := r.Intn(4)
		for i := range avail {
			switch scenario {
			case 3: // starved: no node clears Mem_min
				avail[i] = int64(r.Intn(int(params.MemMin)))
			case 2: // tight: a mix straddling Mem_min
				avail[i] = int64(r.Intn(3)) * params.MemMin / 2
			default: // ample
				avail[i] = 1 << 20
			}
		}
		ample := scenario <= 1

		ctx := &collio.Context{Topo: topo, Machine: mc, Avail: avail,
			FS: fsCfg, Params: params, Obs: o}

		// Workload: a permuted block list sliced among ranks, with holes
		// and occasional cross-rank overlaps.
		blocks := 16 + r.Intn(17)
		blockLen := int64(24 + r.Intn(101))
		owners := make([][]int, blocks)
		for i, b := range r.Perm(blocks) {
			if r.Float64() < 0.15 {
				continue // hole
			}
			owners[b] = append(owners[b], i%ranks)
			if r.Float64() < 0.1 {
				// Overlap: a second rank claims the same block; rank order
				// decides the outcome, identically in executor and oracle.
				owners[b] = append(owners[b], (i+1)%ranks)
			}
		}
		reqs := blockRequests(ranks, owners, blockLen)

		// Corruption schedule and its data-level replayer.
		spec := faults.DefaultSpec(opSeed, 1).WithRate(0).WithCorruption(cfg.Rate)
		fplan, err := spec.Generate(topo.Nodes(), fsCfg.Targets)
		if err != nil {
			return nil, err
		}
		ranksByNode := make([][]int, topo.Nodes())
		for rank := 0; rank < ranks; rank++ {
			n := topo.NodeOf(rank)
			ranksByNode[n] = append(ranksByNode[n], rank)
		}
		corr := faults.NewCorrupter(fplan, ranksByNode)
		fsys.SetCorrupter(corr)

		// MaxRepairs well above any plausible per-rank pileup of pending
		// flips: each resend consumes one more pending corruption event, so
		// a budget larger than the pileup guarantees the chain ends clean.
		chk := integrity.NewChecker(integrity.Config{Seed: opSeed, Repair: cfg.Repair, MaxRepairs: 32})
		chk.SetObserver(o)

		// Plan through the degradation ladder.
		fallbackBefore := cFallback.Value()
		dp, err := core.New().PlanWithDegradation(ctx, reqs)
		if err != nil {
			fail(op, "planning failed: %v", err)
			continue
		}
		effCtx := *ctx
		effCtx.Params = dp.Params
		switch {
		case dp.Independent:
			rep.IndependentOps++
		case dp.Shrinks > 0:
			rep.ShrunkOps++
		default:
			rep.CollectiveOps++
		}
		if scenario == 3 && !dp.Independent && dp.Shrinks == 0 {
			fail(op, "starved machine produced an undegraded plan")
		}

		var expectedWritten int64
		if dp.Independent {
			for _, q := range reqs {
				expectedWritten += q.Bytes()
			}
		} else {
			// Invariant: domains tile the request union exactly once.
			if err := dp.Plan.Validate(reqs); err != nil {
				fail(op, "plan tiling violated: %v", err)
				continue
			}
			if ample && cFallback.Value() == fallbackBefore {
				// Invariant: absent fallback placements (which may lawfully
				// over-pack a host when every related node is saturated),
				// placement honours N_ah and only uses hosts that cleared
				// Mem_min.
				aggsOnNode := map[int]int{}
				for _, d := range dp.Plan.Domains {
					aggsOnNode[d.AggNode]++
					if avail[d.AggNode] < dp.Params.MemMin {
						fail(op, "aggregator on node %d with avail %d < MemMin %d",
							d.AggNode, avail[d.AggNode], dp.Params.MemMin)
					}
				}
				for n, c := range aggsOnNode {
					if c > dp.Params.Nah {
						fail(op, "node %d hosts %d aggregators > Nah %d", n, c, dp.Params.Nah)
					}
				}
			}
			expectedWritten = dp.Plan.TotalBytes()
		}

		// Build rank buffers and the oracle.
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

		file := fsys.Open(fmt.Sprintf("chaos-%d", op))
		writtenBefore := sumI64(fsys.Stats().Written())

		if dp.Independent {
			err = collio.ExecIndependent(&effCtx, data, file, collio.Write, chk)
		} else {
			err = collio.ExecVerified(&effCtx, dp.Plan, data, file, collio.Write, chk, corr)
		}
		if err != nil {
			fail(op, "write failed: %v", err)
			continue
		}

		// Invariant: written bytes are conserved — the plan's bytes plus
		// repair rewrites, torn or not (a torn access still acknowledges
		// its full request; that is what makes the tear silent).
		writtenDelta := sumI64(fsys.Stats().Written()) - writtenBefore
		if want := expectedWritten + chk.Report().RewrittenBytes; writtenDelta != want {
			fail(op, "bytes-written conservation violated: delta %d != planned %d + rewritten %d",
				writtenDelta, expectedWritten, want-expectedWritten)
		}

		// Read back with fresh buffers through the same path.
		readData := make([]collio.RankData, ranks)
		for i := range readData {
			readData[i] = collio.RankData{Req: reqs[i], Buf: make([]byte, len(data[i].Buf))}
		}
		if dp.Independent {
			err = collio.ExecIndependent(&effCtx, readData, file, collio.Read, chk)
		} else {
			err = collio.ExecVerified(&effCtx, dp.Plan, readData, file, collio.Read, chk, corr)
		}
		if err != nil {
			fail(op, "read failed: %v", err)
			continue
		}

		crep := chk.Report()
		crep.JournalInto(cfg.Timeline.J(), fmt.Sprintf("op %d", op))
		injected := corr.Injected()

		// Invariant: every injected corruption is detected — the torn-write
		// consumption rule and the per-message flip accounting make this an
		// exact equality, with and without repair.
		if int(crep.Detected) != injected {
			fail(op, "detection mismatch: %d corruptions injected, %d detected", injected, crep.Detected)
		}

		if cfg.Repair || injected == 0 {
			// Invariant: with repair on (or nothing injected), the file
			// equals the oracle and reads return what was written.
			if crep.Unrepaired != 0 {
				fail(op, "%d corruptions unrepaired with repair enabled", crep.Unrepaired)
			}
			got := make([]byte, size)
			if _, err := file.ReadAt(got, 0); err != nil {
				fail(op, "oracle readback failed: %v", err)
			} else if !bytes.Equal(got, oracle) {
				fail(op, "file contents differ from fault-free oracle")
			}
			// Each rank's read must return the oracle bytes at its extents
			// (not necessarily its own written bytes: overlapping extents
			// resolve in rank order, so a lower rank reads back the higher
			// rank's data — in executor and oracle alike).
		readCheck:
			for i := range readData {
				var pos int64
				for _, e := range reqs[i].Extents {
					if !bytes.Equal(readData[i].Buf[pos:pos+e.Length], oracle[e.Offset:e.End()]) {
						fail(op, "rank %d read differs from oracle at extent [%d,%d)", i, e.Offset, e.End())
						break readCheck
					}
					pos += e.Length
				}
			}
		} else if injected > 0 && crep.Unrepaired == 0 {
			// Repair off: every detection must be accounted unrepaired.
			fail(op, "repair disabled but %d detections left no unrepaired count", crep.Detected)
		}

		rep.InjectedFlips += corr.InjectedFlips()
		rep.InjectedTorn += corr.InjectedTorn()
		rep.Detected += crep.Detected
		rep.Repaired += crep.Repaired
		rep.Unrepaired += crep.Unrepaired
		rep.RewrittenBytes += crep.RewrittenBytes
		rep.SumsStamped += crep.Stamped
		rep.SumsVerified += crep.Verified
	}
	fsys.SetCorrupter(nil)

	o.Counter("chaos.corruptions_injected").Add(int64(rep.Injected()))
	o.Counter("chaos.corruptions_detected").Add(rep.Detected)
	o.Counter("chaos.corruptions_repaired").Add(rep.Repaired)
	o.Counter("chaos.degraded_ops").Add(int64(rep.ShrunkOps + rep.IndependentOps))
	cViol.Add(int64(len(rep.Violations)))
	return rep, nil
}

// blockRequests builds one canonical request per rank from a block deal:
// owners[b] lists the distinct ranks claiming block b, the blockLen bytes
// at b*blockLen. Walking the blocks in file order emits each rank's list
// sorted, with touching blocks merged.
func blockRequests(ranks int, owners [][]int, blockLen int64) []collio.RankRequest {
	reqs := make([]collio.RankRequest, ranks)
	for i := range reqs {
		reqs[i].Rank = i
	}
	for b, claim := range owners {
		ext := pfs.Extent{Offset: int64(b) * blockLen, Length: blockLen}
		for _, rank := range claim {
			reqs[rank].Extents = pfs.AppendExtent(reqs[rank].Extents, ext)
		}
	}
	return reqs
}

// fillChaosPattern fills a rank buffer with bytes derived from the op,
// rank and position, so misplaced or stale bytes are detectable.
func fillChaosPattern(op, rank int, buf []byte) {
	for i := range buf {
		buf[i] = byte((op*17 + rank*131 + i*7 + 5) % 251)
	}
}

func sumI64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
