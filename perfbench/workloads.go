package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"time"

	"mcio"
	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/fastsim"
	"mcio/internal/faults"
	"mcio/internal/machine"
	"mcio/internal/memmodel"
	"mcio/internal/mpi"
	"mcio/internal/obs"
	"mcio/internal/pfs"
	"mcio/internal/sim"
	"mcio/internal/stats"
	"mcio/internal/twophase"
	"mcio/internal/workload"
)

// workloadDef is one named benchmark workload. setup builds its inputs
// from the seed (timed as set-up) and returns the fixed operation set,
// which a pass may run any number of times.
type workloadDef struct {
	name string
	why  string
	// baseline is the committed ledger a run at its seed must reproduce.
	baseline string
	setup    func(seed uint64, s *rep) (func(r *rep), error)
}

var workloads = []workloadDef{
	{
		name:     "exa-clean",
		why:      "1M ranks on 10k nodes at 8 and 64 MB: fast-path pricing dominates at 8 MB, planning at 64 MB",
		baseline: "BENCH_fig_exa.json",
		setup:    setupExaClean,
	},
	{
		name:     "exa-faults",
		why:      "1M-rank write, clean control and heaviest fault cell: the only workload that runs faulted pricing and recovery",
		baseline: "BENCH_fig_exa_faults.json",
		setup:    setupExaFaults,
	},
	{
		name:     "collperf-bytes",
		why:      "Figure 6 coll_perf sweep on the byte engine: planning and validation of ~1M noncontiguous extents dominate",
		baseline: "BENCH_fig6.json",
		setup:    setupCollPerf,
	},
	{
		name:  "checkpoint-rw",
		why:   "60 MB interleaved write then read through the public API: the only workload that moves real bytes",
		setup: setupCheckpoint,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// strategies are priced in the ledgers' order.
var strategies = []string{"two-phase", "memory-conscious"}

func newStrategy(name string) collio.Strategy {
	if name == "memory-conscious" {
		return core.New()
	}
	return twophase.New()
}

// planLayer names the planning layer a strategy's Plan call is timed as.
func planLayer(strategy string) string {
	if strategy == "memory-conscious" {
		return "core.plan"
	}
	return "twophase.plan"
}

// requests builds a workload's per-rank requests as the workload layer's
// span and counts their extents.
func requests(s *rep, wl interface {
	Requests() ([]collio.RankRequest, error)
}) ([]collio.RankRequest, error) {
	var reqs []collio.RankRequest
	err := s.call("workload.requests", "", func() error {
		var err error
		reqs, err = wl.Requests()
		return err
	})
	for _, q := range reqs {
		s.count("workload.extents", float64(len(q.Extents)))
	}
	return reqs, err
}

// contexts builds one planning context per memory point from the seed's
// availability draws.
func contexts(s *rep, p platform, seed uint64, memMB []int, totalBytes int64) ([]*collio.Context, error) {
	ctxs := make([]*collio.Context, len(memMB))
	err := s.call("workload.contexts", "", func() error {
		zs := p.draws(seed)
		for i, m := range memMB {
			var err error
			if ctxs[i], err = p.context(m, zs, totalBytes); err != nil {
				return err
			}
		}
		return nil
	})
	return ctxs, err
}

// plan runs the cold planning path a fresh process pays: Strategy.Plan
// and Plan.Validate, never the in-process plan cache.
func plan(r *rep, cell, strategy string, ctx *collio.Context, reqs []collio.RankRequest) (*collio.Plan, error) {
	var p *collio.Plan
	err := r.call(planLayer(strategy), cell, func() error {
		var err error
		p, err = newStrategy(strategy).Plan(ctx, reqs)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.countPlan(strategy, p)
	return p, r.call("collio.validate", cell, func() error { return p.Validate(reqs) })
}

func (r *rep) countPlan(strategy string, p *collio.Plan) {
	if strategy != "memory-conscious" {
		return
	}
	r.count("core.domains", float64(len(p.Domains)))
	r.count("core.groups", float64(p.Groups))
	r.count("core.aggregators", float64(len(p.Aggregators())))
}

// sweepMetrics are the extra ledger metrics of a sweep cell.
func sweepMetrics(res *collio.CostResult) map[string]float64 {
	return map[string]float64{
		"domains":           float64(res.Domains),
		"paged_aggregators": float64(res.PagedAggregators),
	}
}

var directions = []collio.Op{collio.Write, collio.Read}

// exaWorkload is the fig-exa IOR pattern: two segments of 4 MB blocks
// per rank, scaled.
func exaWorkload() workload.IOR {
	block := exaPlatform.scaled(4 * mb)
	return workload.IOR{Ranks: exaPlatform.ranks, BlockSize: block, TransferSize: block, Segments: 2}
}

func setupExaClean(seed uint64, s *rep) (func(*rep), error) {
	wl := exaWorkload()
	reqs, err := requests(s, wl)
	if err != nil {
		return nil, err
	}
	memMB := []int{8, 64}
	ctxs, err := contexts(s, exaPlatform, seed, memMB, wl.TotalBytes())
	if err != nil {
		return nil, err
	}
	opt := simOptions()
	return func(r *rep) {
		for mi, ctx := range ctxs {
			for _, strategy := range strategies {
				cell := fmt.Sprintf("%s/mem=%d", strategy, memMB[mi])
				var fs *fastsim.Sim
				p, err := plan(r, cell, strategy, ctx, reqs)
				if err == nil {
					err = r.call("collio.shape", cell, func() error {
						var err error
						fs, err = fastsim.New(ctx, p, reqs)
						return err
					})
				}
				for _, op := range directions {
					name := fmt.Sprintf("fig-exa/%s/%s/mem=%d", strategy, op, memMB[mi])
					if err != nil {
						r.fail(name, err)
						continue
					}
					r.op(name, func() error {
						var res *collio.CostResult
						if err := r.call("fastsim.price", name, func() error {
							var err error
							res, err = fs.Cost(op, opt)
							return err
						}); err != nil {
							return err
						}
						r.count("sim.rounds", float64(res.Totals.Rounds))
						r.count("sim.paged_aggregators", float64(res.PagedAggregators))
						return r.priced(name, res, wl.TotalBytes(), sweepMetrics(res))
					})
				}
			}
		}
	}, nil
}

// exaFaultCell mirrors one cell of the fig-exa-faults grid.
type exaFaultCell struct{ crash, frac, sev float64 }

// exaFaultSpec is the fig-exa-faults schedule of one cell: only the swept
// axes inject events, at rates calibrated to the clean run's window (a
// quarter of the horizon).
func exaFaultSpec(seed uint64, horizon float64, nodes int, c exaFaultCell) faults.Spec {
	spec := faults.DefaultSpec(seed, horizon)
	spec.MsgDelayMTBF = 0
	spec.MsgDropMTBF = 0
	spec.OSTTransientMTBF = 0
	spec.OSTPermanentMTBF = 0
	window := horizon / 4
	spec.NodeCrashMTBF, spec.MemCollapseMTBF = 0, 0
	if c.crash > 0 {
		spec.NodeCrashMTBF = float64(nodes) * window / c.crash
		spec.MemCollapseMTBF = float64(nodes) * window / c.crash
	}
	spec.StragglerMTBF = 0
	if c.frac > 0 {
		spec.StragglerMTBF = window / c.frac
	}
	spec.CollapseFraction = c.sev
	return spec
}

func setupExaFaults(seed uint64, s *rep) (func(*rep), error) {
	wl := exaWorkload()
	reqs, err := requests(s, wl)
	if err != nil {
		return nil, err
	}
	ctxs, err := contexts(s, exaPlatform, seed, []int{16}, wl.TotalBytes())
	if err != nil {
		return nil, err
	}
	ctx := ctxs[0]
	clean := exaFaultCell{0, 0, 0.9}
	heavy := exaFaultCell{8, 0.25, 0.9}
	cellName := func(c exaFaultCell, strategy string) string {
		return fmt.Sprintf("fig-exa-faults/crash=%g,strag=%g,sev=%g/%s", c.crash, c.frac, c.sev, strategy)
	}
	return func(r *rep) {
		for _, strategy := range strategies {
			// The clean control cell injects nothing, so it prices the
			// fault-free reference whose duration sets the heavy cell's
			// horizon (four clean runs).
			name := cellName(clean, strategy)
			var ref float64
			r.op(name, func() error {
				res, err := faultedRun(r, name, ctx, reqs, strategy, faults.DefaultSpec(seed, 1).WithRate(0))
				if err != nil {
					return err
				}
				ref = res.Seconds
				return r.priced(name, &res.CostResult, wl.TotalBytes(), faultMetrics(res))
			})
			name = cellName(heavy, strategy)
			if ref == 0 {
				r.fail(name, fmt.Errorf("no clean reference run"))
				continue
			}
			r.op(name, func() error {
				spec := exaFaultSpec(seed, ref*4, ctx.Topo.Nodes(), heavy)
				res, err := faultedRun(r, name, ctx, reqs, strategy, spec)
				if err != nil {
					return err
				}
				return r.priced(name, &res.CostResult, wl.TotalBytes(), faultMetrics(res))
			})
		}
	}, nil
}

// faultedRun plans afresh — recovery mutates plans — and prices one
// faulted write on the fast path with the strategy's recovery policy.
func faultedRun(r *rep, cell string, ctx *collio.Context, reqs []collio.RankRequest, strategy string, spec faults.Spec) (*collio.FaultResult, error) {
	var inj *faults.Injector
	if err := r.call("faults.generate", cell, func() error {
		fplan, err := spec.Generate(ctx.Topo.Nodes(), ctx.FS.Targets)
		inj = faults.NewInjector(fplan)
		return err
	}); err != nil {
		return nil, err
	}
	var p *collio.Plan
	var handler collio.FaultHandler
	err := r.call(planLayer(strategy), cell, func() error {
		if strategy == "memory-conscious" {
			mp, state, err := core.New().PlanWithState(ctx, reqs)
			p, handler = mp, &core.Failover{State: state, Detect: spec.DetectSeconds}
			return err
		}
		var err error
		p, err = twophase.New().Plan(ctx, reqs)
		handler = twophase.NewStallRetry(ctx.Avail, spec.StallSeconds)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.countPlan(strategy, p)
	if err := r.call("collio.validate", cell, func() error { return p.Validate(reqs) }); err != nil {
		return nil, err
	}
	var res *collio.FaultResult
	if err := r.call("fastsim.faulted_price", cell, func() error {
		res, err = fastsim.CostWithFaults(ctx, p, reqs, collio.Write, simOptions(), inj, handler)
		return err
	}); err != nil {
		return nil, err
	}
	events := 0
	for _, n := range res.Injected {
		events += n
	}
	r.count("faults.injected_events", float64(events))
	r.count("collio.failovers", float64(res.Failovers))
	r.count("collio.stalls", float64(res.Stalls))
	r.count("collio.replayed_rounds", float64(res.ReplayedRounds))
	r.count("sim.recovery_rounds", float64(res.RecoveryRounds))
	r.count("sim.recovery_s", res.RecoverySeconds)
	return res, nil
}

func faultMetrics(res *collio.FaultResult) map[string]float64 {
	return map[string]float64{
		"failovers":        float64(res.Failovers),
		"stalls":           float64(res.Stalls),
		"replayed_rounds":  float64(res.ReplayedRounds),
		"recovery_seconds": res.RecoverySeconds,
	}
}

// collPerfWorkload is Figure 6's 2048³ 4-byte array with the cube edge
// shrunk by the cube root of the scale, over a balanced 3-D process grid.
func collPerfWorkload() workload.CollPerf {
	p := fig6Platform
	grid, _ := workload.DimsCreate(p.ranks) // 120 always factors
	edge := int64(math.Round(2048 / math.Cbrt(float64(p.scale))))
	return workload.CollPerf{ArrayDim: edge, ElemBytes: 4, Grid: grid}
}

func setupCollPerf(seed uint64, s *rep) (func(*rep), error) {
	p := fig6Platform
	wl := collPerfWorkload()
	reqs, err := requests(s, wl)
	if err != nil {
		return nil, err
	}
	memMB := []int{2, 4, 8, 16, 32, 64, 128}
	ctxs, err := contexts(s, p, seed, memMB, wl.TotalBytes())
	if err != nil {
		return nil, err
	}
	opt := simOptions()
	return func(r *rep) {
		for mi, ctx := range ctxs {
			for _, strategy := range strategies {
				cell := fmt.Sprintf("%s/mem=%d", strategy, memMB[mi])
				pl, err := plan(r, cell, strategy, ctx, reqs)
				for _, op := range directions {
					name := fmt.Sprintf("%s/%s/mem=%d", strategy, op, memMB[mi])
					if err != nil {
						r.fail(name, err)
						continue
					}
					r.op(name, func() error {
						var res *collio.CostResult
						if err := r.call("collio.cost", name, func() error {
							var err error
							res, err = collio.Cost(ctx, pl, reqs, op, opt)
							return err
						}); err != nil {
							return err
						}
						r.count("collio.cost_rounds", float64(res.Totals.Rounds))
						return r.priced(name, res, wl.TotalBytes(), sweepMetrics(res))
					})
				}
			}
		}
	}, nil
}

// checkpoint is the checkpoint-rw platform: the Figure 7 interleaved IOR
// pattern at 120 ranks on 10 testbed nodes and 16 OSTs, with 128 KB blocks
// in 4 segments — 512 KB per rank, 60 MB per collective — and 512 KB
// aggregation buffers under the paper's memory variance (σ 1.6 MB). At
// 120 MB a pass took 7–8 s on a 2-vCPU Xeon, so a run held three and its
// wall time spread 10% run to run; at 60 MB a run holds about twenty.
type checkpoint struct {
	ranks, ranksPerNode, targets int
	block                        int64
	segments                     int
	collBuf                      int64
	// afterRead, when set, sees every read-back buffer before the byte
	// compare; the self-test corrupts a byte through it.
	afterRead func(rank int, buf []byte)
}

var checkpointRW = checkpoint{ranks: 120, ranksPerNode: 12, targets: 16, block: 128 << 10, segments: 4, collBuf: 512 << 10}

func (c checkpoint) fsConfig() pfs.Config {
	cfg := pfs.DefaultConfig(c.targets)
	cfg.StripeUnit = 32 << 10
	return cfg
}

func (c checkpoint) params() collio.Params {
	p := collio.DefaultParams(c.collBuf)
	p.MsgInd = 2 * c.collBuf
	p.MsgGroup = groupFactor * p.MsgInd
	return p
}

// memory is the platform's per-node availability draw: mean = buffer
// size, σ = 3.2 buffers, floor 1/256 buffer. The draw is part of the
// platform, fixed by memSeed; the run's seed makes the bytes written, so
// every seed moves the same volume through the same plans.
func (c checkpoint) memory() (mean, sigma, floor int64, memSeed uint64) {
	return c.collBuf, 16 * c.collBuf / 5, c.collBuf / 256, 42
}

func (c checkpoint) workload() workload.IOR {
	return workload.IOR{Ranks: c.ranks, BlockSize: c.block, TransferSize: c.block, Segments: c.segments}
}

func setupCheckpoint(seed uint64, s *rep) (func(*rep), error) {
	return checkpointRW.setup(seed, s)
}

func (c checkpoint) setup(seed uint64, s *rep) (func(*rep), error) {
	wl := c.workload()
	reqs, err := requests(s, wl)
	if err != nil {
		return nil, err
	}
	perRank := wl.BytesPerRank()
	var written, readBack [][]byte
	if err := s.call("workload.buffers", "", func() error {
		rng := stats.NewRNG(seed)
		written = make([][]byte, c.ranks)
		readBack = make([][]byte, c.ranks)
		for i := range written {
			written[i] = make([]byte, perRank)
			var word [8]byte
			for j := 0; j < len(written[i]); j += 8 {
				binary.LittleEndian.PutUint64(word[:], rng.Uint64())
				copy(written[i][j:], word[:])
			}
			readBack[i] = make([]byte, perRank)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	views := make([]mcio.View, c.ranks)
	for i := range views {
		views[i] = mcio.View{
			Disp:     int64(i) * c.block,
			Filetype: mcio.Vector{Count: c.segments, BlockLen: c.block, Stride: int64(c.ranks) * c.block},
		}
	}
	total := wl.TotalBytes()
	passes := 0
	return func(r *rep) {
		passes++
		for _, strategy := range strategies {
			for i := range readBack {
				clear(readBack[i])
			}
			// A fresh file per collective: object growth in the byte
			// store is a first-write cost.
			name := fmt.Sprintf("ckpt-%d-%s", passes, strategy)
			var write func() (*collio.CostResult, error)
			var read func() (*collio.CostResult, error)
			var err error
			if r.tr == nil {
				write, read, err = c.public(name, strategy, views, written, readBack)
			} else {
				write, read, err = c.layered(r, name, strategy, reqs, written, readBack)
			}
			for _, op := range directions {
				cell := fmt.Sprintf("checkpoint/%s/%s", strategy, op)
				if err != nil {
					r.fail(cell, err)
					continue
				}
				r.op(cell, func() error {
					f, bytesp, secsp := write, &r.writeBytes, &r.writeSecs
					if op == collio.Read {
						f, bytesp, secsp = read, &r.readBytes, &r.readSecs
					}
					t := time.Now()
					res, err := f()
					*secsp += since(t)
					*bytesp += float64(total)
					if err != nil {
						return err
					}
					if err := r.priced(cell, res, total, nil); err != nil {
						return err
					}
					if op == collio.Read {
						return c.compare(written, readBack)
					}
					return nil
				})
			}
		}
	}, nil
}

// compare is the read-back gate: every rank gets back exactly the bytes
// it wrote.
func (c checkpoint) compare(written, readBack [][]byte) error {
	for i := range readBack {
		if c.afterRead != nil {
			c.afterRead(i, readBack[i])
		}
		if !bytes.Equal(written[i], readBack[i]) {
			return fmt.Errorf("rank %d read back different bytes than it wrote", i)
		}
	}
	return nil
}

// public drives the collective through the public API: a fresh system
// with the platform's memory variance, Open, then WriteAll and ReadAll.
func (c checkpoint) public(name, strategy string, views []mcio.View, written, readBack [][]byte) (write, read func() (*collio.CostResult, error), err error) {
	sys, err := mcio.NewSystem(mcio.SystemConfig{
		Ranks: c.ranks, RanksPerNode: c.ranksPerNode, FS: c.fsConfig(), Params: c.params(),
	})
	if err != nil {
		return nil, nil, err
	}
	mean, sigma, floor, memSeed := c.memory()
	sys.ApplyMemoryVariance(mean, sigma, floor, memSeed)
	f, err := sys.Open(name, newStrategy(strategy))
	if err != nil {
		return nil, nil, err
	}
	for i, v := range views {
		if err := f.SetView(i, v); err != nil {
			return nil, nil, err
		}
	}
	args := func(bufs [][]byte) []mcio.CollArgs {
		a := make([]mcio.CollArgs, len(bufs))
		for i, b := range bufs {
			a[i] = mcio.CollArgs{Buf: b}
		}
		return a
	}
	write = func() (*collio.CostResult, error) { return f.WriteAll(args(written)) }
	read = func() (*collio.CostResult, error) { return f.ReadAll(args(readBack)) }
	return write, read, nil
}

// layered performs the same collective as WriteAll/ReadAll — plan,
// validate, collio.Exec over the mpi runtime and the pfs byte store, then
// price — one layer call at a time, so each can be traced.
func (c checkpoint) layered(r *rep, name, strategy string, reqs []collio.RankRequest, written, readBack [][]byte) (write, read func() (*collio.CostResult, error), err error) {
	topo, err := mpi.BlockTopology(c.ranks, c.ranksPerNode)
	if err != nil {
		return nil, nil, err
	}
	mc := machine.Testbed640().Scaled(topo.Nodes())
	m, err := machine.New(mc)
	if err != nil {
		return nil, nil, err
	}
	mean, sigma, floor, memSeed := c.memory()
	avail := memmodel.ApplyAvailability(m, memmodel.Normal{Mean: float64(mean), Sigma: float64(sigma)}, stats.NewRNG(memSeed), floor)
	fsys, err := pfs.NewFileSystem(c.fsConfig())
	if err != nil {
		return nil, nil, err
	}
	pfsObs := &obs.Observer{Metrics: obs.NewRegistry()}
	fsys.SetObserver(pfsObs)
	ctx := &collio.Context{Topo: topo, Machine: mc, Avail: avail, FS: c.fsConfig(), Params: c.params()}
	if err := ctx.Validate(); err != nil {
		return nil, nil, err
	}
	file := fsys.Open(name)
	data := func(bufs [][]byte) []collio.RankData {
		d := make([]collio.RankData, len(bufs))
		for i, b := range bufs {
			d[i] = collio.RankData{Req: reqs[i], Buf: b}
		}
		return d
	}
	collective := func(op collio.Op, bufs [][]byte) (*collio.CostResult, error) {
		cell := fmt.Sprintf("checkpoint/%s/%s", strategy, op)
		p, err := plan(r, cell, strategy, ctx, reqs)
		if err != nil {
			return nil, err
		}
		if err := r.call("collio.exec_"+op.String(), cell, func() error {
			return collio.Exec(ctx, p, data(bufs), file, op)
		}); err != nil {
			return nil, err
		}
		var res *collio.CostResult
		err = r.call("collio.cost", cell, func() error {
			var err error
			res, err = collio.Cost(ctx, p, reqs, op, sim.DefaultOptions())
			return err
		})
		if err == nil {
			r.count("collio.cost_rounds", float64(res.Totals.Rounds))
		}
		if op == collio.Read {
			for t := 0; t < c.targets; t++ {
				r.count("pfs.requests", float64(pfsObs.Counter("pfs.requests", obs.L("ost", strconv.Itoa(t))).Value()))
			}
			for _, b := range append(fsys.Stats().Written(), fsys.Stats().Read()...) {
				r.count("pfs.bytes", float64(b))
			}
		}
		return res, err
	}
	write = func() (*collio.CostResult, error) { return collective(collio.Write, written) }
	read = func() (*collio.CostResult, error) { return collective(collio.Read, readBack) }
	return write, read, nil
}
