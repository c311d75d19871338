package main

import (
	"fmt"

	"mcio/internal/collio"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/pfs"
	"mcio/internal/sim"
	"mcio/internal/stats"
)

const mb = int64(1) << 20

// Strategy tunables every ledger experiment shares: N_ah aggregators per
// node and Msg_group = 8 × Msg_ind.
const (
	nah         = 4
	groupFactor = 8
)

// platform is one ledger experiment's machine and storage, rebuilt from
// public constructors the way the experiment harness builds it, so that a
// seed-42 run reproduces the committed baselines entry for entry.
type platform struct {
	ranks, ranksPerNode, targets int
	scale                        int64
	sigmaMB                      float64
	msgIndMB                     int
	preset                       string
}

// fig6Platform is the coll_perf testbed of Figure 6: 120 ranks on 10
// nodes, 16 OSTs.
var fig6Platform = platform{ranks: 120, ranksPerNode: 12, targets: 16, scale: 64, sigmaMB: 50, msgIndMB: 32}

// exaPlatform is the fig-exa design point: 1M ranks on 10k exascale2018
// nodes, 1024 OSTs.
var exaPlatform = platform{ranks: 1_000_000, ranksPerNode: 100, targets: 1024, scale: 64, sigmaMB: 50, msgIndMB: 32, preset: "exascale2018"}

func (p platform) scaled(bytes int64) int64 { return max(bytes/p.scale, 1) }

func (p platform) nodes() int { return (p.ranks + p.ranksPerNode - 1) / p.ranksPerNode }

// draws returns one standard-normal memory endowment per node, shared by
// every memory point of a sweep.
func (p platform) draws(seed uint64) []float64 {
	r := stats.NewRNG(seed)
	zs := make([]float64, p.nodes())
	for i := range zs {
		zs[i] = r.Normal(0, 1)
	}
	return zs
}

// context builds the planning context at memMB paper-scale megabytes of
// mean aggregator memory: availability mean + σ·z per node, clamped to a
// floor and to the node's DRAM, and Msg_ind floored so the domain count
// fits the machine's aggregator slots.
func (p platform) context(memMB int, zs []float64, totalBytes int64) (*collio.Context, error) {
	topo, err := mpi.BlockTopology(p.ranks, p.ranksPerNode)
	if err != nil {
		return nil, err
	}
	preset, err := machine.Preset(p.preset)
	if err != nil {
		return nil, err
	}
	mc := preset.Scaled(topo.Nodes())
	mc.NetLatency /= float64(p.scale)

	fsCfg := pfs.DefaultConfig(p.targets)
	fsCfg.StripeUnit = p.scaled(mb)
	fsCfg.ReqOverhead /= float64(p.scale)

	memMean := p.scaled(int64(memMB) * mb)
	sigma := float64(p.scaled(int64(p.sigmaMB * float64(mb))))
	floor := p.scaled(64 << 10)
	avail := make([]int64, topo.Nodes())
	for i := range avail {
		avail[i] = min(max(int64(float64(memMean)+sigma*zs[i]), floor), mc.MemPerNode)
	}

	msgInd := max(p.scaled(int64(p.msgIndMB)*mb), memMean)
	slots := int64(0)
	for _, a := range avail {
		slots += min(a/memMean, nah)
	}
	msgInd = max(msgInd, totalBytes/max(slots, 1))
	ctx := &collio.Context{
		Topo:    topo,
		Machine: mc,
		Avail:   avail,
		FS:      fsCfg,
		Params: collio.Params{
			CollBufSize: memMean,
			MsgInd:      msgInd,
			MsgGroup:    groupFactor * msgInd,
			Nah:         nah,
			MemMin:      memMean / 2,
		},
	}
	if err := ctx.Validate(); err != nil {
		return nil, fmt.Errorf("context at %d MB: %w", memMB, err)
	}
	return ctx, nil
}

// simOptions are the pricing options of every ledger sweep: blocking
// phases, N_ah-aware contention and per-round traces for blame export.
func simOptions() sim.Options {
	opt := sim.DefaultOptions()
	opt.NahOpt = nah
	opt.Trace = true
	return opt
}
