// Package twophase implements the baseline the paper compares against:
// ROMIO's classic two-phase collective I/O. The aggregate access range is
// split evenly by file offset into one file domain per aggregator, with
// exactly one aggregator per compute node (ROMIO's default cb_nodes
// behaviour), a fixed collective buffer (cb_buffer_size), and a single
// global aggregation group — the assignment is "independent of the
// distribution of the data over the process" (§4) and of per-node memory
// availability, which is precisely the weakness the memory-conscious
// strategy targets.
package twophase

import (
	"mcio/internal/collio"
	"mcio/internal/pfs"
)

// Strategy is the classic two-phase planner.
type Strategy struct {
	// AggregatorsPerNode overrides ROMIO's one-aggregator-per-node
	// default when > 1 (ROMIO hint cb_config_list); ablation experiments
	// use it.
	AggregatorsPerNode int
}

// New returns the default two-phase strategy (one aggregator per node).
func New() *Strategy { return &Strategy{AggregatorsPerNode: 1} }

// Name implements collio.Strategy.
func (s *Strategy) Name() string { return "two-phase" }

// Plan implements collio.Strategy.
func (s *Strategy) Plan(ctx *collio.Context, reqs []collio.RankRequest) (*collio.Plan, error) {
	norm, members, aggs, err := Setup(ctx, reqs, s.AggregatorsPerNode)
	if err != nil {
		return nil, err
	}
	plan := &collio.Plan{Strategy: s.Name(), Groups: 1, GroupRanks: [][]int{members}}
	if len(norm) == 0 {
		collio.RecordPlanMetrics(ctx.Obs, plan)
		return plan, nil
	}

	// Divide the aggregate access range evenly by offset — oblivious to
	// where the data actually is, like ADIOI_Calc_file_domains.
	span := pfs.Span(norm)
	nAggs := int64(len(aggs))
	domSize := (span.Length + nAggs - 1) / nAggs
	for i := int64(0); i < nAggs; i++ {
		lo := span.Offset + i*domSize
		hi := lo + domSize
		if hi > span.End() {
			hi = span.End()
		}
		exts := pfs.Clip(norm, lo, hi)
		if len(exts) == 0 {
			continue // aggregator with an empty domain sits the call out
		}
		plan.Domains = append(plan.Domains, Domain(ctx, exts, aggs[i]))
	}
	collio.RecordPlanMetrics(ctx.Obs, plan)
	return plan, nil
}

// Setup is the planning preamble two-phase and layout-aware share. It
// validates the context, passes the requests through collio's gate and
// returns their union, the ranks with data (the single group's members),
// and ROMIO's default aggregators: the first rank on each node, or the
// first perNode ranks when perNode > 1.
func Setup(ctx *collio.Context, reqs []collio.RankRequest, perNode int) (union []pfs.Extent, members, aggs []int, err error) {
	if err := ctx.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if union, err = collio.CheckRequests(ctx.Topo.Size(), reqs); err != nil {
		return nil, nil, nil, err
	}
	members = make([]int, 0, len(reqs))
	for _, r := range reqs {
		if len(r.Extents) > 0 {
			members = append(members, r.Rank)
		}
	}
	for node := 0; node < ctx.Topo.Nodes(); node++ {
		ranks := ctx.Topo.RanksOnNode(node)
		aggs = append(aggs, ranks[:min(max(perNode, 1), len(ranks))]...)
	}
	return union, members, aggs, nil
}

// Domain is the file domain over exts that aggregator agg services with
// the fixed collective buffer: the baseline allocates it regardless of
// what the host actually has free, and the shortfall pages.
func Domain(ctx *collio.Context, exts []pfs.Extent, agg int) collio.Domain {
	node := ctx.Topo.NodeOf(agg)
	buf := ctx.Params.CollBufSize
	var severity float64
	if avail := ctx.Avail[node]; avail < buf {
		severity = float64(buf-avail) / float64(buf)
	}
	return collio.Domain{
		Extents:       exts,
		Bytes:         pfs.TotalBytes(exts),
		Aggregator:    agg,
		AggNode:       node,
		BufferBytes:   buf,
		PagedSeverity: severity,
	}
}
