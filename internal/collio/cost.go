package collio

import (
	"fmt"
	"sort"
	"strconv"

	"mcio/internal/obs"
	"mcio/internal/sim"
	"mcio/internal/stats"
)

// CostResult is the priced outcome of one collective operation.
type CostResult struct {
	Strategy  string
	Op        Op
	UserBytes int64
	Seconds   float64
	// Bandwidth is UserBytes/Seconds in bytes per second — the number the
	// paper's figures plot.
	Bandwidth float64
	Totals    sim.Totals

	// Aggregator-side accounting, the paper's secondary metrics.
	Aggregators      int
	PagedAggregators int
	Domains          int
	Groups           int
	MaxRounds        int
	// BufferSummary summarizes per-domain aggregation buffer sizes (memory
	// consumption per aggregator); its CV is the "variance among
	// processes" the paper's strategy minimizes.
	BufferSummary stats.Summary

	// Trace holds per-round records when sim.Options.Trace was set.
	Trace []sim.TraceEntry
}

// extentListEntryBytes is the wire size of one (offset, length) record in
// the metadata exchange, as in ROMIO's flattened offset/length lists.
const extentListEntryBytes = 16

// costObs carries the byte engine's rank-level observability wiring:
// per-rank MPI traffic counters (the engine only sees nodes) and
// per-domain shuffle counters, pre-resolved so the per-round loop pays
// one atomic add per update. Nil means disabled.
type costObs struct {
	sentB []*obs.Counter // bytes sent, by world rank
	sentM []*obs.Counter // messages sent, by world rank
	recvB []*obs.Counter // bytes received, by world rank
	recvM []*obs.Counter // messages received, by world rank
	shuf  []*obs.Counter // shuffle bytes, by domain index
}

// newCostObs pre-resolves the instruments for one priced operation.
func newCostObs(ctx *Context, plan *Plan, op Op) *costObs {
	if ctx.Obs == nil {
		return nil
	}
	co := &costObs{}
	base := []obs.Label{obs.L("strategy", plan.Strategy), obs.L("op", op.String())}
	n := ctx.Topo.Size()
	co.sentB = make([]*obs.Counter, n)
	co.sentM = make([]*obs.Counter, n)
	co.recvB = make([]*obs.Counter, n)
	co.recvM = make([]*obs.Counter, n)
	for r := 0; r < n; r++ {
		labels := append(append([]obs.Label(nil), base...), obs.L("rank", strconv.Itoa(r)))
		co.sentB[r] = ctx.Obs.Counter("mpi.bytes_sent", labels...)
		co.sentM[r] = ctx.Obs.Counter("mpi.msgs_sent", labels...)
		co.recvB[r] = ctx.Obs.Counter("mpi.bytes_recv", labels...)
		co.recvM[r] = ctx.Obs.Counter("mpi.msgs_recv", labels...)
	}
	co.shuf = make([]*obs.Counter, len(plan.Domains))
	for i, d := range plan.Domains {
		labels := append(append([]obs.Label(nil), base...),
			obs.L("group", strconv.Itoa(d.Group)),
			obs.L("aggregator", strconv.Itoa(d.Aggregator)))
		co.shuf[i] = ctx.Obs.Counter("collio.shuffle_bytes", labels...)
	}
	return co
}

// transfer accounts one rank-to-rank transfer.
func (co *costObs) transfer(src, dst int, bytes int64) {
	if co == nil {
		return
	}
	co.sentB[src].Add(bytes)
	co.sentM[src].Inc()
	co.recvB[dst].Add(bytes)
	co.recvM[dst].Inc()
}

// shuffle accounts one shuffle message of the domain at index dom
// between ranks src and dst.
func (co *costObs) shuffle(dom, src, dst int, bytes int64) {
	if co == nil {
		return
	}
	co.transfer(src, dst, bytes)
	co.shuf[dom].Add(bytes)
}

// newCostEngine builds the engine that prices one operation on plan —
// storage model, observer, aggregator placements and, when ctx.Timeline
// is set, the timeline with its plan-time buffer gauges — and returns
// it with the trace process of the plan's strategy.
func newCostEngine(ctx *Context, plan *Plan, op Op, opt sim.Options) (*sim.Engine, int, error) {
	if err := ctx.Validate(); err != nil {
		return nil, 0, err
	}
	eng, err := sim.NewEngine(ctx.Machine, ctx.StorageParams(), opt)
	if err != nil {
		return nil, 0, err
	}
	pid := 0
	if ctx.Obs != nil {
		pid = ctx.Obs.Tracer().PID(plan.Strategy)
		eng.SetObserver(ctx.Obs, pid,
			obs.L("strategy", plan.Strategy), obs.L("op", op.String()))
	}
	placements := make([]sim.AggregatorPlacement, len(plan.Domains))
	for i, d := range plan.Domains {
		placements[i] = sim.AggregatorPlacement{
			Node:          d.AggNode,
			BufferBytes:   d.BufferBytes,
			PagedSeverity: d.PagedSeverity,
		}
	}
	eng.SetAggregators(placements)
	tlAttach(ctx, eng, plan, op)
	tlBufferGauges(ctx, plan.Domains, 0)
	return eng, pid, nil
}

// costResult assembles the outcome of a priced operation once eng has
// run all of its data rounds: the run's trace span on process pid (when
// observed), the engine totals and the plan-side accounting. suffix
// tags the span name.
func costResult(ctx *Context, plan *Plan, op Op, opt sim.Options, eng *sim.Engine, pid, rounds int, suffix string) *CostResult {
	userBytes := plan.TotalBytes()
	if ctx.Obs != nil {
		span := ctx.Obs.Tracer().Begin(pid, sim.TIDTimeline,
			plan.Strategy+" "+op.String()+suffix, 0,
			obs.A("groups", strconv.Itoa(plan.Groups)),
			obs.A("domains", strconv.Itoa(len(plan.Domains))),
			obs.A("rounds", strconv.Itoa(rounds)),
			obs.A("user_bytes", strconv.FormatInt(userBytes, 10)))
		span.End(eng.Elapsed())
	}
	res := &CostResult{
		Strategy:    plan.Strategy,
		Op:          op,
		UserBytes:   userBytes,
		Seconds:     eng.Elapsed(),
		Bandwidth:   eng.Bandwidth(userBytes),
		Totals:      eng.Totals(),
		Aggregators: len(plan.Aggregators()),
		Domains:     len(plan.Domains),
		Groups:      plan.Groups,
		MaxRounds:   rounds,
	}
	buffers := make([]float64, 0, len(plan.Domains))
	for _, d := range plan.Domains {
		buffers = append(buffers, float64(d.BufferBytes))
		if d.PagedSeverity > 0 {
			res.PagedAggregators++
		}
	}
	res.BufferSummary = stats.Summarize(buffers)
	if opt.Trace {
		res.Trace = eng.Trace()
	}
	return res
}

// metaRound is the byte engine's metadata exchange: within each group,
// every member rank ships its flattened offset/length list to each of
// the group's aggregators, one message per (rank, aggregator) pair. The
// baseline has one group spanning all ranks, so this is the global
// request exchange of classic two-phase I/O; the memory-conscious
// strategy confines it to each group.
func metaRound(ctx *Context, plan *Plan, reqs []RankRequest, co *costObs) []sim.AggMessage {
	listBytes, aggsByGroup := metaInputs(ctx, plan, reqs)
	var msgs []sim.AggMessage
	for g, ranks := range plan.GroupRanks {
		aggs := aggsByGroup[g]
		for _, r := range ranks {
			bytes := listBytes[r]
			if bytes == 0 {
				continue
			}
			for _, a := range aggs {
				msgs = append(msgs, sim.AggMessage{
					SrcNode: ctx.Topo.NodeOf(r),
					DstNode: ctx.Topo.NodeOf(a),
					Bytes:   bytes,
					Count:   1,
				})
				co.transfer(r, a, bytes)
			}
		}
	}
	return msgs
}

// Cost prices plan against the context's machine and storage models
// without moving any data, on the byte engine: every contributing rank
// sends its own shuffle message. The same plan and requests always
// produce the same result.
func Cost(ctx *Context, plan *Plan, reqs []RankRequest, op Op, opt sim.Options) (*CostResult, error) {
	res, err := price(ctx, plan, reqs, nil, false, op, opt, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	return &res.CostResult, nil
}

// String renders the result in one line for experiment logs.
func (r *CostResult) String() string {
	return fmt.Sprintf("%s %s: %.2f MB/s (%.4fs, %d groups, %d domains, %d aggs, %d paged, %d rounds)",
		r.Strategy, r.Op, r.Bandwidth/1e6, r.Seconds, r.Groups, r.Domains,
		r.Aggregators, r.PagedAggregators, r.MaxRounds)
}

// dedupInts sorts xs in place and compacts out duplicates — O(n log n),
// no allocation. The returned slice aliases xs. Callers only feed the
// result into order-independent accumulations (per-node byte sums,
// commutative counters), so the ordering is free to change.
func dedupInts(xs []int) []int {
	if len(xs) < 2 {
		return xs
	}
	sort.Ints(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
