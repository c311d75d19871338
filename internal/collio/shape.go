package collio

import (
	"sort"

	"mcio/internal/pfs"
	"mcio/internal/sim"
)

// Shape is the round structure of a planned collective operation,
// described without executing it: what the metadata exchange moves
// between nodes, and what every data round shuffles and stores, as
// aggregate per-route and per-node quantities. It is the plan-side half
// of the analytical fast path (internal/fastsim): Cost derives the same
// quantities implicitly by replaying one message per rank, Shape exposes
// them in O(aggregators + contributing nodes) so an engine can price a
// million-rank operation from a few thousand numbers.
type Shape struct {
	// MaxRounds is the global round count: rounds are priced in lockstep
	// across domains, and domain i is staggered by i buffer slots.
	MaxRounds int
	// MetaExchanges is the metadata scatter, one all-to-all exchange per
	// group with aggregators and contributing members: each source node's
	// extent-list bytes to each aggregator slot. The exchange form stays
	// linear in nodes where the per-route form is a dense source × slot
	// product (the whole machine squared, for the single-group two-phase
	// baseline).
	MetaExchanges []sim.Exchange
	// MetaMessages is the number of point-to-point metadata messages the
	// exchanges stand for (one per member rank per group aggregator).
	MetaMessages int
	// Domains holds one entry per plan domain, aligned with
	// Plan.Domains.
	Domains []DomainShape
}

// DomainShape is one file domain's round structure: its geometry plus
// the per-node shuffle contributions, pre-split so any round's exact
// share is a binary search away.
type DomainShape struct {
	// Index is the domain's position in Plan.Domains; the cyclic round
	// stagger is keyed on it.
	Index int
	// Rounds is Domain.Rounds(): collective-buffer cycles to drain the
	// domain.
	Rounds int
	// AggNode hosts the domain's aggregator.
	AggNode int
	// BufferBytes is the aggregator's collective buffer.
	BufferBytes int64
	// Extents aliases the domain's (normalized) data extents.
	Extents []pfs.Extent
	// Contribs lists the nodes shuffling data with the aggregator,
	// ascending by node.
	Contribs []NodeContrib
}

// NodeContrib aggregates one node's shuffle contributions to a domain
// across the domain's rounds. The byte path splits each rank's
// contribution evenly over the rounds, giving round k
// floor(bytes/rounds) plus one extra byte while k < bytes%rounds; the
// per-node aggregate of that split is reconstructed exactly from the
// floor sum and the sorted remainder multiset.
type NodeContrib struct {
	// Node is the contributing compute node.
	Node int
	// Count is the number of contributing ranks on the node.
	Count int
	// Bytes is the node's total contribution to the domain.
	Bytes int64

	floorSum int64   // Σ floor(rankBytes/rounds) over the node's ranks
	posFloor int     // ranks whose floor share is positive
	rems     []int64 // positive remainders rankBytes%rounds, sorted
	remsZero []int64 // subset of rems where the floor share is zero, sorted
}

// RoundShare returns the node's exact shuffle bytes and positive-byte
// message count in round k of the domain — what the byte path's
// per-rank even split produces, summed over the node's ranks.
func (c *NodeContrib) RoundShare(k int) (bytes int64, msgs int) {
	kk := int64(k)
	extra := len(c.rems) - sort.Search(len(c.rems), func(i int) bool { return c.rems[i] > kk })
	zero := len(c.remsZero) - sort.Search(len(c.remsZero), func(i int) bool { return c.remsZero[i] > kk })
	return c.floorSum + int64(extra), c.posFloor + zero
}

// add folds one rank's contribution of bytes, split evenly over rounds,
// into the aggregate.
func (c *NodeContrib) add(bytes int64, rounds int) {
	c.Count++
	c.Bytes += bytes
	fl, rem := bytes/int64(rounds), bytes%int64(rounds)
	c.floorSum += fl
	if fl > 0 {
		c.posFloor++
	}
	if rem > 0 {
		c.rems = append(c.rems, rem)
		if fl == 0 {
			c.remsZero = append(c.remsZero, rem)
		}
	}
}

// RoundSlice returns the file extents the domain's aggregator drains in
// round k: the staggered collective-buffer window the byte path uses.
func (d *DomainShape) RoundSlice(k int) []pfs.Extent {
	return d.RoundSliceAppend(nil, k)
}

// RoundSliceAppend is RoundSlice appending to a caller-owned slice, so a
// pricing loop over every (domain, round) pair reuses one allocation.
func (d *DomainShape) RoundSliceAppend(dst []pfs.Extent, k int) []pfs.Extent {
	return pfs.SliceDataAppend(dst, d.Extents, int64((k+d.Index)%d.Rounds)*d.BufferBytes, d.BufferBytes)
}

// BuildShape derives the round structure of plan for the given requests.
// The result is deterministic and self-contained: building it walks each
// rank's request list once (metadata sizes and domain overlaps) and
// never materializes per-rank rounds.
func BuildShape(ctx *Context, plan *Plan, reqs []RankRequest) (*Shape, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	sh := &Shape{}
	sh.MetaExchanges, sh.MetaMessages = buildMetaExchanges(ctx, plan, reqs)
	// Domain shapes: geometry plus per-node contribution aggregates.
	sh.Domains = make([]DomainShape, len(plan.Domains))
	buckets := make([][]pfs.Extent, len(plan.Domains))
	contribs := make([]map[int]*NodeContrib, len(plan.Domains))
	for i, d := range plan.Domains {
		rd := d.Rounds()
		if rd > sh.MaxRounds {
			sh.MaxRounds = rd
		}
		sh.Domains[i] = DomainShape{
			Index:       i,
			Rounds:      rd,
			AggNode:     d.AggNode,
			BufferBytes: d.BufferBytes,
			Extents:     d.Extents,
		}
		buckets[i] = d.Extents
		contribs[i] = map[int]*NodeContrib{}
	}
	if len(plan.Domains) > 0 {
		index := NewExtentIndex(buckets)
		var overlaps []BucketBytes // one scratch allocation for all requests
		for _, r := range reqs {
			if len(r.Extents) == 0 {
				continue
			}
			node := ctx.Topo.NodeOf(r.Rank)
			overlaps = index.OverlapAppend(overlaps[:0], r.Extents)
			for _, bb := range overlaps {
				nc := contribs[bb.Bucket][node]
				if nc == nil {
					nc = &NodeContrib{Node: node}
					contribs[bb.Bucket][node] = nc
				}
				nc.add(bb.Bytes, sh.Domains[bb.Bucket].Rounds)
			}
		}
	}
	for i := range sh.Domains {
		sh.Domains[i].Contribs = sortedNodeContribs(contribs[i])
	}
	return sh, nil
}

// CostShape prices plan from its round structure sh, the analytical
// fast path's clean pricing: per domain and round, the node-aggregated
// shuffle share plus the storage accesses of the round's staggered
// buffer slice — the quantities Cost reduces its per-rank messages to,
// so the result matches Cost field for field. The AggRound backing
// arrays, the slice scratch and the stripe mapper are recycled across
// the (domain, round) loop, so steady-state pricing allocates nothing
// per round. fastsim.Sim.Cost is its public face.
func CostShape(ctx *Context, plan *Plan, sh *Shape, op Op, opt sim.Options) (*CostResult, error) {
	eng, pid, err := newCostEngine(ctx, plan, op, opt)
	if err != nil {
		return nil, err
	}
	if len(sh.MetaExchanges) > 0 {
		eng.RunAggRound(sim.AggRound{Kind: sim.RoundMetadata, Exchanges: sh.MetaExchanges})
	}
	var round sim.AggRound
	var slice []pfs.Extent
	mapper := ctx.FS.NewMapper()
	for k := 0; k < sh.MaxRounds; k++ {
		round.Messages = round.Messages[:0]
		round.IOOps = round.IOOps[:0]
		for i := range sh.Domains {
			d := &sh.Domains[i]
			if k >= d.Rounds {
				continue
			}
			for ci := range d.Contribs {
				c := &d.Contribs[ci]
				bytes, msgs := c.RoundShare(k)
				if bytes == 0 {
					continue
				}
				m := sim.AggMessage{SrcNode: c.Node, DstNode: d.AggNode, Bytes: bytes, Count: msgs}
				if op == Read {
					m.SrcNode, m.DstNode = m.DstNode, m.SrcNode
				}
				round.Messages = append(round.Messages, m)
			}
			slice = d.RoundSliceAppend(slice[:0], k)
			for _, acc := range mapper.Map(slice) {
				round.IOOps = append(round.IOOps, sim.IOOp{
					Target:     acc.Target,
					Node:       d.AggNode,
					Bytes:      acc.Bytes,
					Requests:   acc.Requests,
					Contiguous: acc.Contiguous,
					Write:      op == Write,
				})
			}
		}
		eng.RunAggRound(round)
	}
	return costResult(ctx, plan, op, opt, eng, pid, sh.MaxRounds, ""), nil
}

// metaInputs returns what the metadata exchange moves: each rank's
// flattened extent-list payload in bytes (one wire record per
// extent) and each group's aggregator ranks, sorted and
// deduplicated. Both engines' metadata builders start from it.
func metaInputs(plan *Plan, reqs []RankRequest) (listBytes map[int]int64, aggsByGroup map[int][]int) {
	listBytes = make(map[int]int64, len(reqs))
	for _, r := range reqs {
		listBytes[r.Rank] = int64(len(r.Extents)) * extentListEntryBytes
	}
	aggsByGroup = make(map[int][]int)
	for _, d := range plan.Domains {
		aggsByGroup[d.Group] = append(aggsByGroup[d.Group], d.Aggregator)
	}
	for g, aggs := range aggsByGroup {
		aggsByGroup[g] = dedupInts(aggs)
	}
	return listBytes, aggsByGroup
}

// buildMetaExchanges derives the metadata scatter in closed form, one
// exchange per group: every member rank ships its flattened extent list
// to each group aggregator. Ranks are folded per source node and
// aggregators per destination node (duplicate aggregator ranks on one
// node are slots, each counting, as on the byte path); the engine
// prices the cross product in O(sources + destinations). Returns the
// exchanges and the point-to-point message count they stand for.
func buildMetaExchanges(ctx *Context, plan *Plan, reqs []RankRequest) ([]sim.Exchange, int) {
	listBytes, aggsByGroup := metaInputs(plan, reqs)
	var exchanges []sim.Exchange
	messages := 0
	srcBytes := map[int]*sim.ExchangeSrc{} // per-group scratch: src node -> bytes, rank count
	for g, ranks := range plan.GroupRanks {
		aggs := aggsByGroup[g]
		if len(aggs) == 0 {
			continue
		}
		clear(srcBytes)
		for _, r := range ranks {
			bytes := listBytes[r]
			if bytes == 0 {
				continue
			}
			node := ctx.Topo.NodeOf(r)
			f := srcBytes[node]
			if f == nil {
				f = &sim.ExchangeSrc{Node: node}
				srcBytes[node] = f
			}
			f.Bytes += bytes
			f.Count++
		}
		if len(srcBytes) == 0 {
			continue
		}
		x := sim.Exchange{Srcs: make([]sim.ExchangeSrc, 0, len(srcBytes))}
		srcRanks := 0
		for _, f := range srcBytes {
			x.Srcs = append(x.Srcs, *f)
			srcRanks += f.Count
		}
		sort.Slice(x.Srcs, func(i, j int) bool { return x.Srcs[i].Node < x.Srcs[j].Node })
		slots := map[int]int{}
		for _, a := range aggs {
			slots[ctx.Topo.NodeOf(a)]++
		}
		x.Dsts = make([]sim.ExchangeDst, 0, len(slots))
		for node, n := range slots {
			x.Dsts = append(x.Dsts, sim.ExchangeDst{Node: node, Slots: n})
		}
		sort.Slice(x.Dsts, func(i, j int) bool { return x.Dsts[i].Node < x.Dsts[j].Node })
		exchanges = append(exchanges, x)
		messages += srcRanks * len(aggs)
	}
	return exchanges, messages
}

// sortInt64s sorts xs ascending.
func sortInt64s(xs []int64) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}
