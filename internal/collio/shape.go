package collio

import (
	"sort"

	"mcio/internal/pfs"
	"mcio/internal/sim"
)

// Shape is the round structure of a planned collective operation,
// described without executing it: what the metadata exchange moves
// between nodes, and what every domain shuffles, as aggregate per-route
// and per-node quantities. Domain geometry (extents, buffer, rounds)
// stays in the plan. It is the plan-side half of the analytical fast
// path (internal/fastsim): the byte engine walks one message per rank,
// Shape exposes the same quantities in O(aggregators + contributing
// nodes), so the pricing loop can price a million-rank operation from a
// few thousand numbers.
type Shape struct {
	// MetaExchanges is the metadata scatter, one all-to-all exchange per
	// group with aggregators and contributing members: each source node's
	// extent-list bytes to each aggregator slot. The exchange form stays
	// linear in nodes where the per-route form is a dense source × slot
	// product (the whole machine squared, for the single-group two-phase
	// baseline).
	MetaExchanges []sim.Exchange
	// Contribs holds one entry per plan domain, aligned with
	// Plan.Domains: the nodes shuffling data with the domain's
	// aggregator, ascending by node, pre-split so any round's exact share
	// is a binary search away.
	Contribs [][]NodeContrib
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

// BuildShape derives the round structure of plan for the given requests.
// The result is deterministic and self-contained: building it walks each
// rank's request list once (metadata sizes and domain overlaps) and
// never materializes per-rank rounds.
func BuildShape(ctx *Context, plan *Plan, reqs []RankRequest) (*Shape, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	sh := &Shape{MetaExchanges: buildMetaExchanges(ctx, plan, reqs)}
	// Per-node contribution aggregates of every domain.
	buckets := make([][]pfs.Extent, len(plan.Domains))
	rounds := make([]int, len(plan.Domains))
	contribs := make([]map[int]*NodeContrib, len(plan.Domains))
	for i, d := range plan.Domains {
		buckets[i] = d.Extents
		rounds[i] = d.Rounds()
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
				nc.add(bb.Bytes, rounds[bb.Bucket])
			}
		}
	}
	sh.Contribs = make([][]NodeContrib, len(plan.Domains))
	for i := range sh.Contribs {
		sh.Contribs[i] = sortedNodeContribs(contribs[i])
	}
	return sh, nil
}

// CostShape prices plan from its round structure sh on the analytical
// fast path: the pricing loop with no injector, bundling each round's
// shuffle per (node, domain) pair from sh's aggregates. The result
// matches Cost field for field. sh is only read, so one Shape prices
// both directions. fastsim.Sim.Cost is its public face.
func CostShape(ctx *Context, plan *Plan, sh *Shape, op Op, opt sim.Options) (*CostResult, error) {
	res, err := price(ctx, plan, nil, sh, true, op, opt, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	return &res.CostResult, nil
}

// metaInputs returns what the metadata exchange moves: each rank's
// flattened extent-list payload in bytes (one wire record per
// extent), indexed by rank, and each group's aggregator ranks, sorted
// and deduplicated, indexed by group. Both engines' metadata builders
// start from it.
func metaInputs(ctx *Context, plan *Plan, reqs []RankRequest) (listBytes []int64, aggsByGroup [][]int) {
	listBytes = make([]int64, ctx.Topo.Size())
	for _, r := range reqs {
		listBytes[r.Rank] = int64(len(r.Extents)) * extentListEntryBytes
	}
	aggsByGroup = make([][]int, len(plan.GroupRanks))
	for _, d := range plan.Domains {
		if uint(d.Group) < uint(len(aggsByGroup)) {
			aggsByGroup[d.Group] = append(aggsByGroup[d.Group], d.Aggregator)
		}
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
// prices the cross product in O(sources + destinations).
func buildMetaExchanges(ctx *Context, plan *Plan, reqs []RankRequest) []sim.Exchange {
	listBytes, aggsByGroup := metaInputs(ctx, plan, reqs)
	var exchanges []sim.Exchange
	// Node-indexed fold scratch, shared by every group: touched lists the
	// nodes a fold wrote, and collecting a fold zeroes exactly those.
	srcAt := make([]sim.ExchangeSrc, ctx.Topo.Nodes())
	slotsAt := make([]int, ctx.Topo.Nodes())
	var touched []int
	for g, ranks := range plan.GroupRanks {
		aggs := aggsByGroup[g]
		if len(aggs) == 0 {
			continue
		}
		touched = touched[:0]
		for _, r := range ranks {
			bytes := listBytes[r]
			if bytes == 0 {
				continue
			}
			node := ctx.Topo.NodeOf(r)
			f := &srcAt[node]
			if f.Count == 0 {
				f.Node = node
				touched = append(touched, node)
			}
			f.Bytes += bytes
			f.Count++
		}
		if len(touched) == 0 {
			continue
		}
		sort.Ints(touched)
		x := sim.Exchange{Srcs: make([]sim.ExchangeSrc, len(touched))}
		for i, node := range touched {
			x.Srcs[i] = srcAt[node]
			srcAt[node] = sim.ExchangeSrc{}
		}
		touched = touched[:0]
		for _, a := range aggs {
			node := ctx.Topo.NodeOf(a)
			if slotsAt[node] == 0 {
				touched = append(touched, node)
			}
			slotsAt[node]++
		}
		sort.Ints(touched)
		x.Dsts = make([]sim.ExchangeDst, len(touched))
		for i, node := range touched {
			x.Dsts[i] = sim.ExchangeDst{Node: node, Slots: slotsAt[node]}
			slotsAt[node] = 0
		}
		exchanges = append(exchanges, x)
	}
	return exchanges
}

// sortInt64s sorts xs ascending.
func sortInt64s(xs []int64) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}
