package collio

import (
	"sort"

	"mcio/internal/pfs"
)

// rankContrib is one rank's shuffle contribution to a domain: the
// per-rank granularity the byte engine prices and the faulted loop
// needs to replay, fold and re-exchange work when hosts fail. It is the
// per-rank form of NodeContrib.
type rankContrib struct {
	rank  int
	node  int
	bytes int64
}

// faultItem is a unit of remaining shuffle+I/O work in the pricing
// loop. One item starts per plan domain; a recovery folds an item's
// remaining work into a fresh item bound to the absorbing (or
// re-placed) domain. Items reference live domains by index for
// placement, so later reassignments of the same domain move them too.
// Both engines share the type: the byte engine walks contribs per rank
// each round, the fast engine prices per-node aggregates (nodeContribs)
// and falls back to the per-rank walk only where fault state demands
// it. Items of a clean fast-engine run alias the Shape's aggregates and
// have no per-rank list; nothing writes through them.
type faultItem struct {
	domain   int // index into the live domain set; placement is read per round
	base     []pfs.Extent
	bytes    int64
	buf      int64
	rounds   int
	done     int
	rot      int // slice stagger rotation (domain index at creation)
	contribs []rankContrib

	nodes []NodeContrib // per-node aggregates, from the Shape or built on first nodeContribs call
}

// active reports whether the item still has rounds to run.
func (it *faultItem) active() bool { return it.bytes > 0 && it.done < it.rounds }

// nodeContribs returns the item's per-node contribution aggregates,
// building them from contribs on first use. Each NodeContrib
// reconstructs the node's exact per-round share of the per-rank
// front-loaded even split (RoundShare), so aggregate pricing is
// bit-identical to walking the ranks.
func (it *faultItem) nodeContribs() []NodeContrib {
	if it.nodes == nil {
		it.nodes = buildNodeContribs(it.contribs, it.rounds)
	}
	return it.nodes
}

// evenShare is the front-loaded even split both engines price: step s
// of rounds moves b/rounds bytes, plus one while s < b mod rounds.
// NodeContrib.RoundShare is its exact per-node aggregate.
func evenShare(b int64, s, rounds int) int64 {
	per := b / int64(rounds)
	if int64(s) < b%int64(rounds) {
		per++
	}
	return per
}

// remaining returns the item's unmoved extents and per-contributor
// bytes after the steps it has completed (slices are staggered, so the
// remainder is the union of the uncompleted slices).
func (it *faultItem) remaining() ([]pfs.Extent, []rankContrib) {
	if it.done == 0 {
		return it.base, it.contribs
	}
	var rem []pfs.Extent
	for j := it.done; j < it.rounds; j++ {
		idx := (j + it.rot) % it.rounds
		rem = append(rem, pfs.SliceData(it.base, int64(idx)*it.buf, it.buf)...)
	}
	var cs []rankContrib
	for _, c := range it.contribs {
		moved := int64(it.done)*(c.bytes/int64(it.rounds)) + min(int64(it.done), c.bytes%int64(it.rounds))
		if left := c.bytes - moved; left > 0 {
			cs = append(cs, rankContrib{rank: c.rank, node: c.node, bytes: left})
		}
	}
	return pfs.NormalizeExtents(rem), cs
}

// fold builds the successor item carrying it's remaining work on the
// (possibly re-placed) domain target. Returns nil when nothing remains.
func (it *faultItem) fold(target int, live []Domain) *faultItem {
	rem, cs := it.remaining()
	bytes := pfs.TotalBytes(rem)
	if bytes == 0 {
		return nil
	}
	buf := live[target].BufferBytes
	if buf < 1 {
		buf = 1
	}
	return &faultItem{
		domain:   target,
		base:     rem,
		bytes:    bytes,
		buf:      buf,
		rounds:   int((bytes + buf - 1) / buf),
		rot:      target,
		contribs: cs,
	}
}

// recoveryMetaBytes is the extent-list payload each surviving
// contributor re-ships to the absorbing aggregator after a fold: one
// wire record per remaining extent, floored at one record so an empty
// hand-off still costs a message.
func (it *faultItem) recoveryMetaBytes() int64 {
	bytes := int64(len(it.base)) * extentListEntryBytes
	if bytes == 0 {
		bytes = extentListEntryBytes
	}
	return bytes
}

// buildNodeContribs folds per-rank contributions into per-node
// aggregates, ascending by node — the same construction BuildShape
// performs for fault-free domains, applied to a fault item's (possibly
// refolded) contributor list.
func buildNodeContribs(contribs []rankContrib, rounds int) []NodeContrib {
	rounds = max(rounds, 1)
	byNode := map[int]*NodeContrib{}
	for _, c := range contribs {
		nc := byNode[c.node]
		if nc == nil {
			nc = &NodeContrib{Node: c.node}
			byNode[c.node] = nc
		}
		nc.add(c.bytes, rounds)
	}
	return sortedNodeContribs(byNode)
}

// faultItems builds the pricing loop's initial work: one item per
// domain with at least one round, in domain order. Each item carries
// its domain's per-rank contributors from contribs or, when sh is
// given, the Shape's per-node aggregates instead: a clean fast-engine
// run never folds, so it never needs the per-rank list. total sums
// every domain's rounds; the loop's divergence guard keys on it.
func faultItems(domains []Domain, contribs [][]rankContrib, sh *Shape) (items []*faultItem, total int) {
	// One backing array for every initial item; recovery successors are
	// allocated one by one.
	slab := make([]faultItem, len(domains))
	items = make([]*faultItem, 0, len(domains))
	for i, d := range domains {
		rounds := d.Rounds()
		total += rounds
		if rounds == 0 {
			continue
		}
		it := &slab[i]
		*it = faultItem{
			domain: i,
			base:   d.Extents,
			bytes:  d.Bytes,
			buf:    d.BufferBytes,
			rounds: rounds,
			rot:    i,
		}
		if sh != nil {
			it.nodes = sh.Contribs[i]
		} else {
			it.contribs = contribs[i]
		}
		items = append(items, it)
	}
	return items, total
}

// domainContribs computes each domain's per-rank contributor list, in
// request order (the order the byte engine walks). The sparse overlap
// walk visits only (rank, domain) pairs that actually overlap, so the
// build is near-linear in total extents rather than ranks × domains.
func domainContribs(ctx *Context, domains []Domain, reqs []RankRequest) [][]rankContrib {
	out := make([][]rankContrib, len(domains))
	if len(domains) == 0 {
		return out
	}
	buckets := make([][]pfs.Extent, len(domains))
	for i, d := range domains {
		buckets[i] = d.Extents
	}
	index := NewExtentIndex(buckets)
	var overlaps []BucketBytes
	for _, r := range reqs {
		if len(r.Extents) == 0 {
			continue
		}
		node := ctx.Topo.NodeOf(r.Rank)
		overlaps = index.OverlapAppend(overlaps[:0], r.Extents)
		for _, bb := range overlaps {
			out[bb.Bucket] = append(out[bb.Bucket],
				rankContrib{rank: r.Rank, node: node, bytes: bb.Bytes})
		}
	}
	return out
}

// sortedNodeContribs flattens per-node aggregates into a slice
// ascending by node, with each node's remainder multisets sorted for
// RoundShare's binary searches.
func sortedNodeContribs(byNode map[int]*NodeContrib) []NodeContrib {
	out := make([]NodeContrib, 0, len(byNode))
	for _, nc := range byNode {
		sortInt64s(nc.rems)
		sortInt64s(nc.remsZero)
		out = append(out, *nc)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Node < out[b].Node })
	return out
}
