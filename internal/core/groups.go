package core

import (
	"sort"

	"mcio/internal/collio"
	"mcio/internal/pfs"
)

// Group is one aggregation group: a contiguous window of the file whose
// aggregation traffic is confined to the member ranks (§3.1). Groups are
// disjoint and together cover the whole aggregate access region.
type Group struct {
	Index int
	// Region is the file window [Region.Offset, Region.End()).
	Region pfs.Extent
	// Extents is the requested data inside the window, normalized.
	Extents []pfs.Extent
	// Ranks are the members: every rank with data inside the window,
	// ascending.
	Ranks []int
}

// DivideGroups splits the aggregate I/O workload into aggregation groups
// of roughly MsgGroup data bytes each.
//
// The boundary rule follows §3.1 and Figure 4: a tentative boundary is
// placed after MsgGroup data bytes ("an offset calculation guided by the
// optimal group message size"); when the data of some compute node
// straddles the tentative boundary, the boundary is extended to the ending
// offset of the data accessed by the last process of that node, so that
// "processes from the same physical node become I/O aggregators for
// different groups" is avoided. For interleaved patterns, where every
// node's data spans nearly the whole file and such an extension would
// swallow it (the paper defers these to file-view analysis), the extension
// is capped at half a group: boundaries fall back to pure offset
// calculation, dividing the file region into MsgGroup-sized windows.
//
// Requests must pass collio.CheckRequests; the error is its verdict.
func DivideGroups(ctx *collio.Context, reqs []collio.RankRequest) ([]Group, error) {
	norm, err := collio.CheckRequests(ctx.Topo.Size(), reqs)
	if err != nil || len(norm) == 0 {
		return nil, err
	}

	// Per-node data span (lowest start, highest end over the node's ranks).
	type span struct{ lo, hi int64 }
	nodeSpan := map[int]span{}
	for _, r := range reqs {
		exts := r.Extents
		if len(exts) == 0 {
			continue
		}
		node := ctx.Topo.NodeOf(r.Rank)
		s, ok := nodeSpan[node]
		if !ok {
			s = span{lo: exts[0].Offset, hi: exts[len(exts)-1].End()}
		} else {
			if exts[0].Offset < s.lo {
				s.lo = exts[0].Offset
			}
			if e := exts[len(exts)-1].End(); e > s.hi {
				s.hi = e
			}
		}
		nodeSpan[node] = s
	}
	spans := make([]span, 0, len(nodeSpan))
	for _, s := range nodeSpan {
		spans = append(spans, s)
	}

	// Prefix sums over the aggregate extents turn the per-group "take
	// MsgGroup data bytes" boundary calculation into a binary search, and
	// window clipping into an index walk — O(log n) per group instead of
	// re-clipping the whole remaining region, which is what lets group
	// division run at million-rank scale.
	prefix := make([]int64, len(norm)+1)
	for i, e := range norm {
		prefix[i+1] = prefix[i] + e.Length
	}
	total := prefix[len(norm)]
	// dataAt returns the data-space position of file offset x: the
	// requested bytes strictly before x.
	dataAt := func(x int64) int64 {
		i := sort.Search(len(norm), func(i int) bool { return norm[i].End() > x })
		if i == len(norm) {
			return total
		}
		d := prefix[i]
		if x > norm[i].Offset {
			d += x - norm[i].Offset
		}
		return d
	}
	// clipRange is pfs.Clip(norm, lo, hi) via binary search on the
	// already-normalized aggregate extents.
	clipRange := func(lo, hi int64) []pfs.Extent {
		i := sort.Search(len(norm), func(i int) bool { return norm[i].End() > lo })
		var out []pfs.Extent
		for ; i < len(norm) && norm[i].Offset < hi; i++ {
			o, e := norm[i].Offset, norm[i].End()
			if o < lo {
				o = lo
			}
			if e > hi {
				e = hi
			}
			out = append(out, pfs.Extent{Offset: o, Length: e - o})
		}
		return out
	}

	msgGroup := ctx.Params.MsgGroup
	end := norm[len(norm)-1].End()
	var groups []Group
	cur := norm[0].Offset
	for cur < end {
		// Tentative boundary after MsgGroup data bytes: locate the extent
		// where the cumulative request data from cur reaches msgGroup.
		b := end
		if target := dataAt(cur) + msgGroup; target < total {
			j := sort.Search(len(norm), func(i int) bool { return prefix[i+1] >= target })
			b = norm[j].Offset + (target - prefix[j])
		}
		if b < end {
			// Fig 4 extension: snap to the ending offset of the data of any
			// node straddling the boundary, unless that extension exceeds
			// half a group (interleaved pattern guard).
			var ext int64
			for _, s := range spans {
				if s.lo < b && s.hi > b && s.hi > ext {
					ext = s.hi
				}
			}
			if ext > b && ext-b <= msgGroup/2 {
				b = ext
			}
			if b > end {
				b = end
			}
		}
		groups = append(groups, Group{
			Index:   len(groups),
			Region:  pfs.Extent{Offset: cur, Length: b - cur},
			Extents: clipRange(cur, b),
		})
		cur = b
	}

	// Membership: the group windows tile [norm[0].Offset, end), so an
	// extent belongs to exactly the windows its [Offset, End) range
	// overlaps — two binary searches per extent instead of clipping every
	// rank's request list against every window.
	windowOf := func(x int64) int {
		return sort.Search(len(groups), func(i int) bool { return groups[i].Region.End() > x })
	}
	for _, r := range reqs {
		for _, e := range r.Extents {
			for w, wj := windowOf(e.Offset), windowOf(e.End()-1); w <= wj; w++ {
				groups[w].Ranks = append(groups[w].Ranks, r.Rank)
			}
		}
	}
	for i := range groups {
		r := groups[i].Ranks
		sort.Ints(r)
		dedup := r[:0]
		for j, rank := range r {
			if j == 0 || rank != dedup[len(dedup)-1] {
				dedup = append(dedup, rank)
			}
		}
		groups[i].Ranks = dedup
	}
	return groups, nil
}
