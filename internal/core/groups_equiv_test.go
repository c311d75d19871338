package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/pfs"
)

// divideGroupsNaive is the pre-optimization reference: boundary search by
// re-clipping the whole remaining region and membership by clipping every
// rank's request list against every window. Kept as the oracle for the
// prefix-sum/window-assignment implementation in DivideGroups.
func divideGroupsNaive(ctx *collio.Context, reqs []collio.RankRequest) []Group {
	var all []pfs.Extent
	normReq := make(map[int][]pfs.Extent, len(reqs))
	for _, r := range reqs {
		n := pfs.NormalizeExtents(r.Extents)
		if len(n) > 0 {
			normReq[r.Rank] = n
			all = append(all, n...)
		}
	}
	norm := pfs.NormalizeExtents(all)
	if len(norm) == 0 {
		return nil
	}
	type span struct{ lo, hi int64 }
	nodeSpan := map[int]span{}
	for rank, exts := range normReq {
		node := ctx.Topo.NodeOf(rank)
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
	msgGroup := ctx.Params.MsgGroup
	end := norm[len(norm)-1].End()
	var groups []Group
	cur := norm[0].Offset
	for cur < end {
		remaining := pfs.Clip(norm, cur, end)
		if len(remaining) == 0 {
			break
		}
		slice := pfs.SliceData(remaining, 0, msgGroup)
		b := slice[len(slice)-1].End()
		if b < end {
			var ext int64
			for _, s := range nodeSpan {
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
		g := Group{
			Index:   len(groups),
			Region:  pfs.Extent{Offset: cur, Length: b - cur},
			Extents: pfs.Clip(norm, cur, b),
		}
		for rank, exts := range normReq {
			if len(pfs.Clip(exts, cur, b)) > 0 {
				g.Ranks = append(g.Ranks, rank)
			}
		}
		sort.Ints(g.Ranks)
		groups = append(groups, g)
		cur = b
	}
	return groups
}

// TestDivideGroupsMatchesNaive drives the optimized group division
// against the reference on randomized sparse, dense, serial and
// interleaved request mixes.
func TestDivideGroupsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		ranks := 2 + rng.Intn(24)
		perNode := 1 + rng.Intn(4)
		topo, err := mpi.BlockTopology(ranks, (ranks+perNode-1)/perNode)
		if err != nil {
			t.Fatal(err)
		}
		mc := machine.Testbed640()
		mc.Nodes = topo.Nodes()
		avail := make([]int64, mc.Nodes)
		for i := range avail {
			avail[i] = mc.MemPerNode
		}
		params := collio.DefaultParams(1 << 10)
		params.MsgGroup = int64(64 + rng.Intn(4096))
		ctx := &collio.Context{
			Topo:    topo,
			Machine: mc,
			Avail:   avail,
			FS:      pfs.DefaultConfig(4),
			Params:  params,
		}
		reqs := make([]collio.RankRequest, ranks)
		for r := 0; r < ranks; r++ {
			reqs[r].Rank = r
			for i, n := 0, rng.Intn(5); i < n; i++ {
				reqs[r].Extents = append(reqs[r].Extents, pfs.Extent{
					Offset: int64(rng.Intn(16 << 10)),
					Length: int64(rng.Intn(2 << 10)),
				})
			}
			reqs[r].Extents = pfs.NormalizeExtents(reqs[r].Extents)
		}
		got := divide(t, ctx, reqs)
		want := divideGroupsNaive(ctx, reqs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (msgGroup=%d): groups diverge\ngot:  %+v\nwant: %+v",
				trial, params.MsgGroup, got, want)
		}
	}
}
