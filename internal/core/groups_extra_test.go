package core

import (
	"testing"

	"mcio/internal/collio"
	"mcio/internal/pfs"
)

func TestDivideGroupsSingleRank(t *testing.T) {
	ctx := fig4Context(t, collio.DefaultParams(100), nil)
	reqs := []collio.RankRequest{
		{Rank: 4, Extents: []pfs.Extent{{Offset: 1000, Length: 5000}}},
	}
	groups := divide(t, ctx, reqs)
	if len(groups) == 0 {
		t.Fatal("no groups")
	}
	var total int64
	for _, g := range groups {
		total += pfs.TotalBytes(g.Extents)
		if len(g.Ranks) != 1 || g.Ranks[0] != 4 {
			t.Fatalf("group ranks = %v", g.Ranks)
		}
	}
	if total != 5000 {
		t.Fatalf("groups cover %d bytes", total)
	}
}

func TestDivideGroupsWithFileGaps(t *testing.T) {
	// Two widely separated data clusters: group regions must not bridge
	// the gap with phantom data.
	params := collio.DefaultParams(100)
	params.MsgGroup = 10000
	ctx := fig4Context(t, params, nil)
	reqs := []collio.RankRequest{
		{Rank: 0, Extents: []pfs.Extent{{Offset: 0, Length: 4000}}},
		{Rank: 8, Extents: []pfs.Extent{{Offset: 1 << 20, Length: 4000}}},
	}
	groups := divide(t, ctx, reqs)
	var total int64
	for _, g := range groups {
		total += pfs.TotalBytes(g.Extents)
	}
	if total != 8000 {
		t.Fatalf("groups cover %d bytes, want 8000", total)
	}
}

func TestDivideGroupsTinyMsgGroup(t *testing.T) {
	// MsgGroup far below any rank's data: every boundary snaps to node
	// data ends per Fig 4, never producing empty groups.
	params := collio.DefaultParams(10)
	params.MsgGroup = 10
	ctx := fig4Context(t, params, nil)
	reqs := serialRequests(9, 300)
	groups := divide(t, ctx, reqs)
	var total int64
	for i, g := range groups {
		if pfs.TotalBytes(g.Extents) == 0 {
			t.Fatalf("group %d empty", i)
		}
		total += pfs.TotalBytes(g.Extents)
	}
	if total != 2700 {
		t.Fatalf("coverage %d", total)
	}
}

func TestPlanGroupRanksMatchDomains(t *testing.T) {
	// Every domain's contributors must be members of its group.
	params := collio.DefaultParams(100)
	params.MsgGroup = 700
	params.MsgInd = 250
	params.MemMin = 10
	ctx := fig4Context(t, params, nil)
	reqs := serialRequests(9, 300)
	plan, err := New().Plan(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range plan.Domains {
		members := map[int]bool{}
		for _, r := range plan.GroupRanks[d.Group] {
			members[r] = true
		}
		for _, req := range reqs {
			if len(pfs.Intersect(req.Extents, d.Extents)) > 0 && !members[req.Rank] {
				t.Fatalf("domain %d has contributor %d outside group %d", i, req.Rank, d.Group)
			}
		}
		if !members[d.Aggregator] {
			t.Fatalf("domain %d aggregator %d outside its group", i, d.Aggregator)
		}
	}
}
