package collio_test

import (
	"strings"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/pfs"
)

// TestBadRequestsRejectedEverywhere checks the request contract at every
// planning entry: each strategy's planner and Plan.Validate return the
// gate's error, naming the rank, for every way a request can break it.
func TestBadRequestsRejectedEverywhere(t *testing.T) {
	ctx := buildContext(t, 6, 2, collio.DefaultParams(256), nil)
	good := func() []collio.RankRequest {
		reqs := make([]collio.RankRequest, 6)
		for r := range reqs {
			reqs[r] = collio.RankRequest{Rank: r, Extents: []pfs.Extent{{Offset: int64(r) * 200, Length: 100}}}
		}
		return reqs
	}
	cases := []struct {
		name     string
		rank     string
		mutate   func(reqs []collio.RankRequest)
		planOnly bool // Validate has no topology to bound ranks by
	}{
		{"unsorted", "rank 3 ", func(reqs []collio.RankRequest) {
			reqs[3].Extents = []pfs.Extent{{Offset: 700, Length: 50}, {Offset: 600, Length: 50}}
		}, false},
		{"overlapping", "rank 3 ", func(reqs []collio.RankRequest) {
			reqs[3].Extents = []pfs.Extent{{Offset: 600, Length: 80}, {Offset: 650, Length: 80}}
		}, false},
		{"touching", "rank 3 ", func(reqs []collio.RankRequest) {
			reqs[3].Extents = []pfs.Extent{{Offset: 600, Length: 50}, {Offset: 650, Length: 50}}
		}, false},
		{"empty extent", "rank 3 ", func(reqs []collio.RankRequest) {
			reqs[3].Extents = []pfs.Extent{{Offset: 600, Length: 0}}
		}, false},
		{"negative rank", "rank -3", func(reqs []collio.RankRequest) { reqs[3].Rank = -3 }, false},
		{"rank past the world", "rank 99", func(reqs []collio.RankRequest) { reqs[3].Rank = 99 }, true},
	}
	for _, c := range cases {
		reqs := good()
		c.mutate(reqs)
		_, want := collio.CheckRequests(ctx.Topo.Size(), reqs)
		if want == nil || !strings.Contains(want.Error(), c.rank) {
			t.Fatalf("%s: gate error %v does not name %q", c.name, want, c.rank)
		}
		for _, s := range strategies() {
			if _, err := s.Plan(ctx, reqs); err == nil || err.Error() != want.Error() {
				t.Errorf("%s: %s Plan err = %v, want %v", c.name, s.Name(), err, want)
			}
			if c.planOnly {
				continue
			}
			plan, err := s.Plan(ctx, good())
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.Validate(reqs); err == nil || err.Error() != want.Error() {
				t.Errorf("%s: %s Validate err = %v, want %v", c.name, s.Name(), err, want)
			}
		}
	}
}
