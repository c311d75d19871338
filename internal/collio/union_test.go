package collio_test

import (
	"math/rand/v2"
	"slices"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/pfs"
	"mcio/internal/workload"
)

// naiveUnion is the union CheckRequests must return: every request's
// extents concatenated and normalized by sorting.
func naiveUnion(reqs []collio.RankRequest) []pfs.Extent {
	var all []pfs.Extent
	for _, r := range reqs {
		all = append(all, r.Extents...)
	}
	return pfs.NormalizeExtents(all)
}

// cloneReqs deep-copies requests so a test can tell whether the union
// aliased one of them.
func cloneReqs(reqs []collio.RankRequest) []collio.RankRequest {
	out := make([]collio.RankRequest, len(reqs))
	for i, r := range reqs {
		out[i] = collio.RankRequest{Rank: r.Rank, Extents: slices.Clone(r.Extents)}
	}
	return out
}

// checkUnion runs the gate on canonical requests and checks its union
// against the naive one, then scribbles over the union and checks no
// request changed.
func checkUnion(t *testing.T, nranks int, reqs []collio.RankRequest) {
	t.Helper()
	before := cloneReqs(reqs)
	got, err := collio.CheckRequests(nranks, reqs)
	if err != nil {
		t.Fatalf("canonical requests rejected: %v", err)
	}
	if want := naiveUnion(reqs); !slices.Equal(got, want) {
		t.Fatalf("union of %d requests:\n got %v\nwant %v", len(reqs), got, want)
	}
	for i := range got {
		got[i] = pfs.Extent{Offset: -1, Length: -1}
	}
	for i := range reqs {
		if reqs[i].Rank != before[i].Rank || !slices.Equal(reqs[i].Extents, before[i].Extents) {
			t.Fatalf("writing the union changed request %d: %v, was %v", i, reqs[i], before[i])
		}
	}
}

// randomCanonical draws a canonical list inside [0, span): random gaps
// of at least one byte and random lengths, so lists of different ranks
// overlap and touch one another freely.
func randomCanonical(rng *rand.Rand, span int64) []pfs.Extent {
	var exts []pfs.Extent
	pos := rng.Int64N(span / 4)
	for pos < span && rng.IntN(12) != 0 {
		length := 1 + rng.Int64N(span/8)
		exts = append(exts, pfs.Extent{Offset: pos, Length: length})
		pos += length + 1 + rng.Int64N(span/8)
	}
	return exts
}

func TestCheckRequestsUnionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 42))
	for iter := 0; iter < 400; iter++ {
		n := 1 + rng.IntN(40)
		reqs := make([]collio.RankRequest, n)
		for i, r := range rng.Perm(n) { // requests not in rank order
			reqs[i] = collio.RankRequest{Rank: r, Extents: randomCanonical(rng, 8+rng.Int64N(4000))}
		}
		checkUnion(t, n, reqs)
	}

	one := []pfs.Extent{{Offset: 10, Length: 5}, {Offset: 20, Length: 5}}
	edges := map[string][]collio.RankRequest{
		"no requests":  nil,
		"all empty":    {{Rank: 0}, {Rank: 1}, {Rank: 2}},
		"single":       {{Rank: 0, Extents: one}},
		"lone":         {{Rank: 3}, {Rank: 0}, {Rank: 2, Extents: one}, {Rank: 1}},
		"lone at last": {{Rank: 0}, {Rank: 1}, {Rank: 2}, {Rank: 3}, {Rank: 4, Extents: one}},
		"identical":    {{Rank: 1, Extents: one}, {Rank: 0, Extents: one}},
		"touching": {
			{Rank: 2, Extents: []pfs.Extent{{Offset: 20, Length: 10}}},
			{Rank: 0, Extents: []pfs.Extent{{Offset: 0, Length: 10}}},
			{Rank: 1, Extents: []pfs.Extent{{Offset: 10, Length: 10}}},
		},
		"one spans all": {
			{Rank: 0, Extents: []pfs.Extent{{Offset: 1, Length: 1}, {Offset: 5, Length: 1}, {Offset: 9, Length: 1}}},
			{Rank: 1, Extents: []pfs.Extent{{Offset: 0, Length: 100}}},
			{Rank: 2, Extents: []pfs.Extent{{Offset: 99, Length: 1}, {Offset: 101, Length: 3}}},
		},
	}
	for name, reqs := range edges {
		t.Run(name, func(t *testing.T) { checkUnion(t, 5, reqs) })
	}
}

// FuzzCheckRequestsUnion decodes per-rank canonical lists from the fuzz
// bytes and checks the merged union against the sorted one. Byte
// triples are (rank, gap, length): the extent goes to rank%ranks, a gap
// of at least one byte past that rank's previous extent keeps each list
// canonical, and ranks overlap one another freely. Requests appear in
// the order their ranks first do, then the ranks that drew nothing.
func FuzzCheckRequestsUnion(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0, 10, 1, 0, 10, 2, 0, 10, 3, 0, 10})
	f.Add(uint8(3), []byte{2, 5, 40, 0, 9, 3, 0, 1, 3, 1, 0, 200})
	f.Add(uint8(1), []byte{0, 1, 1, 0, 1, 1})
	f.Add(uint8(6), []byte{5, 50, 1})
	f.Add(uint8(8), []byte{})
	f.Fuzz(func(t *testing.T, ranks uint8, data []byte) {
		n := int(ranks)%16 + 1
		lists := make([][]pfs.Extent, n)
		next := make([]int64, n)
		var order []int
		for i := 0; i+3 <= len(data); i += 3 {
			r := int(data[i]) % n
			if lists[r] == nil {
				order = append(order, r)
			}
			off := next[r] + int64(data[i+1])
			length := int64(data[i+2])%64 + 1
			lists[r] = append(lists[r], pfs.Extent{Offset: off, Length: length})
			next[r] = off + length + 1
		}
		for r := range lists {
			if lists[r] == nil {
				order = append(order, r)
			}
		}
		reqs := make([]collio.RankRequest, n)
		for i, r := range order {
			reqs[i] = collio.RankRequest{Rank: r, Extents: lists[r]}
		}
		checkUnion(t, n, reqs)
	})
}

// unionSink keeps the benchmarked union live.
var unionSink []pfs.Extent

// BenchmarkCheckRequests times the gate — checks plus union — on the
// request shapes planning sees: Figure 6's coll_perf subarrays (120
// ranks, about 1M extents, neighbours touching), an exascale IOR run
// (100k ranks of 2 segments, neighbours touching), and the worst case,
// 120 ranks whose 1M extents interleave without any two touching.
func BenchmarkCheckRequests(b *testing.B) {
	grid, err := workload.DimsCreate(120)
	if err != nil {
		b.Fatal(err)
	}
	collPerf, err := workload.CollPerf{ArrayDim: 512, ElemBytes: 4, Grid: grid}.Requests()
	if err != nil {
		b.Fatal(err)
	}
	exa, err := workload.IOR{Ranks: 100_000, BlockSize: 1 << 20, TransferSize: 1 << 20, Segments: 2}.Requests()
	if err != nil {
		b.Fatal(err)
	}
	noTouch := make([]collio.RankRequest, 120)
	for r := range noTouch {
		exts := make([]pfs.Extent, 8738)
		for i := range exts {
			exts[i] = pfs.Extent{Offset: int64(i*len(noTouch)+r) * 128, Length: 64}
		}
		noTouch[r] = collio.RankRequest{Rank: r, Extents: exts}
	}
	for _, c := range []struct {
		name string
		reqs []collio.RankRequest
	}{{"collperf", collPerf}, {"exa-ior", exa}, {"no-touch", noTouch}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				union, err := collio.CheckRequests(len(c.reqs), c.reqs)
				if err != nil {
					b.Fatal(err)
				}
				unionSink = union
			}
		})
	}
}
