package collio

import (
	"reflect"
	"testing"

	"mcio/internal/pfs"
	"mcio/internal/stats"
)

// A bucket with no extents is legal (an aggregator whose domain nobody
// touches) and must simply collect zero bytes.
func TestExtentIndexEmptyBucketAmongOthers(t *testing.T) {
	idx := NewExtentIndex([][]pfs.Extent{
		{{Offset: 0, Length: 10}},
		{}, // empty bucket
		{{Offset: 20, Length: 10}},
	})
	got := idx.OverlapBytes([]pfs.Extent{{Offset: 0, Length: 30}})
	if !reflect.DeepEqual(got, []int64{10, 0, 10}) {
		t.Fatalf("overlaps = %v, want [10 0 10]", got)
	}
}

// Zero-length query extents contribute nothing; the index must normalize
// them away rather than miscount or loop.
func TestExtentIndexZeroLengthQueryExtents(t *testing.T) {
	idx := NewExtentIndex([][]pfs.Extent{{{Offset: 10, Length: 10}}})
	got := idx.OverlapBytes([]pfs.Extent{
		{Offset: 12, Length: 0},
		{Offset: 15, Length: 2},
		{Offset: 30, Length: 0},
	})
	if got[0] != 2 {
		t.Fatalf("overlaps = %v, want [2]", got)
	}
	if got := idx.OverlapBytes([]pfs.Extent{{Offset: 12, Length: 0}}); got[0] != 0 {
		t.Fatalf("all-empty query overlaps = %v, want [0]", got)
	}
}

// Adjacency is not overlap: a query ending exactly where a bucket begins
// (and vice versa) contributes zero bytes to it.
func TestExtentIndexAdjacentNotOverlapping(t *testing.T) {
	idx := NewExtentIndex([][]pfs.Extent{
		{{Offset: 0, Length: 10}},
		{{Offset: 10, Length: 10}}, // starts exactly at bucket 0's end
	})
	if got := idx.OverlapBytes([]pfs.Extent{{Offset: 5, Length: 5}}); got[0] != 5 || got[1] != 0 {
		t.Fatalf("query ending at boundary: overlaps = %v, want [5 0]", got)
	}
	if got := idx.OverlapBytes([]pfs.Extent{{Offset: 10, Length: 3}}); got[0] != 0 || got[1] != 3 {
		t.Fatalf("query starting at boundary: overlaps = %v, want [0 3]", got)
	}
	if got := idx.OverlapBytes([]pfs.Extent{{Offset: 20, Length: 5}}); got[0] != 0 || got[1] != 0 {
		t.Fatalf("query past all buckets: overlaps = %v, want [0 0]", got)
	}
}

// OverlapBytesInto must reuse the caller's scratch (no realloc when the
// capacity suffices), zero stale contents, and agree with OverlapBytes.
func TestOverlapBytesIntoReusesScratch(t *testing.T) {
	idx := NewExtentIndex([][]pfs.Extent{
		{{Offset: 0, Length: 10}},
		{{Offset: 20, Length: 10}},
	})
	q1 := []pfs.Extent{{Offset: 0, Length: 30}}
	q2 := []pfs.Extent{{Offset: 25, Length: 100}}

	dst := idx.OverlapBytesInto(nil, q1)
	if !reflect.DeepEqual(dst, []int64{10, 10}) {
		t.Fatalf("first query = %v", dst)
	}
	p := &dst[0]
	dst = idx.OverlapBytesInto(dst, q2)
	if &dst[0] != p {
		t.Fatal("second query reallocated instead of reusing scratch")
	}
	if !reflect.DeepEqual(dst, []int64{0, 5}) {
		t.Fatalf("second query = %v (stale bytes not cleared?)", dst)
	}
	// Oversized scratch is trimmed to the bucket count.
	big := make([]int64, 64)
	out := idx.OverlapBytesInto(big, q1)
	if len(out) != 2 || !reflect.DeepEqual(out, []int64{10, 10}) {
		t.Fatalf("oversized scratch result = %v", out)
	}
}

// A messy access list (overlapping, unsorted, empty extents) is made
// canonical where the request is built; the index answers the canonical
// list exactly as the naive per-bucket intersection of the messy one.
func TestOverlapBytesCanonicalizedMessyQuery(t *testing.T) {
	buckets := [][]pfs.Extent{
		{{Offset: 0, Length: 50}},
		{{Offset: 60, Length: 50}},
	}
	idx := NewExtentIndex(buckets)
	messy := []pfs.Extent{
		{Offset: 40, Length: 30}, // spans the gap
		{Offset: 0, Length: 20},  // out of order
		{Offset: 10, Length: 20}, // overlaps previous
		{Offset: 5, Length: 0},   // empty
	}
	got := idx.OverlapBytes(pfs.NormalizeExtents(messy))
	for b := range buckets {
		if want := pfs.TotalBytes(pfs.Intersect(messy, buckets[b])); got[b] != want {
			t.Fatalf("bucket %d: got %d, naive %d", b, got[b], want)
		}
	}
	if !reflect.DeepEqual(got, []int64{40, 10}) {
		t.Fatalf("overlaps = %v, want [40 10]", got)
	}
}

// benchIndex builds a coll_perf-like index: many disjoint bucket extents
// and a normalized interleaved query.
func benchIndex(buckets, extsPer int) (*ExtentIndex, []pfs.Extent) {
	r := stats.NewRNG(11)
	var all [][]pfs.Extent
	var cur int64
	for b := 0; b < buckets; b++ {
		var exts []pfs.Extent
		for e := 0; e < extsPer; e++ {
			cur += r.Int63n(64) + 1
			length := r.Int63n(256) + 1
			exts = append(exts, pfs.Extent{Offset: cur, Length: length})
			cur += length
		}
		all = append(all, exts)
	}
	var query []pfs.Extent
	for off := int64(0); off < cur; off += 512 {
		query = append(query, pfs.Extent{Offset: off, Length: 200})
	}
	return NewExtentIndex(all), query
}

func BenchmarkOverlapBytes(b *testing.B) {
	idx, query := benchIndex(64, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.OverlapBytes(query)
	}
}

func BenchmarkOverlapBytesInto(b *testing.B) {
	idx, query := benchIndex(64, 16)
	var scratch []int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = idx.OverlapBytesInto(scratch, query)
	}
}
