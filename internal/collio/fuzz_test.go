package collio

import (
	"testing"

	"mcio/internal/pfs"
)

// FuzzExtentIndexOverlapBytes cross-checks the merge-walk against the
// naive per-bucket intersection for arbitrary bucket shapes and arbitrary
// canonical queries, and checks OverlapBytesInto's scratch reuse agrees
// with the allocating path.
func FuzzExtentIndexOverlapBytes(f *testing.F) {
	// Seed corpus: a plain interleave, an adjacency-heavy layout, a
	// single-bucket index with a long query, and an empty query against
	// many buckets.
	f.Add([]byte{3, 10, 5, 8, 2, 12, 9, 4}, []byte{1, 20, 6, 0, 40, 9})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1}, []byte{0, 2, 1, 2, 2, 2})
	f.Add([]byte{7, 30}, []byte{5, 0, 3, 15, 3, 15})
	f.Add([]byte{1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5}, []byte{})
	f.Fuzz(func(t *testing.T, bucketData, queryData []byte) {
		// Decode disjoint ascending buckets: byte pairs are (gap, length),
		// two extents per bucket. Gaps of at least one keep buckets and
		// extents strictly disjoint, as NewExtentIndex requires.
		var buckets [][]pfs.Extent
		var exts []pfs.Extent
		var cur int64
		for i := 0; i+2 <= len(bucketData); i += 2 {
			cur += int64(bucketData[i]) + 1
			length := int64(bucketData[i+1])%40 + 1
			exts = append(exts, pfs.Extent{Offset: cur, Length: length})
			cur += length
			if len(exts) == 2 {
				buckets = append(buckets, exts)
				exts = nil
			}
		}
		if len(exts) > 0 {
			buckets = append(buckets, exts)
		}
		// Decode the query as a canonical request: byte pairs are
		// (gap, length), gaps of at least one byte keep extents from
		// touching, and zero lengths are dropped.
		var query []pfs.Extent
		var pos int64
		for i := 0; i+2 <= len(queryData); i += 2 {
			pos += int64(queryData[i]) + 1
			length := int64(queryData[i+1]) % 50
			query = pfs.AppendExtent(query, pfs.Extent{Offset: pos, Length: length})
			pos += length
		}
		if !pfs.IsNormalized(query) {
			t.Fatalf("decoded query %v is not canonical", query)
		}

		idx := NewExtentIndex(buckets)
		got := idx.OverlapBytes(query)
		if len(got) != len(buckets) {
			t.Fatalf("%d buckets, %d results", len(buckets), len(got))
		}
		for b := range buckets {
			want := pfs.TotalBytes(pfs.Intersect(query, buckets[b]))
			if got[b] != want {
				t.Fatalf("bucket %d: got %d, naive %d", b, got[b], want)
			}
		}
		// Scratch reuse (dirty and undersized) agrees with the fresh path.
		scratch := make([]int64, len(buckets)/2)
		for i := range scratch {
			scratch[i] = -1
		}
		again := idx.OverlapBytesInto(scratch, query)
		for b := range got {
			if again[b] != got[b] {
				t.Fatalf("bucket %d: Into %d != fresh %d", b, again[b], got[b])
			}
		}
	})
}
