package collio

import (
	"fmt"
	"sort"

	"mcio/internal/pfs"
)

// ExtentIndex answers "how many bytes of this rank's request fall into
// each bucket" in one merge-walk per rank, where the buckets (file domains
// or partition-tree leaves) are disjoint and ascending in file order. The
// naive per-bucket intersection is O(buckets × extents) per rank, which is
// prohibitive for coll_perf-scale requests; the index makes it
// O(extents + bucket extents).
type ExtentIndex struct {
	flat   []pfs.Extent // all bucket extents, ascending, disjoint
	bucket []int        // bucket id per flat extent
	n      int          // number of buckets
}

// NewExtentIndex builds an index over the buckets. Each bucket's extents
// must be normalized, and buckets must be disjoint and ascending (bucket
// i's last byte before bucket i+1's first) — which plan domains and
// partition-tree leaves are by construction. It panics otherwise, as that
// indicates a planner bug.
func NewExtentIndex(buckets [][]pfs.Extent) *ExtentIndex {
	idx := &ExtentIndex{n: len(buckets)}
	var prevEnd int64 = -1
	for b, exts := range buckets {
		for _, e := range exts {
			if e.Length <= 0 {
				panic(fmt.Sprintf("collio: bucket %d has empty extent", b))
			}
			if e.Offset < prevEnd {
				panic(fmt.Sprintf("collio: bucket %d extents overlap or are out of order", b))
			}
			prevEnd = e.End()
			idx.flat = append(idx.flat, e)
			idx.bucket = append(idx.bucket, b)
		}
	}
	return idx
}

// OverlapBytes returns the bytes of exts landing in each bucket, indexed
// by bucket id. Like every query of the index, exts must be canonical
// (pfs.IsNormalized), as collective requests are.
func (x *ExtentIndex) OverlapBytes(exts []pfs.Extent) []int64 {
	return x.OverlapBytesInto(nil, exts)
}

// BucketBytes is one bucket's overlap with a request: the sparse form
// of an OverlapBytes result row.
type BucketBytes struct {
	Bucket int
	Bytes  int64
}

// OverlapAppend appends the non-zero overlaps of exts with the buckets
// to dst, ascending by bucket id, and returns the extended slice. It is
// the sparse counterpart of OverlapBytesInto: a request touching a
// handful of the index's buckets costs O(extents + touched), not the
// O(buckets) clear of a dense result row — the difference between
// pricing a million-rank operation and timing out on it.
func (x *ExtentIndex) OverlapAppend(dst []BucketBytes, exts []pfs.Extent) []BucketBytes {
	base := len(dst)
	i, j := 0, 0
	for i < len(exts) && j < len(x.flat) {
		a := exts[i]
		if x.flat[j].End() <= a.Offset {
			// Gallop past the bucket extents wholly before this request
			// extent: a sparse request touching k of n flat extents costs
			// O(k log n), not the O(n) of stepping one extent at a time —
			// which is what keeps shape-building linear in ranks when a
			// million sparse requests query a hundred-thousand-extent index.
			j += sort.Search(len(x.flat)-j, func(k int) bool { return x.flat[j+k].End() > a.Offset })
			continue
		}
		b := x.flat[j]
		lo := a.Offset
		if b.Offset > lo {
			lo = b.Offset
		}
		hi := a.End()
		if b.End() < hi {
			hi = b.End()
		}
		if hi > lo {
			// A bucket's flat extents are contiguous and j only advances,
			// so hits for one bucket are consecutive: accumulate in place.
			if bk := x.bucket[j]; len(dst) > base && dst[len(dst)-1].Bucket == bk {
				dst[len(dst)-1].Bytes += hi - lo
			} else {
				dst = append(dst, BucketBytes{Bucket: bk, Bytes: hi - lo})
			}
		}
		if a.End() < b.End() {
			i++
		} else {
			j++
		}
	}
	return dst
}

// OverlapBytesInto is OverlapBytes with a caller-owned scratch slice:
// dst is grown (or allocated when nil/too small), zeroed, filled and
// returned, so a caller querying many requests against one index reuses
// a single allocation.
func (x *ExtentIndex) OverlapBytesInto(dst []int64, exts []pfs.Extent) []int64 {
	if cap(dst) < x.n {
		dst = make([]int64, x.n)
	} else {
		dst = dst[:x.n]
		clear(dst)
	}
	out := dst
	i, j := 0, 0
	for i < len(exts) && j < len(x.flat) {
		a, b := exts[i], x.flat[j]
		lo := a.Offset
		if b.Offset > lo {
			lo = b.Offset
		}
		hi := a.End()
		if b.End() < hi {
			hi = b.End()
		}
		if hi > lo {
			out[x.bucket[j]] += hi - lo
		}
		if a.End() < b.End() {
			i++
		} else {
			j++
		}
	}
	return out
}
