package pfs

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Extent is a contiguous range of file space.
type Extent struct {
	Offset int64
	Length int64
}

// End returns the first offset past the extent.
func (e Extent) End() int64 { return e.Offset + e.Length }

// Overlaps reports whether two extents share any byte.
func (e Extent) Overlaps(o Extent) bool {
	return e.Offset < o.End() && o.Offset < e.End()
}

// IsNormalized reports whether exts already is its own canonical form:
// every extent non-empty, ascending, and neither overlapping nor adjacent
// to its predecessor. Canonical is the form collective requests and plan
// domains are required to take (collio.RankRequest): builders emit it,
// and the planning gate and Plan.Validate reject any list that fails
// this check rather than repairing it.
func IsNormalized(exts []Extent) bool {
	for i, e := range exts {
		if e.Length <= 0 {
			return false
		}
		if i > 0 && e.Offset <= exts[i-1].End() {
			return false
		}
	}
	return true
}

// normalized returns exts itself when already canonical (read-only use
// only: the result may alias the argument), else a normalized copy.
func normalized(exts []Extent) []Extent {
	if IsNormalized(exts) {
		return exts
	}
	return NormalizeExtents(exts)
}

// NormalizeExtents sorts extents by offset and merges adjacent or
// overlapping ones, dropping empty extents. The result is the canonical
// minimal representation of the same byte set. It does not modify its
// argument.
func NormalizeExtents(exts []Extent) []Extent {
	var out []Extent
	for _, e := range exts {
		if e.Length < 0 {
			panic(fmt.Sprintf("pfs: negative extent length %d", e.Length))
		}
		if e.Length > 0 {
			out = append(out, e)
		}
	}
	return Coalesce(out)
}

// Coalesce is NormalizeExtents in place for a list of non-empty extents
// the caller owns: it sorts exts by offset, merges adjacent or
// overlapping extents, and returns the canonical result in a prefix of
// exts.
func Coalesce(exts []Extent) []Extent {
	slices.SortFunc(exts, func(a, b Extent) int { return cmp.Compare(a.Offset, b.Offset) })
	merged := exts[:0]
	for _, e := range exts {
		if n := len(merged); n > 0 && e.Offset <= merged[n-1].End() {
			if e.End() > merged[n-1].End() {
				merged[n-1].Length = e.End() - merged[n-1].Offset
			}
			continue
		}
		merged = append(merged, e)
	}
	return merged
}

// AppendExtent appends e to a canonical list whose last extent ends at or
// before e.Offset, extending that extent instead when the two touch and
// dropping e when it is empty, so a builder emitting extents in file
// order produces a canonical list.
func AppendExtent(exts []Extent, e Extent) []Extent {
	if e.Length <= 0 {
		return exts
	}
	if n := len(exts); n > 0 && exts[n-1].End() == e.Offset {
		exts[n-1].Length += e.Length
		return exts
	}
	return append(exts, e)
}

// TotalBytes sums the lengths of the extents (assumed non-overlapping).
func TotalBytes(exts []Extent) int64 {
	var n int64
	for _, e := range exts {
		n += e.Length
	}
	return n
}

// SliceData returns the file extents covering the data-space byte range
// [dataOff, dataOff+n) of exts, where data space is the concatenation of
// the normalized extents in file order. This is how an aggregator cycles a
// file domain through a fixed-size collective buffer: round k covers data
// bytes [k*buf, (k+1)*buf).
func SliceData(exts []Extent, dataOff, n int64) []Extent {
	return SliceDataAppend(nil, exts, dataOff, n)
}

// SliceDataAppend is SliceData appending to a caller-owned slice, so a
// loop slicing many rounds reuses one allocation.
func SliceDataAppend(out []Extent, exts []Extent, dataOff, n int64) []Extent {
	if dataOff < 0 || n < 0 {
		panic(fmt.Sprintf("pfs: negative data slice (%d,%d)", dataOff, n))
	}
	if n == 0 {
		return out
	}
	var pos int64
	for _, e := range normalized(exts) {
		if n <= 0 {
			break
		}
		if dataOff >= pos+e.Length {
			pos += e.Length
			continue
		}
		skip := dataOff - pos
		if skip < 0 {
			skip = 0
		}
		take := e.Length - skip
		if take > n {
			take = n
		}
		out = append(out, Extent{Offset: e.Offset + skip, Length: take})
		dataOff += take
		n -= take
		pos += e.Length
	}
	return out
}

// Intersect returns the bytes present in both extent sets, normalized.
// Inputs need not be normalized.
func Intersect(a, b []Extent) []Extent {
	na, nb := normalized(a), normalized(b)
	var out []Extent
	i, j := 0, 0
	for i < len(na) && j < len(nb) {
		lo := na[i].Offset
		if nb[j].Offset > lo {
			lo = nb[j].Offset
		}
		hi := na[i].End()
		if nb[j].End() < hi {
			hi = nb[j].End()
		}
		if hi > lo {
			out = append(out, Extent{Offset: lo, Length: hi - lo})
		}
		if na[i].End() < nb[j].End() {
			i++
		} else {
			j++
		}
	}
	return out
}

// Clip returns the part of the extents inside the window [lo, hi).
func Clip(exts []Extent, lo, hi int64) []Extent {
	if hi <= lo {
		return nil
	}
	return Intersect(exts, []Extent{{Offset: lo, Length: hi - lo}})
}

// Span returns the smallest extent covering all input extents, or the zero
// Extent when the input holds no bytes.
func Span(exts []Extent) Extent {
	norm := normalized(exts)
	if len(norm) == 0 {
		return Extent{}
	}
	first, last := norm[0], norm[len(norm)-1]
	return Extent{Offset: first.Offset, Length: last.End() - first.Offset}
}

// TargetAccess summarizes the object-space traffic one set of file extents
// generates on a single target: the payload bytes, how many distinct
// object-space ranges (requests) it decomposes into after merging, and
// whether the access is one contiguous object range.
type TargetAccess struct {
	Target     int
	Bytes      int64
	Requests   int
	Contiguous bool
}

// MapExtents decomposes file-space extents into per-target accesses.
//
// With round-robin striping, one contiguous file extent larger than a full
// stripe cycle lands as one contiguous object-space range on every target —
// this is why two-phase I/O's large merged requests are cheap. Fragmented
// extents land as many small object ranges, each a separate request. The
// returned slice is sorted by target; targets untouched by the extents are
// absent.
//
// The decomposition is closed-form: one extent spanning stripe units
// [first, last] touches min(units, Targets) targets, and on each the
// units it owns (first+i, first+i+Targets, ...) occupy consecutive
// object-space stripe slots, so they form exactly one object range —
// trimmed at the extremes by the extent's partial head and tail units.
// The cost is O(targets touched) per extent, independent of extent
// length, which is what lets the analytical engine price exabyte-scale
// accesses. (mapExtentsByUnit is the per-unit walk this replaces, kept
// as the property-test oracle.)
func (c Config) MapExtents(exts []Extent) []TargetAccess {
	out := c.NewMapper().Map(exts)
	if out == nil {
		out = []TargetAccess{}
	}
	return out
}

// Mapper is MapExtents with reusable scratch: after warm-up a Map call
// allocates nothing, which matters to the analytical engine mapping one
// slice per domain per round — millions of calls at exascale. Not safe
// for concurrent use; the returned slice is overwritten by the next Map.
type Mapper struct {
	cfg     Config
	accs    []mapAcc
	touched []int
	out     []TargetAccess
}

type mapAcc struct {
	bytes    int64
	requests int
	lastEnd  int64
	active   bool
}

// NewMapper builds a Mapper for the configuration.
func (c Config) NewMapper() *Mapper {
	return &Mapper{cfg: c, accs: make([]mapAcc, c.Targets)}
}

// Map decomposes the extents exactly as MapExtents does.
func (m *Mapper) Map(exts []Extent) []TargetAccess {
	su := m.cfg.StripeUnit
	tn := int64(m.cfg.Targets)
	for _, e := range normalized(exts) {
		off, end := e.Offset, e.End()
		firstUnit := off / su
		lastUnit := (end - 1) / su
		span := lastUnit - firstUnit + 1
		if span > tn {
			span = tn
		}
		for i := int64(0); i < span; i++ {
			// Units on this target: u1, u1+tn, ..., u2.
			u1 := firstUnit + i
			u2 := u1 + ((lastUnit-u1)/tn)*tn
			count := (u2-u1)/tn + 1
			var head, tail int64
			if u1 == firstUnit {
				head = off - firstUnit*su
			}
			if u2 == lastUnit {
				tail = (lastUnit+1)*su - end
			}
			a := &m.accs[u1%tn]
			if !a.active {
				a.active = true
				a.lastEnd = -1
				m.touched = append(m.touched, int(u1%tn))
			}
			a.bytes += count*su - head - tail
			// Ranges arrive in ascending object order (extents are
			// normalized and object offset is monotone in file offset per
			// target), so merging is a single adjacency check, exactly as
			// the per-unit walk's sort-and-merge would do.
			objStart := (u1/tn)*su + head
			if objStart > a.lastEnd {
				a.requests++
			}
			a.lastEnd = (u2/tn)*su + su - tail
		}
	}
	sort.Ints(m.touched)
	m.out = m.out[:0]
	for _, t := range m.touched {
		a := &m.accs[t]
		m.out = append(m.out, TargetAccess{
			Target:     t,
			Bytes:      a.bytes,
			Requests:   a.requests,
			Contiguous: a.requests == 1,
		})
		*a = mapAcc{}
	}
	m.touched = m.touched[:0]
	return m.out
}

// mapExtentsByUnit is the original stripe-unit-by-stripe-unit
// decomposition, O(bytes/StripeUnit) per extent. It survives as the
// oracle the closed-form MapExtents is property-tested against.
func (c Config) mapExtentsByUnit(exts []Extent) []TargetAccess {
	type objRange struct{ off, end int64 }
	perTarget := make(map[int][]objRange)
	su := c.StripeUnit
	for _, e := range normalized(exts) {
		off, remaining := e.Offset, e.Length
		for remaining > 0 {
			target, objOff := c.stripeLoc(off)
			n := su - off%su
			if n > remaining {
				n = remaining
			}
			perTarget[target] = append(perTarget[target], objRange{objOff, objOff + n})
			off += n
			remaining -= n
		}
	}
	targets := make([]int, 0, len(perTarget))
	for t := range perTarget {
		targets = append(targets, t)
	}
	sort.Ints(targets)
	out := make([]TargetAccess, 0, len(targets))
	for _, t := range targets {
		ranges := perTarget[t]
		sort.Slice(ranges, func(i, j int) bool { return ranges[i].off < ranges[j].off })
		var merged []objRange
		var bytes int64
		for _, r := range ranges {
			bytes += r.end - r.off
			if n := len(merged); n > 0 && r.off <= merged[n-1].end {
				if r.end > merged[n-1].end {
					merged[n-1].end = r.end
				}
				continue
			}
			merged = append(merged, r)
		}
		out = append(out, TargetAccess{
			Target:     t,
			Bytes:      bytes,
			Requests:   len(merged),
			Contiguous: len(merged) == 1,
		})
	}
	return out
}
