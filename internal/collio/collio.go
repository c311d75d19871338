// Package collio defines the shared machinery of collective I/O
// strategies: the planning contract every strategy implements, the cost
// executor that prices a plan on the simulated machine, and the data
// executor that really moves bytes between ranks and the striped file
// system to verify a plan's semantics.
//
// A collective operation is processed in two separable stages, mirroring
// how ROMIO structures two-phase I/O:
//
//  1. Plan — from every rank's flattened access list, decide aggregation
//     groups, file domains, aggregator placement and buffer sizes. This is
//     the algorithmic content of both the baseline and the paper's
//     memory-conscious strategy, and it is pure metadata: it works
//     unchanged whether the operation covers kilobytes or terabytes.
//  2. Execute — either really move the bytes (Exec, used by the library
//     API and the correctness tests) or price the movement on the machine
//     model (Cost, used by the benchmark harness at the paper's full data
//     sizes, where materializing the bytes would be pointless).
package collio

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/obs"
	"mcio/internal/obs/timeline"
	"mcio/internal/pfs"
	"mcio/internal/sim"
)

// Op is the direction of a collective operation.
type Op int

// Collective operation directions.
const (
	Read Op = iota
	Write
)

// String returns "read" or "write".
func (o Op) String() string {
	if o == Write {
		return "write"
	}
	return "read"
}

// RankRequest is one rank's declared access: the file-space extents its
// file view resolves to for this collective call.
//
// Extents must be canonical (pfs.IsNormalized): every extent non-empty,
// ascending by offset, and neither overlapping nor touching its
// predecessor. An empty list is canonical — a rank may sit out a call.
// Requests become canonical where they are built (file-view flattening,
// the workload generators); every layer below reads them as they are.
// CheckRequests enforces the contract at planning, at Plan.Validate and
// at the plan-free entry points, and rejects a non-canonical request
// with an error naming the rank; nothing repairs one silently.
type RankRequest struct {
	Rank    int
	Extents []pfs.Extent
}

// Bytes returns the total data bytes of the request.
func (r RankRequest) Bytes() int64 { return pfs.TotalBytes(r.Extents) }

// CheckRequests is the one gate requests pass on their way in: it checks
// that every request names a rank in [0, nranks), that no rank carries
// two requests, and that every request's extents are canonical, and it
// returns the canonical union of all requests' extents — the aggregate
// access region planners divide. The union is a fresh slice that never
// aliases a request.
//
// Every request is already a sorted run, so the union is a merge, not a
// sort: the runs are merged pairwise, depth first over reqs, coalescing
// as they go (mergeRuns). For n extents in k requests that is O(n log k)
// comparisons in the worst case, where no two requests touch, with at
// most two buffers per depth of the merge tree — about three times the
// union's own size in that case. Where neighbouring requests touch, as
// in coll_perf subarrays and interleaved or segmented IOR, the merged
// runs shrink as they climb and the buffers with them.
func CheckRequests(nranks int, reqs []RankRequest) ([]pfs.Extent, error) {
	maxRank := -1
	for _, r := range reqs {
		if r.Rank < 0 || r.Rank >= nranks {
			return nil, fmt.Errorf("collio: request for invalid rank %d", r.Rank)
		}
		if err := checkExtents(r.Rank, r.Extents); err != nil {
			return nil, err
		}
		maxRank = max(maxRank, r.Rank)
	}
	if r, ok := repeatedRank(reqs, maxRank); ok {
		return nil, fmt.Errorf("collio: rank %d has more than one request; "+
			"merge its extents into one canonical list", r)
	}
	return mergeRequests(reqs), nil
}

// repeatedRank reports the first rank that appears in two requests. The
// seen-set is a bitset sized from the largest rank (Plan.Validate has no
// topology to size it from); when the ranks are so sparse that the bitset
// would outweigh the request slice itself, a map stands in.
func repeatedRank(reqs []RankRequest, maxRank int) (int, bool) {
	if words := maxRank/64 + 1; words <= 4*len(reqs) {
		seen := make([]uint64, words)
		for _, r := range reqs {
			w, bit := r.Rank/64, uint64(1)<<(r.Rank%64)
			if seen[w]&bit != 0 {
				return r.Rank, true
			}
			seen[w] |= bit
		}
		return 0, false
	}
	seen := make(map[int]bool, len(reqs))
	for _, r := range reqs {
		if seen[r.Rank] {
			return r.Rank, true
		}
		seen[r.Rank] = true
	}
	return 0, false
}

// mergeRequests returns the canonical union of the canonical requests in
// a fresh slice (see CheckRequests).
func mergeRequests(reqs []RankRequest) []pfs.Extent {
	switch len(reqs) {
	case 0:
		return []pfs.Extent{}
	case 1:
		return append([]pfs.Extent{}, reqs[0].Extents...)
	}
	m := runMerger{reqs: reqs}
	return m.merge(0, len(reqs), 0, 0)
}

// runMerger merges the request runs of reqs[lo:hi] depth first. A leaf
// is a request's own extents, read in place; an inner node at depth d
// writes its run into bufs[d][slot], where slot says whether it is its
// parent's left (0) or right (1) child. A node's left result is
// therefore never overwritten while its right subtree is merged, and
// each buffer is reused by every node at its depth and slot. The root
// merges into a fresh slice, which is the union returned.
type runMerger struct {
	reqs []RankRequest
	bufs [][2][]pfs.Extent
}

func (m *runMerger) merge(lo, hi, depth, slot int) []pfs.Extent {
	if hi-lo == 1 {
		return m.reqs[lo].Extents
	}
	mid := lo + (hi-lo)/2
	a := m.merge(lo, mid, depth+1, 0)
	b := m.merge(mid, hi, depth+1, 1)
	if depth == 0 {
		return mergeRuns(make([]pfs.Extent, 0, len(a)+len(b)), a, b)
	}
	for len(m.bufs) <= depth {
		m.bufs = append(m.bufs, [2][]pfs.Extent{})
	}
	dst := m.bufs[depth][slot][:0]
	if cap(dst) < len(a)+len(b) {
		dst = make([]pfs.Extent, 0, len(a)+len(b))
	}
	dst = mergeRuns(dst, a, b)
	m.bufs[depth][slot] = dst
	return dst
}

// mergeRuns appends the canonical union of the canonical runs a and b to
// dst, coalescing overlapping and touching extents as it merges.
func mergeRuns(dst, a, b []pfs.Extent) []pfs.Extent {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var e pfs.Extent
		if j == len(b) || (i < len(a) && a[i].Offset <= b[j].Offset) {
			e = a[i]
			i++
		} else {
			e = b[j]
			j++
		}
		if n := len(dst); n > 0 && e.Offset <= dst[n-1].End() {
			if e.End() > dst[n-1].End() {
				dst[n-1].Length = e.End() - dst[n-1].Offset
			}
			continue
		}
		dst = append(dst, e)
	}
	return dst
}

// checkExtents reports the first extent of rank's request that breaks
// the canonical form.
func checkExtents(rank int, exts []pfs.Extent) error {
	for i, e := range exts {
		if e.Length <= 0 || (i > 0 && e.Offset <= exts[i-1].End()) {
			return fmt.Errorf("collio: rank %d extent %d %+v is empty, out of order, or overlaps or touches "+
				"its predecessor; normalize the list (pfs.NormalizeExtents) where the request is built", rank, i, e)
		}
	}
	return nil
}

// Params carries the tunables the paper names.
type Params struct {
	// CollBufSize is the per-aggregator collective buffer size — the
	// x-axis of every figure in the paper (ROMIO's cb_buffer_size). The
	// baseline uses it verbatim; the memory-conscious strategy treats it
	// as the desired buffer and adapts to host memory.
	CollBufSize int64
	// MsgInd is the per-aggregator message size that saturates one
	// aggregator's I/O path (the paper's Msg_ind); file domains are
	// bisected until a domain's data fits within it.
	MsgInd int64
	// MsgGroup is the target data volume of one aggregation group (the
	// paper's Msg_group).
	MsgGroup int64
	// Nah is the maximum number of aggregators one host accommodates
	// before losing performance (the paper's N_ah).
	Nah int
	// MemMin is the minimum available memory a node must have to host an
	// aggregator effectively (the paper's Mem_min).
	MemMin int64
}

// Validate reports an error for unusable parameters.
func (p Params) Validate() error {
	switch {
	case p.CollBufSize <= 0:
		return fmt.Errorf("collio: CollBufSize must be positive")
	case p.MsgInd <= 0:
		return fmt.Errorf("collio: MsgInd must be positive")
	case p.MsgGroup <= 0:
		return fmt.Errorf("collio: MsgGroup must be positive")
	case p.Nah <= 0:
		return fmt.Errorf("collio: Nah must be positive")
	case p.MemMin < 0:
		return fmt.Errorf("collio: MemMin must be non-negative")
	}
	return nil
}

// DefaultParams returns parameters sized for a given collective buffer:
// MsgInd = the buffer (one round fills one buffer), MsgGroup = 32 buffers,
// Nah = 4, MemMin = half the buffer.
func DefaultParams(collBuf int64) Params {
	return Params{
		CollBufSize: collBuf,
		MsgInd:      collBuf,
		MsgGroup:    32 * collBuf,
		Nah:         4,
		MemMin:      collBuf / 2,
	}
}

// Context is everything a strategy may consult while planning.
type Context struct {
	Topo    mpi.Topology
	Machine machine.Config
	// Avail is the available aggregation memory per node (bytes), indexed
	// by node ID — the quantity the paper's run-time aggregator selection
	// inspects.
	Avail  []int64
	FS     pfs.Config
	Params Params
	// Obs, when non-nil, receives metrics and spans from planning and
	// execution: planners publish placement decisions, Cost publishes the
	// per-round timeline and traffic counters, Exec wires the mpi runtime.
	// Nil disables observability at near-zero cost.
	Obs *obs.Observer
	// Timeline, when non-nil, receives time-resolved utilization series
	// and journal events from pricing: per-node and per-target busy
	// fractions from the engine, buffer-occupancy and memory-pressure
	// gauges, and fault/suspicion/breaker/failover events. Recording is
	// pure observation — costs are identical with or without it. Nil
	// (the default) disables profiling.
	Timeline *timeline.Recorder
}

// Validate reports an error when the context is internally inconsistent.
func (c *Context) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if err := c.FS.Validate(); err != nil {
		return err
	}
	if c.Topo.Size() == 0 {
		return fmt.Errorf("collio: empty topology")
	}
	if c.Topo.Nodes() > len(c.Avail) {
		return fmt.Errorf("collio: topology spans %d nodes but Avail has %d entries",
			c.Topo.Nodes(), len(c.Avail))
	}
	return nil
}

// StorageParams is the storage model the pricing engine charges the
// context's file system with.
func (c *Context) StorageParams() sim.StorageParams {
	return sim.StorageParams{
		Targets:         c.FS.Targets,
		TargetBW:        c.FS.TargetBW,
		ReqOverhead:     c.FS.ReqOverhead,
		NoncontigFactor: c.FS.NoncontigFactor,
		ReadBWFactor:    c.FS.ReadBWFactor,
	}
}

// Domain is one file domain: a set of file extents serviced by exactly one
// aggregator.
type Domain struct {
	// Extents is the data in this domain (normalized). The domain's span
	// may include holes no rank requested.
	Extents []pfs.Extent
	// Bytes is the total data bytes (sum of extent lengths).
	Bytes int64
	// Group is the aggregation group index this domain belongs to.
	Group int
	// Aggregator is the rank that services the domain.
	Aggregator int
	// AggNode is the node hosting the aggregator.
	AggNode int
	// BufferBytes is the collective buffer the aggregator cycles data
	// through; the operation needs ceil(Bytes/BufferBytes) rounds.
	BufferBytes int64
	// PagedSeverity is the fraction of the buffer that over-commits the
	// host's available memory, in [0,1].
	PagedSeverity float64
}

// Rounds returns how many collective buffer cycles the domain needs.
func (d Domain) Rounds() int {
	if d.Bytes == 0 {
		return 0
	}
	return int((d.Bytes + d.BufferBytes - 1) / d.BufferBytes)
}

// Plan is a strategy's decision for one collective operation.
type Plan struct {
	Strategy string
	// Domains, across all groups, ordered by file offset.
	Domains []Domain
	// Groups is the number of aggregation groups.
	Groups int
	// GroupRanks[g] lists the ranks whose data falls in group g —
	// metadata exchange is confined to these.
	GroupRanks [][]int
}

// Aggregators returns the distinct aggregator ranks of the plan, sorted.
func (p *Plan) Aggregators() []int {
	seen := map[int]bool{}
	for _, d := range p.Domains {
		seen[d.Aggregator] = true
	}
	out := make([]int, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// TotalBytes returns the data bytes covered by the plan's domains.
func (p *Plan) TotalBytes() int64 {
	var n int64
	for _, d := range p.Domains {
		n += d.Bytes
	}
	return n
}

// Validate checks the structural invariants every plan must satisfy:
// the requests pass CheckRequests; domains are non-empty, canonical,
// disjoint and sorted; and they exactly cover the union of the requested
// extents.
func (p *Plan) Validate(reqs []RankRequest) error {
	want, err := CheckRequests(math.MaxInt, reqs)
	if err != nil {
		return err
	}
	// Domains are required in file order, so their extents coalesce into
	// the covered region in one pass.
	got := make([]pfs.Extent, 0, len(want))
	var prevEnd int64 = -1
	for i, d := range p.Domains {
		if len(d.Extents) == 0 || d.Bytes == 0 {
			return fmt.Errorf("collio: plan %s: domain %d is empty", p.Strategy, i)
		}
		if !pfs.IsNormalized(d.Extents) {
			return fmt.Errorf("collio: plan %s: domain %d extents are not canonical", p.Strategy, i)
		}
		if d.Bytes != pfs.TotalBytes(d.Extents) {
			return fmt.Errorf("collio: plan %s: domain %d bytes %d != extents %d",
				p.Strategy, i, d.Bytes, pfs.TotalBytes(d.Extents))
		}
		if d.BufferBytes <= 0 {
			return fmt.Errorf("collio: plan %s: domain %d has no buffer", p.Strategy, i)
		}
		if d.Extents[0].Offset <= prevEnd {
			return fmt.Errorf("collio: plan %s: domain %d overlaps or is out of order", p.Strategy, i)
		}
		prevEnd = d.Extents[len(d.Extents)-1].End() - 1
		if d.Aggregator < 0 {
			return fmt.Errorf("collio: plan %s: domain %d has no aggregator", p.Strategy, i)
		}
		if d.Group < 0 || d.Group >= p.Groups {
			return fmt.Errorf("collio: plan %s: domain %d group %d outside [0,%d)",
				p.Strategy, i, d.Group, p.Groups)
		}
		for _, e := range d.Extents {
			got = pfs.AppendExtent(got, e)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("collio: plan %s: domains cover %d extents, requests need %d",
			p.Strategy, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("collio: plan %s: coverage mismatch at extent %d: %v != %v",
				p.Strategy, i, got[i], want[i])
		}
	}
	return nil
}

// RecordPlanMetrics publishes a plan's shape — group count, domain count,
// aggregator placement, buffer sizing, paging exposure — into an
// observer, labelled by strategy so runs comparing strategies on one
// registry stay separable. Nil-safe; planners call this unconditionally.
func RecordPlanMetrics(o *obs.Observer, p *Plan) {
	if o == nil {
		return
	}
	s := obs.L("strategy", p.Strategy)
	o.Gauge("plan.groups", s).Set(float64(p.Groups))
	o.Gauge("plan.domains", s).Set(float64(len(p.Domains)))
	o.Gauge("plan.aggregators", s).Set(float64(len(p.Aggregators())))
	bufH := o.Histogram("plan.buffer_bytes", s)
	paged := 0
	aggsOnNode := map[int]int{}
	for _, d := range p.Domains {
		bufH.Observe(float64(d.BufferBytes))
		aggsOnNode[d.AggNode]++
		if d.PagedSeverity > 0 {
			paged++
		}
	}
	o.Gauge("plan.paged_domains", s).Set(float64(paged))
	for node, n := range aggsOnNode {
		o.Gauge("plan.aggs_on_node", s, obs.L("node", strconv.Itoa(node))).Set(float64(n))
	}
}

// Strategy plans collective operations.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Plan decides groups, domains and aggregators for the given requests.
	// Requests with no extents are permitted (ranks may sit out a
	// collective call).
	Plan(ctx *Context, reqs []RankRequest) (*Plan, error)
}
