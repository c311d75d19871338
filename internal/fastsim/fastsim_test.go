package fastsim

import (
	"math/rand"
	"reflect"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/layoutaware"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/pfs"
	"mcio/internal/sim"
	"mcio/internal/twophase"
)

// testContext builds a small self-consistent pricing context.
func testContext(t *testing.T, ranks, perNode, targets int, avail int64) *collio.Context {
	t.Helper()
	topo, err := mpi.BlockTopology(ranks, (ranks+perNode-1)/perNode)
	if err != nil {
		t.Fatal(err)
	}
	mc := machine.Testbed640()
	mc.Nodes = topo.Nodes()
	av := make([]int64, mc.Nodes)
	for i := range av {
		av[i] = avail
	}
	return &collio.Context{
		Topo:    topo,
		Machine: mc,
		Avail:   av,
		FS:      pfs.DefaultConfig(targets),
		Params:  collio.DefaultParams(avail),
	}
}

// priceBoth prices the plan with both engines and fails the test on any
// divergence in the full CostResult. One Sim prices write, read and
// write again, and the two writes must agree: pricing only reads the
// Shape both directions share.
func priceBoth(t *testing.T, ctx *collio.Context, s collio.Strategy, reqs []collio.RankRequest, opt sim.Options) {
	t.Helper()
	plan, err := collio.CachedPlan(s, ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(ctx, plan, reqs)
	if err != nil {
		t.Fatal(err)
	}
	var firstWrite *collio.CostResult
	for _, op := range []collio.Op{collio.Write, collio.Read, collio.Write} {
		want, err := collio.Cost(ctx, plan, reqs, op, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fs.Cost(op, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %s: engines diverge\nfast: %+v\nbyte: %+v",
				s.Name(), op, got, want)
		}
		if op != collio.Write {
			continue
		}
		if firstWrite == nil {
			firstWrite = got
		} else if !reflect.DeepEqual(got, firstWrite) {
			t.Fatalf("%s: repricing the write from the same Sim diverges\nfirst: %+v\nagain: %+v",
				s.Name(), firstWrite, got)
		}
	}
}

// TestFastMatchesByteContiguous cross-checks both engines on a dense
// contiguous workload under both strategies and both overlap modes.
func TestFastMatchesByteContiguous(t *testing.T) {
	ctx := testContext(t, 12, 4, 4, 16<<10)
	reqs := make([]collio.RankRequest, 12)
	const chunk = 3 << 10
	for r := range reqs {
		reqs[r] = collio.RankRequest{Rank: r, Extents: []pfs.Extent{
			{Offset: int64(r) * chunk, Length: chunk},
		}}
	}
	for _, overlap := range []bool{false, true} {
		opt := sim.DefaultOptions()
		opt.Overlap = overlap
		opt.Trace = true
		priceBoth(t, ctx, twophase.New(), reqs, opt)
		priceBoth(t, ctx, core.New(), reqs, opt)
	}
}

// TestFastMatchesByteInterleaved cross-checks a strided pattern where
// every round carries uneven remainders and multi-target stripe maps.
func TestFastMatchesByteInterleaved(t *testing.T) {
	ctx := testContext(t, 16, 4, 8, 8<<10)
	reqs := make([]collio.RankRequest, 16)
	const rec = 700
	for r := range reqs {
		for b := 0; b < 6; b++ {
			reqs[r].Extents = append(reqs[r].Extents, pfs.Extent{
				Offset: int64(b*16+r) * rec,
				Length: rec,
			})
		}
		reqs[r].Rank = r
	}
	opt := sim.DefaultOptions()
	opt.Trace = true
	priceBoth(t, ctx, twophase.New(), reqs, opt)
	priceBoth(t, ctx, core.New(), reqs, opt)
}

// randomReqs draws sparse requests that may overlap across ranks, some
// ranks idle; each list is made canonical, as a request builder does.
func randomReqs(rng *rand.Rand, ranks int) []collio.RankRequest {
	reqs := make([]collio.RankRequest, ranks)
	for r := 0; r < ranks; r++ {
		reqs[r].Rank = r
		for i, n := 0, rng.Intn(5); i < n; i++ {
			reqs[r].Extents = append(reqs[r].Extents, pfs.Extent{
				Offset: int64(rng.Intn(24 << 10)),
				Length: int64(rng.Intn(3 << 10)),
			})
		}
		reqs[r].Extents = pfs.NormalizeExtents(reqs[r].Extents)
	}
	return reqs
}

// TestFastMatchesByteRandom is the property test: random small seeded
// topologies and workloads (sparse, overlapping, some ranks idle) must
// price identically under both engines, strategies and directions.
func TestFastMatchesByteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		ranks := 2 + rng.Intn(20)
		perNode := 1 + rng.Intn(4)
		targets := 1 + rng.Intn(8)
		avail := int64(1+rng.Intn(32)) << 9
		ctx := testContext(t, ranks, perNode, targets, avail)
		reqs := randomReqs(rng, ranks)
		opt := sim.DefaultOptions()
		opt.Overlap = trial%2 == 0
		opt.Trace = true
		priceBoth(t, ctx, twophase.New(), reqs, opt)
		priceBoth(t, ctx, core.New(), reqs, opt)
	}
}

// FuzzEnginesMatch is the coverage-guided form of the clean cross-check.
// The fuzz input picks the topology (nodes, ranks per node, storage
// targets), the strategy, the direction and raw request lists: byte
// triples (rank, offset, length), appended in input order and never
// normalized, so unsorted, overlapping, touching and empty extents all
// arise. Each engine runs the full path — plan, validate, price. A
// non-canonical input must be rejected by both with the same error; a
// canonical one must price to reflect.DeepEqual results.
func FuzzEnginesMatch(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(4), uint8(0), uint8(0), []byte{0, 0, 8, 1, 1, 8, 2, 2, 8, 3, 3, 8})
	f.Add(uint8(3), uint8(3), uint8(2), uint8(1), uint8(1), []byte{0, 0, 40, 4, 5, 12, 8, 9, 30, 1, 20, 3})
	f.Add(uint8(2), uint8(2), uint8(8), uint8(2), uint8(0), []byte{3, 10, 9, 1, 40, 7, 2, 2, 1})
	f.Add(uint8(2), uint8(1), uint8(3), uint8(1), uint8(0), []byte{0, 9, 4, 0, 2, 4})   // unsorted
	f.Add(uint8(2), uint8(1), uint8(3), uint8(0), uint8(1), []byte{1, 2, 16, 1, 3, 16}) // overlapping
	f.Add(uint8(2), uint8(1), uint8(3), uint8(2), uint8(0), []byte{0, 2, 8, 0, 3, 8})   // touching
	f.Add(uint8(2), uint8(1), uint8(3), uint8(0), uint8(0), []byte{0, 2, 0})            // empty extent
	f.Fuzz(func(t *testing.T, nodes, perNode, targets, strategy, op uint8, data []byte) {
		n, per := 1+int(nodes%6), 1+int(perNode%4)
		ranks := n * per
		ctx := testContext(t, ranks, per, 1+int(targets%8), 4<<10)
		reqs := make([]collio.RankRequest, ranks)
		for r := range reqs {
			reqs[r].Rank = r
		}
		for i := 0; i+3 <= len(data); i += 3 {
			r := int(data[i]) % ranks
			reqs[r].Extents = append(reqs[r].Extents, pfs.Extent{
				Offset: int64(data[i+1]) * 64,
				Length: int64(data[i+2]%128) * 8,
			})
		}
		canonical := true
		for _, r := range reqs {
			canonical = canonical && pfs.IsNormalized(r.Extents)
		}
		s := []collio.Strategy{twophase.New(), core.New(), layoutaware.New()}[strategy%3]
		o := []collio.Op{collio.Write, collio.Read}[op%2]
		opt := sim.DefaultOptions()
		opt.Trace = true
		price := func(cost func(*collio.Context, *collio.Plan, []collio.RankRequest, collio.Op, sim.Options) (*collio.CostResult, error)) (*collio.CostResult, error) {
			plan, err := s.Plan(ctx, reqs)
			if err != nil {
				return nil, err
			}
			if err := plan.Validate(reqs); err != nil {
				return nil, err
			}
			return cost(ctx, plan, reqs, o, opt)
		}
		want, wantErr := price(collio.Cost)
		got, gotErr := price(Cost)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("errors diverge: fast %v, byte %v", gotErr, wantErr)
		}
		if !canonical {
			if wantErr == nil {
				t.Fatalf("non-canonical requests priced: %+v", reqs)
			}
			return
		}
		if wantErr != nil {
			t.Fatalf("canonical requests rejected: %v", wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %s: engines diverge\nfast: %+v\nbyte: %+v", s.Name(), o, got, want)
		}
	})
}
