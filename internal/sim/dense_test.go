package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"mcio/internal/machine"
)

// exaStorage is a storage model sized like the fig-exa experiments'.
var exaStorage = StorageParams{Targets: 256, TargetBW: 500e6, ReqOverhead: 0.5e-3, NoncontigFactor: 4}

// exaRound builds one data round shaped like a fig-exa round on 10k
// nodes: a few thousand per-route shuffle bundles into a few hundred
// aggregators, and one storage access per aggregator. It returns the
// round and the aggregator placement it assumes.
func exaRound(seed int64) (AggRound, []AggregatorPlacement) {
	const nodes, aggs, msgs = 10_000, 400, 4_000
	rng := rand.New(rand.NewSource(seed))
	var r AggRound
	var place []AggregatorPlacement
	aggNode := make([]int, aggs)
	for i := range aggNode {
		aggNode[i] = i * (nodes / aggs)
		place = append(place, AggregatorPlacement{
			Node:          aggNode[i],
			BufferBytes:   16 << 20,
			PagedSeverity: float64(rng.Intn(3)) / 4,
		})
	}
	for i := 0; i < msgs; i++ {
		bytes := int64(1 + rng.Intn(1<<20))
		r.Messages = append(r.Messages, AggMessage{
			SrcNode: rng.Intn(nodes), DstNode: aggNode[rng.Intn(aggs)], Bytes: bytes, Count: 1 + rng.Intn(8),
		})
	}
	for _, n := range aggNode {
		r.IOOps = append(r.IOOps, IOOp{
			Target: rng.Intn(exaStorage.Targets), Node: n, Bytes: 16 << 20,
			Requests: 1 + rng.Intn(4), Contiguous: rng.Intn(2) == 0, Write: true,
		})
	}
	return r, place
}

// exaEngine is an engine with exaRound's placement declared, warmed by
// one round so its tables have reached their steady-state size.
func exaEngine(tb testing.TB) (*Engine, AggRound) {
	tb.Helper()
	e, err := NewEngine(machine.Testbed640(), exaStorage, DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	r, place := exaRound(1)
	e.SetAggregators(place)
	e.RunAggRound(r)
	return e, r
}

// TestRunAggRoundAllocatesNothing pins the Engine's steady-state claim:
// once its tables have grown to the ids a round touches, pricing
// another such round allocates nothing.
func TestRunAggRoundAllocatesNothing(t *testing.T) {
	e, r := exaEngine(t)
	if n := testing.AllocsPerRun(20, func() { e.RunAggRound(r) }); n != 0 {
		t.Fatalf("steady-state RunAggRound allocates %v times per round, want 0", n)
	}
}

func BenchmarkRunAggRound(b *testing.B) {
	e, r := exaEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunAggRound(r)
	}
}

// TestEngineStateResets prices a B sequence on an engine that already
// priced rounds under a different placement, paging, slowdowns and node
// range (A), and on a fresh engine. Every per-node and per-target table
// must forget A where the API says it does (SetAggregators, factor-1
// slowdowns, round scratch), so the two B sequences price identically.
func TestEngineStateResets(t *testing.T) {
	const sparse = 999_999
	opt := DefaultOptions()
	opt.Trace = true
	newEng := func() *Engine {
		e, err := NewEngine(machine.Testbed640(), exaStorage, opt)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// Phase A: placement on nodes 0, 4 and the sparse id, a straggler, a
	// gray target, a paged bystander, traffic on nodes B never touches.
	dirty := newEng()
	dirty.SetAggregators([]AggregatorPlacement{
		{Node: 0, BufferBytes: 1 << 20, PagedSeverity: 0.5},
		{Node: 4, BufferBytes: 1 << 20},
		{Node: 4, BufferBytes: 1 << 20},
		{Node: sparse, BufferBytes: 1 << 20, PagedSeverity: 1},
	})
	dirty.SetNodePaged(9, 0.9)
	dirty.SetNodeSlowdown(3, 4)
	dirty.SetTargetSlowdown(7, 3)
	dirty.RunRound(Round{
		Messages: []Message{{SrcNode: 9, DstNode: 0, Bytes: 5 << 20}, {SrcNode: 3, DstNode: sparse, Bytes: 1 << 20}},
		IOOps:    []IOOp{{Target: 7, Node: 4, Bytes: 8 << 20, Requests: 2, Write: true}},
	})
	dirty.RunAggRound(AggRound{Kind: RoundMetadata, Exchanges: []Exchange{{
		Srcs: []ExchangeSrc{{Node: 0, Bytes: 64, Count: 2}, {Node: 11, Bytes: 32, Count: 1}},
		Dsts: []ExchangeDst{{Node: 0, Slots: 1}, {Node: 4, Slots: 2}},
	}}})
	// The comparison is of pricing state, not of what A accumulated:
	// clear the operation's outputs so both engines start B from zero.
	dirty.totals, dirty.trace = Totals{}, nil
	dirty.shuffle.reset()

	// Phase B, identical on both engines. Node 2's send to the sparse id
	// binds the first round, so a load lost to table growth shows in the
	// trace's binding.
	b := func(e *Engine) []RoundCost {
		e.SetAggregators([]AggregatorPlacement{
			{Node: 1, BufferBytes: 1 << 20, PagedSeverity: 0.25},
			{Node: 4, BufferBytes: 1 << 20},
		})
		e.SetNodePaged(2, 0.8)
		e.SetNodePaged(2, 0)
		e.SetNodeSlowdown(3, 1)
		e.SetTargetSlowdown(7, 1)
		return []RoundCost{
			e.RunRound(Round{
				Messages: []Message{{SrcNode: 3, DstNode: 1, Bytes: 3 << 20}, {SrcNode: 2, DstNode: sparse, Bytes: 8 << 20}},
				IOOps:    []IOOp{{Target: 7, Node: 1, Bytes: 4 << 20, Requests: 1, Contiguous: true, Write: true}},
			}),
			e.RunAggRound(AggRound{Kind: RoundMetadata, Exchanges: []Exchange{{
				Srcs: []ExchangeSrc{{Node: 1, Bytes: 48, Count: 3}, {Node: 2, Bytes: 16, Count: 1}},
				Dsts: []ExchangeDst{{Node: 1, Slots: 1}, {Node: 4, Slots: 1}},
			}}}),
			e.RunAggRound(AggRound{
				Messages: []AggMessage{{SrcNode: 0, DstNode: 4, Bytes: 1 << 20, Count: 2}},
				IOOps:    []IOOp{{Target: 0, Node: 4, Bytes: 1 << 20, Requests: 1}},
			}),
		}
	}
	fresh := newEng()
	if got, want := b(dirty), b(fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("round costs after reset:\n got %+v\nwant %+v", got, want)
	}
	if got, want := dirty.Trace(), fresh.Trace(); !reflect.DeepEqual(got, want) {
		t.Fatalf("traces after reset:\n got %+v\nwant %+v", got, want)
	}
	if got, want := dirty.Totals(), fresh.Totals(); !reflect.DeepEqual(got, want) {
		t.Fatalf("totals after reset:\n got %+v\nwant %+v", got, want)
	}

	// Raising and lowering one node's paging lists it once, not once per
	// call, and nothing else grows either.
	for i := 0; i < 1000; i++ {
		dirty.SetNodePaged(5, 0.5)
		dirty.SetNodePaged(5, 0)
		dirty.SetNodeSlowdown(5, 2)
		dirty.SetNodeSlowdown(5, 1)
	}
	for name, n := range map[string]int{
		"placement": len(dirty.place.ids), "slowdown": len(dirty.slow.ids),
		"loads": len(dirty.loads.ids), "targets": len(dirty.targets.ids),
		"exchange": len(dirty.xnodes.ids), "shuffle": len(dirty.shuffle.ids),
	} {
		if n > 8 {
			t.Errorf("%s table lists %d ids after repeated updates of one node", name, n)
		}
	}
}
