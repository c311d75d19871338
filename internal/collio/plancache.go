package collio

import (
	"fmt"
	"sync"
)

// The plan cache memoizes validated plans. Sweeps re-derive identical
// partition trees constantly — every (config, memory point, strategy)
// cell is planned once per op pair, the tuner revisits parameter combos,
// and repeated experiment invocations (benchmarks, ablation overlap
// pairs) replan the very same inputs. Planning is deterministic, so the
// cache can only return what Plan would have computed.
//
// The key covers everything planning reads: the concrete strategy type
// and its exported fields (Name() alone is ambiguous — two-phase reports
// "two-phase" for every AggregatorsPerNode), the machine, filesystem and
// parameter configs, the topology's rank→node map, the availability
// vector, and a fingerprint of the request list.
var planCache = struct {
	sync.Mutex
	m map[string]*planEntry
}{m: map[string]*planEntry{}}

// planCacheLimit bounds the cache; on overflow the whole map is dropped
// (sweeps re-warm it in one pass, an LRU would be ceremony here).
const planCacheLimit = 512

type planEntry struct {
	once sync.Once
	plan *Plan
	err  error
}

// ResetPlanCache empties the cache — benchmarks use it to measure the
// cold path.
func ResetPlanCache() {
	planCache.Lock()
	planCache.m = map[string]*planEntry{}
	planCache.Unlock()
}

// planKey derives the cache key for one planning input. The topology,
// availability and request words are folded into one 64-bit
// fingerprint (fold); the key never leaves the process, so the hash
// needs no fixed format.
func planKey(s Strategy, ctx *Context, reqs []RankRequest) string {
	h := uint64(foldSeed)
	for r := 0; r < ctx.Topo.Size(); r++ {
		h = fold(h, int64(ctx.Topo.NodeOf(r)))
	}
	h = fold(h, int64(len(ctx.Avail)))
	for _, a := range ctx.Avail {
		h = fold(h, a)
	}
	h = fold(h, int64(len(reqs)))
	for _, r := range reqs {
		h = fold(h, int64(r.Rank))
		h = fold(h, int64(len(r.Extents)))
		for _, e := range r.Extents {
			h = fold(h, e.Offset)
			h = fold(h, e.Length)
		}
	}
	return fmt.Sprintf("%T|%+v|%+v|%+v|%+v|%x",
		s, s, ctx.Machine, ctx.FS, ctx.Params, h)
}

// foldSeed and foldMul are the fingerprint's starting state and its
// odd multiplier (the 64-bit golden ratio).
const (
	foldSeed = 0xcbf29ce484222325
	foldMul  = 0x9e3779b97f4a7c15
)

// fold mixes one word into the fingerprint h: xor it in, multiply, and
// fold the high half back down so every input bit reaches every output
// bit within a few words.
func fold(h uint64, v int64) uint64 {
	h = (h ^ uint64(v)) * foldMul
	return h ^ h>>32
}

// CachedPlan returns s.Plan(ctx, reqs) with the plan validated against
// reqs, memoized. The returned *Plan is shared: callers must treat it as
// immutable (Cost only reads it; fault-injected paths, whose recovery
// mutates plans mid-operation, must keep planning directly). Safe for
// concurrent use — concurrent misses on one key plan once.
//
// When ctx.Obs is set the cache is bypassed entirely: planning publishes
// observer metrics and spans, which a cache hit would silently drop.
func CachedPlan(s Strategy, ctx *Context, reqs []RankRequest) (*Plan, error) {
	if ctx.Obs != nil {
		plan, err := s.Plan(ctx, reqs)
		if err != nil {
			return nil, err
		}
		if err := plan.Validate(reqs); err != nil {
			return nil, err
		}
		return plan, nil
	}
	key := planKey(s, ctx, reqs)
	planCache.Lock()
	e := planCache.m[key]
	if e == nil {
		if len(planCache.m) >= planCacheLimit {
			planCache.m = make(map[string]*planEntry, planCacheLimit)
		}
		e = &planEntry{}
		planCache.m[key] = e
	}
	planCache.Unlock()
	e.once.Do(func() {
		e.plan, e.err = s.Plan(ctx, reqs)
		if e.err == nil {
			e.err = e.plan.Validate(reqs)
		}
	})
	if e.err != nil {
		return nil, e.err
	}
	return e.plan, nil
}
