// Package fastsim is the analytical fast path for pricing collective
// I/O: it prices a plan from the aggregate round structure
// (collio.Shape) instead of replaying one message per rank, so a
// 10k-node / million-rank sweep costs seconds and O(aggregators +
// storage targets) memory where the byte path would materialize millions
// of messages per round.
//
// Both engines consume the same pricing core (internal/sim/pricing)
// through the same sim.Engine's RunAggRound: the fast path feeds it
// per-route aggregates, the byte path one message per rank. The
// engine reduces messages to per-node byte loads before pricing either
// way, and sim.Options.Validate admits only integral MemCopyFactor
// values, so the two paths produce bit-identical seconds, totals and
// traces — an invariant the cross-check tests (and the CI gate) enforce
// on every fig6/fig7/fig8 cell.
//
// Both engines run collio's one pricing loop, clean and faulted alike;
// this package is the fast engine's entry point. Differences from the
// byte path are observational only: the fast path never walks every
// rank, so the per-rank mpi.* counters and the per-domain
// collio.shuffle_bytes counters are not emitted. Engine-level metrics,
// spans, traces and ctx.Timeline recording are identical.
package fastsim

import (
	"mcio/internal/collio"
	"mcio/internal/faults"
	"mcio/internal/sim"
)

// Sim prices one planned collective operation analytically. Building it
// derives the plan's round structure once; Cost can then price both
// directions (and arbitrary engine options) without touching the
// requests again.
type Sim struct {
	ctx   *collio.Context
	plan  *collio.Plan
	shape *collio.Shape
}

// New derives the round structure of plan for the given requests.
func New(ctx *collio.Context, plan *collio.Plan, reqs []collio.RankRequest) (*Sim, error) {
	shape, err := collio.BuildShape(ctx, plan, reqs)
	if err != nil {
		return nil, err
	}
	return &Sim{ctx: ctx, plan: plan, shape: shape}, nil
}

// Cost prices the operation. The result mirrors collio.Cost field for
// field: same engine, same per-round quantities, same accounting.
func (s *Sim) Cost(op collio.Op, opt sim.Options) (*collio.CostResult, error) {
	return collio.CostShape(s.ctx, s.plan, s.shape, op, opt)
}

// Cost builds the shape and prices one operation in one call — the
// drop-in analytical replacement for collio.Cost.
func Cost(ctx *collio.Context, plan *collio.Plan, reqs []collio.RankRequest, op collio.Op, opt sim.Options) (*collio.CostResult, error) {
	s, err := New(ctx, plan, reqs)
	if err != nil {
		return nil, err
	}
	return s.Cost(op, opt)
}

// CostWithFaults prices a faulted run analytically, bit-identical to
// collio.CostWithFaults: both run collio's one faulted pricing loop,
// which here bundles healthy traffic per node and walks per rank only
// the messages leaving nodes with live message-fault state. Adaptive
// policies (collio.CostAdaptive) stay on the byte path: hedging feeds a
// delay window whose contents depend on message order.
func CostWithFaults(ctx *collio.Context, plan *collio.Plan, reqs []collio.RankRequest,
	op collio.Op, opt sim.Options, inj *faults.Injector, handler collio.FaultHandler) (*collio.FaultResult, error) {
	return collio.CostWithFaultsBundled(ctx, plan, reqs, op, opt, inj, handler)
}
