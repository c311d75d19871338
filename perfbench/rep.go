package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"mcio/internal/collio"
	"mcio/internal/obs"
	"mcio/internal/obs/analyze"
)

// rep is one pass over a workload's fixed operation set. Operations run
// one at a time, so a span's wall time and allocation delta belong to the
// layer it wraps alone.
type rep struct {
	tr     *tracer // nil in an untraced pass
	gate   *gate
	ops    int
	failed int
	errs   []string
	// Simulated bandwidth of every priced cell, MB/s, by strategy.
	mcMBps, tpMBps []float64
	// counts accumulates per-layer work counters (domains, rounds, ...).
	counts map[string]float64
	record obs.RunRecord
	// Real bytes moved and host seconds spent in WriteAll/ReadAll.
	writeBytes, writeSecs, readBytes, readSecs float64
}

func newRep(tr *tracer, g *gate, name string) *rep {
	return &rep{tr: tr, gate: g, counts: map[string]float64{}, record: obs.RunRecord{Version: 2, Name: name}}
}

// call runs fn as a span of the named layer when tracing.
func (r *rep) call(layer, cell string, fn func() error) error {
	if r.tr == nil {
		return fn()
	}
	i := r.tr.begin(layer, cell)
	defer r.tr.end(i)
	return fn()
}

// op counts one operation — a priced cell or a collective call — and
// counts it failed when fn returns an error.
func (r *rep) op(cell string, fn func() error) {
	r.ops++
	if err := fn(); err != nil {
		r.fail(cell, err)
	}
}

// fail counts one attempted operation that could not run or failed its
// gate.
func (r *rep) fail(cell string, err error) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf("%s: %v", cell, err))
}

func (r *rep) count(name string, v float64) { r.counts[name] += v }

// priced records a priced cell: it checks the priced user bytes, exports
// the ledger entry the committed baselines use, and gates it.
func (r *rep) priced(entry string, res *collio.CostResult, wantBytes int64, metrics map[string]float64) error {
	if res.UserBytes != wantBytes {
		return fmt.Errorf("priced %d user bytes, workload has %d", res.UserBytes, wantBytes)
	}
	switch res.Strategy {
	case "memory-conscious":
		r.mcMBps = append(r.mcMBps, res.Bandwidth/1e6)
	case "two-phase":
		r.tpMBps = append(r.tpMBps, res.Bandwidth/1e6)
	}
	e := obs.RunEntry{
		Name:          entry,
		BandwidthMBps: res.Bandwidth / 1e6,
		WallSeconds:   res.Seconds,
		Rounds:        res.Totals.Rounds,
		Metrics:       metrics,
	}
	_ = r.call("obs.export", entry, func() error {
		if len(res.Trace) > 0 {
			e.Blame = analyze.BlameFromTrace(res.Trace, false)
		}
		return nil
	})
	r.record.Entries = append(r.record.Entries, e)
	return r.gate.check(e)
}

// export encodes the pass's run record, as `mcio bench -out` would.
func (r *rep) export() {
	err := r.call("obs.export", "record", func() error {
		_, err := json.Marshal(&r.record)
		return err
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode run record: %v\n", err)
	}
}

// simMetrics are the simulated quantities of the pass: geometric-mean
// bandwidth per strategy and the memory-conscious gain over two-phase.
// A strategy with no priced cell reports 0, and so does the gain.
func (r *rep) simMetrics() (mc, tp, improvePct float64) {
	mc, tp = geomean(r.mcMBps), geomean(r.tpMBps)
	if mc == 0 || tp == 0 {
		return mc, tp, 0
	}
	return mc, tp, (mc/tp - 1) * 100
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
