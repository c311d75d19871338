package main

import (
	"fmt"
	"path/filepath"
	"strconv"

	"mcio/internal/obs"
)

// baselineDir holds the committed ledgers, relative to the repository
// root the benchmark runs from.
var baselineDir = "baselines"

// gate compares priced cells against a committed ledger. It is active only
// when the run's seed is the ledger's own; at any other seed there is no
// reference and only the structural checks apply.
type gate struct {
	want map[string]obs.RunEntry
}

// loadGate reads the named committed ledger. An empty file name, or a
// seed the ledger was not recorded at, yields an inactive gate.
func loadGate(file string, seed uint64) (*gate, error) {
	if file == "" {
		return &gate{}, nil
	}
	rec, err := obs.LoadRunRecord(filepath.Join(baselineDir, file))
	if err != nil {
		return nil, fmt.Errorf("load baseline: %w", err)
	}
	if rec.Params["seed"] != strconv.FormatUint(seed, 10) {
		return &gate{}, nil
	}
	g := &gate{want: map[string]obs.RunEntry{}}
	for _, e := range rec.Entries {
		g.want[e.Name] = e
	}
	return g, nil
}

func (g *gate) active() bool { return g.want != nil }

// check requires got to equal the baseline entry of the same name exactly:
// bandwidth, simulated seconds, rounds and every metric the baseline
// records (domains, paged aggregators, failovers, stalls, ...).
func (g *gate) check(got obs.RunEntry) error {
	if !g.active() {
		return nil
	}
	want, ok := g.want[got.Name]
	if !ok {
		return fmt.Errorf("no baseline entry %q", got.Name)
	}
	if got.BandwidthMBps != want.BandwidthMBps {
		return fmt.Errorf("bandwidth %v MB/s, baseline %v", got.BandwidthMBps, want.BandwidthMBps)
	}
	if got.WallSeconds != want.WallSeconds {
		return fmt.Errorf("simulated %v s, baseline %v", got.WallSeconds, want.WallSeconds)
	}
	if got.Rounds != want.Rounds {
		return fmt.Errorf("%d rounds, baseline %d", got.Rounds, want.Rounds)
	}
	for k, w := range want.Metrics {
		v, ok := got.Metrics[k]
		if !ok || v != w {
			return fmt.Errorf("%s = %v, baseline %v", k, v, w)
		}
	}
	return nil
}
