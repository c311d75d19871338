package bench

import (
	"reflect"
	"strings"
	"testing"
)

// TestFaultedExaEnginesMatchSmall shrinks the fig-exa-faults grid to a
// byte-path-feasible size and cross-checks that both engines price
// every cell — crash remerges, stalls, stragglers and all — bit for
// bit. The engines come from the registry entry and reach the grid as
// Config.Engine, the way exaFaultsLedger passes `mcio bench
// fig-exa-faults -engine` on.
func TestFaultedExaEnginesMatchSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("two full fault grids, byte path included")
	}
	e, err := BenchCmd.Lookup("fig-exa-faults")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Engines) != 2 {
		t.Fatalf("fig-exa-faults declares engines %v, want both", e.Engines)
	}
	byEngine := map[string][]ExaFaultPoint{}
	for _, eng := range e.Engines {
		cfg := FigExaFaultsConfig(testScale, 42)
		cfg.Ranks = 600
		cfg.RanksPerNode = 6
		cfg.Targets = 16
		cfg.Engine = eng
		pts, err := figExaFaultsRunCfg(cfg)
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		byEngine[eng] = pts
	}
	fast, bytes := byEngine[EngineFast], byEngine[EngineBytes]
	if len(fast) != len(bytes) || len(fast) == 0 {
		t.Fatalf("point counts diverge: fast %d, bytes %d", len(fast), len(bytes))
	}
	exercised := 0
	for i := range fast {
		f, b := fast[i], bytes[i]
		if f.RefSeconds != b.RefSeconds {
			t.Fatalf("cell %+v/%s: references diverge: fast %v, bytes %v",
				f.Cell, f.Strategy, f.RefSeconds, b.RefSeconds)
		}
		if !reflect.DeepEqual(f.Res, b.Res) {
			t.Fatalf("cell %+v/%s: engines diverge\nfast  %+v\nbytes %+v",
				f.Cell, f.Strategy, f.Res, b.Res)
		}
		exercised += f.Res.Failovers + f.Res.Stalls
	}
	if exercised == 0 {
		t.Fatal("no grid cell exercised a failover or stall; the cross-check proved nothing")
	}
}

// TestChaosRejectsFastEngine pins the engine contract for experiments
// that declare only the byte path: the chaos campaigns execute
// byte-level collectives (hedging, dedup, breaker decisions are
// per-message) and must refuse the analytical engine with an error that
// names the engine they support, instead of silently running on bytes.
func TestChaosRejectsFastEngine(t *testing.T) {
	for _, name := range []string{"chaos", "chaos-gray"} {
		_, err := Ledger(name, testScale, 42, EngineFast)
		if err == nil {
			t.Fatalf("%s: Ledger accepted the fast engine", name)
		}
		if !strings.Contains(err.Error(), "cannot run on engine") || !strings.Contains(err.Error(), "supported: "+EngineBytes) {
			t.Fatalf("%s: unhelpful rejection: %v", name, err)
		}
	}
	// The byte engine, named explicitly, must still work.
	if _, err := Ledger("chaos", testScale, 42, EngineBytes); err != nil {
		t.Fatalf("chaos on explicit byte engine: %v", err)
	}
}

// TestValidatePresetConflicts pins the preset × sweep validation: a
// memory point larger than the chosen machine's DRAM must be rejected
// up front (context() would silently clamp it and flatten the sweep),
// and a misspelled preset surfaces machine.Preset's error.
func TestValidatePresetConflicts(t *testing.T) {
	cfg := Fig7Config(1, 1) // scale 1: paper-scale MB reach the machine unshrunk
	cfg.Preset = "exascale2018"
	cfg.MemMB = []int{16}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("16 MB on exascale2018 should fit: %v", err)
	}
	cfg.MemMB = []int{1 << 20} // 1 TB per aggregator vs ~10 GB per node
	err := cfg.Validate()
	if err == nil {
		t.Fatal("TB-scale sweep point on a 10 GB/node machine accepted")
	}
	if !strings.Contains(err.Error(), "exascale-2018") || !strings.Contains(err.Error(), "shrink the sweep") {
		t.Fatalf("conflict error not actionable: %v", err)
	}

	// Headroom multiplies the endowment and must participate.
	cfg.MemMB = []int{16}
	cfg.HeadroomFactor = 1 << 30
	if err := cfg.Validate(); err == nil {
		t.Fatal("absurd headroom on a small machine accepted")
	}

	cfg = Fig7Config(1, 1)
	cfg.Preset = "exascale2019"
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "unknown preset") {
		t.Fatalf("bad preset not rejected: %v", err)
	}
}
