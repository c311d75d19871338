package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mcio/internal/bench"
	"mcio/internal/collio"
	"mcio/internal/obs"
	"mcio/internal/obs/analyze"
)

// testScale keeps CLI-level runs fast; shapes are scale-invariant.
const testScale = 256

// TestExperimentListSingleSource pins the names every registry
// subcommand accepts, and checks that its unknown-name error lists
// exactly those names, in order.
func TestExperimentListSingleSource(t *testing.T) {
	for _, tc := range []struct {
		sub  bench.Subcommand
		want []string
	}{
		{bench.ExpCmd, []string{"table1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8",
			"motivation", "comparison", "random", "plan", "scaling",
			"trajectory", "blame", "trace", "tune", "ablation", "faults", "all"}},
		{bench.BenchCmd, []string{"fig6", "fig7", "fig8", "fig-exa", "fig-exa-faults",
			"trajectory", "faults", "chaos", "chaos-gray"}},
		{bench.ObserveCmd, []string{"fig6", "fig7", "fig8"}},
		{bench.ProfileCmd, []string{"fig6", "fig7", "fig8", "gray"}},
		{bench.ChaosCmd, []string{"corruption", "gray"}},
	} {
		if got := tc.sub.Names(); !slices.Equal(got, tc.want) {
			t.Errorf("%s accepts %v, want %v", tc.sub.Name, got, tc.want)
		}
		_, err := tc.sub.Lookup("bogus")
		if err == nil {
			t.Fatalf("%s accepted an unknown name", tc.sub.Name)
		}
		msg := err.Error()
		open := strings.Index(msg, "(valid: ")
		if open < 0 || !strings.HasSuffix(msg, ")") {
			t.Fatalf("%s: unknown-name error lists no names: %s", tc.sub.Name, msg)
		}
		if listed := strings.Split(msg[open+len("(valid: "):len(msg)-1], ", "); !slices.Equal(listed, tc.want) {
			t.Errorf("%s: unknown-name error lists %v, want %v", tc.sub.Name, listed, tc.want)
		}
	}
}

// TestBenchEngineFromRegistry drives `mcio bench -engine fast` against
// the engines each experiment declares: an experiment without the fast
// engine fails before it runs, naming the engines it supports; fig6 and
// faults, which declare both engines, run.
func TestBenchEngineFromRegistry(t *testing.T) {
	for _, e := range bench.BenchCmd.Entries() {
		if len(e.Engines) == 0 {
			t.Errorf("%s has a ledger but declares no engine", e.Name)
		}
		if slices.Contains(e.Engines, bench.EngineFast) {
			continue
		}
		var out bytes.Buffer
		err := runBench([]string{e.Name, "-engine", bench.EngineFast}, &out)
		if err == nil {
			t.Fatalf("%s: -engine fast accepted", e.Name)
		}
		if want := "supported: " + strings.Join(e.Engines, ", "); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: rejection %q does not name %q", e.Name, err, want)
		}
	}
	for _, name := range []string{"trajectory", "chaos", "chaos-gray"} {
		e, err := bench.BenchCmd.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(e.Engines, bench.EngineFast) {
			t.Errorf("%s declares the fast engine %v, but nothing it runs prices on it", name, e.Engines)
		}
	}
	for _, name := range []string{"fig6", "faults"} {
		var out bytes.Buffer
		if err := runBench([]string{name, "-engine", bench.EngineFast, "-scale", strconv.Itoa(testScale)}, &out); err != nil {
			t.Fatalf("%s -engine fast: %v", name, err)
		}
	}
}

func TestRunBenchAndDiffCleanExit(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	for _, p := range []string{oldPath, newPath} {
		var out bytes.Buffer
		err := runBench([]string{"fig7", "-scale", strconv.Itoa(testScale), "-seed", "1", "-out", p}, &out)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "wrote ledger") {
			t.Fatalf("bench output missing confirmation: %s", out.String())
		}
	}
	var out bytes.Buffer
	code, err := runDiff([]string{oldPath, newPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("identical ledgers exit %d, want 0:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "no regressions") {
		t.Errorf("diff output missing verdict:\n%s", out.String())
	}
}

func TestRunDiffFlagsInjectedRegression(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	rec, err := bench.Ledger("fig7", testScale, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.SaveRunRecord(oldPath, rec); err != nil {
		t.Fatal(err)
	}
	// Inject a >5% bandwidth drop into the first entry.
	rec.Entries[0].BandwidthMBps *= 0.90
	if err := obs.SaveRunRecord(newPath, rec); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := runDiff([]string{oldPath, newPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("regressed ledger exit %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("diff output missing REGRESSION marker:\n%s", out.String())
	}
	// The same drop passes under a 15% tolerance.
	out.Reset()
	code, err = runDiff([]string{"-tol", "0.15", oldPath, newPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("10%% drop under 15%% tolerance exit %d, want 0:\n%s", code, out.String())
	}
}

func TestRunDiffErrors(t *testing.T) {
	var out bytes.Buffer
	if code, err := runDiff([]string{"only-one.json"}, &out); code != 2 || err == nil {
		t.Fatalf("one-arg diff: code %d err %v, want 2 and error", code, err)
	}
	if code, err := runDiff([]string{"nope-a.json", "nope-b.json"}, &out); code != 2 || err == nil {
		t.Fatalf("missing-file diff: code %d err %v, want 2 and error", code, err)
	}
}

// driftArchive writes a synthetic 10-record history in which every
// entry's bandwidth decays 1% per run — each adjacent step inside the
// 5% pairwise tolerance, the accumulated fall far beyond it.
func driftArchive(t *testing.T, dir string) []string {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var paths []string
	bw := 1000.0
	for i := 0; i < 10; i++ {
		rec := &obs.RunRecord{
			Name:      "fig6",
			UnixNanos: int64(i+1) * 1_000_000_000,
			Entries: []obs.RunEntry{
				{Name: "memory-conscious/write/mem=16", BandwidthMBps: bw, WallSeconds: 1e6 / bw},
				{Name: "control/steady", BandwidthMBps: 500, WallSeconds: 2},
			},
		}
		p := filepath.Join(dir, fmt.Sprintf("%05d-test-fig6.json", i+1))
		if err := obs.SaveRunRecord(p, rec); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
		bw *= 0.99
	}
	return paths
}

// TestTrendCatchesDriftPairwiseDiffMisses is the tentpole acceptance
// demo at the CLI level: on a 10-record series with an injected
// 1%-per-run bandwidth drift, `mcio diff` between every adjacent pair
// exits zero at the default tolerance, while `mcio trend` over the same
// directory exits non-zero and names the drifting entries.
func TestTrendCatchesDriftPairwiseDiffMisses(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "history")
	paths := driftArchive(t, dir)

	for i := 1; i < len(paths); i++ {
		var out bytes.Buffer
		code, err := runDiff([]string{paths[i-1], paths[i]}, &out)
		if err != nil {
			t.Fatal(err)
		}
		if code != 0 {
			t.Fatalf("adjacent diff %d exited %d; the 1%% step must pass the 5%% pairwise gate:\n%s",
				i, code, out.String())
		}
	}

	var out bytes.Buffer
	code, err := runTrend([]string{dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("trend over drifting history exited %d, want 1:\n%s", code, out.String())
	}
	for _, must := range []string{"DRIFT", "memory-conscious/write/mem=16"} {
		if !strings.Contains(out.String(), must) {
			t.Errorf("trend output does not name the drift (%q missing):\n%s", must, out.String())
		}
	}
	if strings.Contains(out.String(), "control/steady      ") && strings.Contains(out.String(), "DRIFT: control") {
		t.Errorf("steady control entry flagged:\n%s", out.String())
	}

	// The clean prefix of the same history (first 4 records, 3% total
	// drift) stays under tolerance: exit 0.
	out.Reset()
	code, err = runTrend(paths[:4], &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("trend over the sub-tolerance prefix exited %d, want 0:\n%s", code, out.String())
	}
}

// TestRunDiffDirectoryNewestVsOldest: diff over a directory compares
// the oldest record with the newest by timestamp, not by file name.
func TestRunDiffDirectoryNewestVsOldest(t *testing.T) {
	dir := t.TempDir()
	// File names deliberately out of time order.
	mk := func(file string, nanos int64, bw float64) {
		rec := &obs.RunRecord{Name: "fig6", UnixNanos: nanos,
			Entries: []obs.RunEntry{{Name: "e", BandwidthMBps: bw}}}
		if err := obs.SaveRunRecord(filepath.Join(dir, file), rec); err != nil {
			t.Fatal(err)
		}
	}
	mk("b-newest.json", 300, 2000) // newest: bandwidth doubled — an improvement
	mk("a-middle.json", 200, 500)  // a middle dip that must not be compared
	mk("c-oldest.json", 100, 1000)
	var out bytes.Buffer
	code, err := runDiff([]string{dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("oldest->newest is an improvement, exit %d want 0:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "c-oldest.json -> ") || !strings.Contains(out.String(), "b-newest.json") {
		t.Errorf("diff did not pick oldest vs newest by timestamp:\n%s", out.String())
	}
}

func TestRunBenchRefusesOverwriteWithoutForce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, []byte(`{"version":1,"name":"old","entries":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := runBench([]string{"fig7", "-scale", strconv.Itoa(testScale), "-out", path}, &out)
	if err == nil || !strings.Contains(err.Error(), "-force") {
		t.Fatalf("bench overwrote an existing ledger without -force (err=%v)", err)
	}
	if b, _ := os.ReadFile(path); !strings.Contains(string(b), `"old"`) {
		t.Fatal("existing ledger was clobbered by the refused run")
	}
	out.Reset()
	if err := runBench([]string{"fig7", "-scale", strconv.Itoa(testScale), "-out", path, "-force"}, &out); err != nil {
		t.Fatal(err)
	}
	rec, err := obs.LoadRunRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name != "fig7" || rec.Version != obs.RunRecordVersion || rec.UnixNanos == 0 || rec.Host == nil {
		t.Fatalf("forced ledger missing v2 provenance: %+v", rec)
	}
}

// TestBenchArchiveChaosFlowsThroughTrendAndReport covers the archive
// satellite and the chaos acceptance criterion end to end: two chaos
// bench runs archived under sequenced names load back, pass the trend
// gate (identical seeds — steady metrics), and render to a
// byte-identical report across reruns.
func TestBenchArchiveChaosFlowsThroughTrendAndReport(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "history")
	var out bytes.Buffer
	for i := 0; i < 2; i++ {
		out.Reset()
		if err := runBench([]string{"chaos", "-seed", "1", "-archive", dir}, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "archived ledger") {
			t.Fatalf("bench -archive output missing confirmation: %s", out.String())
		}
	}
	entries, err := filepath.Glob(filepath.Join(dir, "0000*-*-chaos.json"))
	if err != nil || len(entries) != 2 {
		t.Fatalf("archive names wrong: %v, %v", entries, err)
	}

	out.Reset()
	code, err := runTrend([]string{dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("identical chaos records flagged by trend:\n%s", out.String())
	}
	for _, must := range []string{"chaos/detection", "chaos/repair", "chaos/degradation", "detected"} {
		if !strings.Contains(out.String(), must) {
			t.Errorf("trend table missing chaos series %q:\n%s", must, out.String())
		}
	}

	render := func(name string) []byte {
		p := filepath.Join(t.TempDir(), name)
		var rout bytes.Buffer
		if err := runReport([]string{"-out", p, dir}, &rout); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := render("a.html")
	if !bytes.Equal(first, render("b.html")) {
		t.Fatal("report bytes differ across reruns on the same history")
	}
	if !bytes.Contains(first, []byte("chaos/detection")) || !bytes.Contains(first, []byte("<svg")) {
		t.Error("report missing chaos sparklines")
	}
}

// TestObserveFlameSumsToWall is the acceptance check: the collapsed
// stacks exported for a figure run sum (within rounding) to the run's
// simulated wall time per process.
func TestObserveFlameSumsToWall(t *testing.T) {
	res, err := bench.Observe("fig6", testScale, 42, 16, collio.Write)
	if err != nil {
		t.Fatal(err)
	}
	a := analyze.Analyze(res.Obs.Trace)
	flamePath := filepath.Join(t.TempDir(), "fig6.folded")
	f, err := os.Create(flamePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := analyze.WriteFlame(f, a); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(flamePath)
	if err != nil {
		t.Fatal(err)
	}
	totals := map[string]int64{} // process frame -> µs
	lineCount := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed line %q", line)
		}
		frames := strings.Split(line[:sp], ";")
		us, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		totals[frames[0]] += us
		lineCount[frames[0]]++
	}
	if len(totals) == 0 {
		t.Fatal("flame file empty")
	}
	for _, p := range a.Processes {
		name := strings.ReplaceAll(p.Name, " ", "_")
		got := totals[name]
		want := p.Wall * 1e6
		if math.Abs(float64(got)-want) > float64(lineCount[name])+1 {
			t.Errorf("process %s: flame total %d µs, wall %.3f µs — off beyond rounding", p.Name, got, want)
		}
	}
}

// TestExpJSONTakesOneFigure checks that -json is refused unless -exp
// selects exactly one figure: each figure saves its own sweep to the
// path, so a wider selection would leave only whichever finished last.
// The refusal names every figure and runs nothing.
func TestExpJSONTakesOneFigure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	for _, exp := range []string{"all", "table1"} {
		var out bytes.Buffer
		err := runExp([]string{"-exp", exp, "-scale", strconv.Itoa(testScale), "-json", path}, &out)
		if err == nil {
			t.Fatalf("-exp %s -json: accepted", exp)
		}
		for _, fig := range []string{"fig6", "fig7", "fig8"} {
			if !strings.Contains(err.Error(), fig) {
				t.Errorf("-exp %s -json: error %q does not name %s", exp, err, fig)
			}
		}
		if out.Len() != 0 {
			t.Errorf("-exp %s -json: ran before refusing:\n%s", exp, out.String())
		}
		if _, err := os.Stat(path); err == nil {
			t.Fatalf("-exp %s -json: wrote %s", exp, path)
		}
	}

	var out bytes.Buffer
	if err := runExp([]string{"-exp", "fig7", "-scale", strconv.Itoa(testScale), "-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	var s struct {
		Points []json.RawMessage `json:"points"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &s); err != nil || len(s.Points) == 0 {
		t.Fatalf("-exp fig7 -json: saved %d points (err %v)", len(s.Points), err)
	}
}
