package mcio

import (
	"bytes"
	"strings"
	"testing"
)

func TestNewSystemDefaults(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Ranks: 12, RanksPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Ranks() != 12 || sys.Nodes() != 3 {
		t.Fatalf("ranks/nodes = %d/%d", sys.Ranks(), sys.Nodes())
	}
	if sys.NodeOf(5) != 1 {
		t.Fatalf("NodeOf(5) = %d", sys.NodeOf(5))
	}
	if len(sys.AvailableMemory()) != 3 {
		t.Fatal("availability vector size")
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(SystemConfig{}); err == nil {
		t.Fatal("zero ranks accepted")
	}
	small := Testbed640()
	small.Nodes = 1
	if _, err := NewSystem(SystemConfig{Ranks: 12, RanksPerNode: 4, Machine: small}); err == nil {
		t.Fatal("undersized machine accepted")
	}
	// RanksPerNode defaults to 1.
	sys, err := NewSystem(SystemConfig{Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Nodes() != 3 {
		t.Fatalf("default placement nodes = %d", sys.Nodes())
	}
}

func TestCollectiveRoundTripBothStrategies(t *testing.T) {
	for _, strategy := range []Strategy{TwoPhase(), MemoryConscious()} {
		sys, err := NewSystem(SystemConfig{Ranks: 6, RanksPerNode: 2, Params: DefaultParams(256)})
		if err != nil {
			t.Fatal(err)
		}
		f, err := sys.Open("data", strategy)
		if err != nil {
			t.Fatal(err)
		}
		// Each rank owns 100 bytes, laid out by displacement.
		for r := 0; r < 6; r++ {
			if err := f.SetView(r, View{Disp: int64(r) * 100, Filetype: Contiguous{Bytes: 1}}); err != nil {
				t.Fatal(err)
			}
		}
		args := make([]CollArgs, 6)
		for r := range args {
			buf := make([]byte, 100)
			for i := range buf {
				buf[i] = byte(r + i)
			}
			args[r] = CollArgs{Buf: buf}
		}
		res, err := f.WriteAll(args)
		if err != nil {
			t.Fatalf("%s: %v", strategy.Name(), err)
		}
		if res.Bandwidth <= 0 || res.UserBytes != 600 {
			t.Fatalf("%s: result %+v", strategy.Name(), res)
		}
		read := make([]CollArgs, 6)
		for r := range read {
			read[r] = CollArgs{Buf: make([]byte, 100)}
		}
		if _, err := f.ReadAll(read); err != nil {
			t.Fatal(err)
		}
		for r := range read {
			if !bytes.Equal(read[r].Buf, args[r].Buf) {
				t.Fatalf("%s: rank %d mismatch", strategy.Name(), r)
			}
		}
	}
}

func TestApplyMemoryVariance(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Ranks: 24, RanksPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := sys.ApplyMemoryVariance(1<<30, 1<<29, 0, 7)
	if len(a) != 12 {
		t.Fatalf("availability size %d", len(a))
	}
	distinct := map[int64]bool{}
	for _, v := range a {
		distinct[v] = true
	}
	if len(distinct) < 6 {
		t.Fatal("variance produced too few distinct values")
	}
	b := sys.ApplyMemoryVariance(1<<30, 1<<29, 0, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the draw")
		}
	}
}

func TestSetAvailableMemory(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Ranks: 4, RanksPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetAvailableMemory([]int64{1}); err == nil {
		t.Fatal("short vector accepted")
	}
	if err := sys.SetAvailableMemory([]int64{100, 200}); err != nil {
		t.Fatal(err)
	}
	got := sys.AvailableMemory()
	if got[0] != 100 || got[1] != 200 {
		t.Fatalf("availability = %v", got)
	}
}

func TestPlanInspection(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Ranks: 6, RanksPerNode: 2, Params: DefaultParams(1 << 10)})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []RankRequest{
		{Rank: 0, Extents: []Extent{{Offset: 0, Length: 4096}}},
		{Rank: 3, Extents: []Extent{{Offset: 4096, Length: 4096}}},
	}
	plan, err := sys.Plan(MemoryConscious(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalBytes() != 8192 {
		t.Fatalf("plan bytes = %d", plan.TotalBytes())
	}
	if len(plan.Aggregators()) == 0 {
		t.Fatal("no aggregators")
	}
}

// System.Plan rejects a request whose extents are not canonical, with
// an error naming the rank, under every strategy.
func TestSystemPlanRejectsNonCanonicalRequests(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Ranks: 4, RanksPerNode: 2, Params: DefaultParams(256)})
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]Extent{
		"unsorted":    {{Offset: 900, Length: 50}, {Offset: 800, Length: 50}},
		"overlapping": {{Offset: 800, Length: 100}, {Offset: 850, Length: 100}},
	} {
		reqs := make([]RankRequest, 4)
		for r := range reqs {
			reqs[r] = RankRequest{Rank: r, Extents: []Extent{{Offset: int64(r) * 200, Length: 100}}}
		}
		reqs[2].Extents = bad
		for _, s := range []Strategy{TwoPhase(), MemoryConscious(), LayoutAware()} {
			_, err := sys.Plan(s, reqs)
			if err == nil || !strings.Contains(err.Error(), "rank 2 ") {
				t.Errorf("%s %s: err = %v, want one naming rank 2", s.Name(), name, err)
			}
		}
	}
}

func TestTable1Export(t *testing.T) {
	s := Table1()
	for _, want := range []string{"System Peak", "Total Concurrency", "4444"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
}

func TestWorkloadReexports(t *testing.T) {
	w := IOR{Ranks: 4, BlockSize: 64, TransferSize: 64, Segments: 2}
	reqs, err := w.Requests()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 4 {
		t.Fatal("IOR re-export broken")
	}
	c := CollPerf{ArrayDim: 8, ElemBytes: 4, Grid: [3]int{2, 2, 1}}
	if _, err := c.Requests(); err != nil {
		t.Fatal("CollPerf re-export broken")
	}
}

func TestMachinePresets(t *testing.T) {
	for _, cfg := range []MachineConfig{Testbed640(), Petascale2010(), Exascale2018()} {
		if err := cfg.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestAutoTune(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Ranks: 24, RanksPerNode: 4, Params: DefaultParams(256 << 10)})
	if err != nil {
		t.Fatal(err)
	}
	sys.ApplyMemoryVariance(256<<10, 1<<20, 32<<10, 3)
	w := IOR{Ranks: 24, BlockSize: 256 << 10, TransferSize: 256 << 10, Segments: 4}
	reqs, err := w.Requests()
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Params()
	res, err := sys.AutoTune(reqs, Write)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations == 0 || res.Best.Bandwidth <= 0 {
		t.Fatalf("degenerate tune result: %+v", res.Best)
	}
	after := sys.Params()
	if after != res.Best.Params {
		t.Fatal("AutoTune must install the best parameters")
	}
	if after.CollBufSize != before.CollBufSize {
		t.Fatal("AutoTune must keep the collective buffer size")
	}
}
