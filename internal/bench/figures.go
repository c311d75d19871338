package bench

import (
	"fmt"
	"io"
	"math"
	"strings"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/pfs"
	"mcio/internal/twophase"
	"mcio/internal/workload"
)

// paperSweepMB is the aggregator-memory axis of Figures 6-8: 2 MB to
// 128 MB per aggregator.
func paperSweepMB() []int { return []int{2, 4, 8, 16, 32, 64, 128} }

// DefaultScale keeps the full figure set interactive (seconds, not
// minutes) while preserving every comparison's shape; pass 1 for
// paper-exact byte counts.
const DefaultScale = 64

// Fig6Config is the platform of Figure 6: coll_perf, 120 processes on 10
// twelve-core nodes (the paper's testbed node shape), a 2048³ 4-byte
// array = 32 GB file on 1 MB-striped storage.
func Fig6Config(scale int64, seed uint64) Config {
	return Config{
		Name:         "fig6-collperf-120",
		Ranks:        120,
		RanksPerNode: 12,
		Targets:      16,
		Scale:        scale,
		Seed:         seed,
		SigmaMB:      50,
		MemMB:        paperSweepMB(),
		MsgIndMB:     32,
	}
}

// Fig6Workload scales the 2048³ array: the cube edge shrinks by the cube
// root of Scale so the file volume scales linearly.
func Fig6Workload(cfg Config) (Workload, string, error) {
	edge := int64(math.Round(2048 / math.Cbrt(float64(cfg.Scale))))
	if edge < 8 {
		edge = 8
	}
	grid, err := workload.DimsCreate(cfg.Ranks)
	if err != nil {
		return nil, "", err
	}
	c := workload.CollPerf{ArrayDim: edge, ElemBytes: 4, Grid: grid}
	name := fmt.Sprintf("coll_perf %d^3 x4B (%d MB file)", edge, c.TotalBytes()/MB)
	return c, name, nil
}

func fig6(scale int64, seed uint64) (Config, Workload, string, error) {
	cfg := Fig6Config(scale, seed)
	wl, name, err := Fig6Workload(cfg)
	return cfg, wl, name, err
}

// Fig6 regenerates Figure 6: coll_perf write and read bandwidth vs
// per-aggregator memory, two-phase vs memory-conscious, 120 processes.
func Fig6(scale int64, seed uint64) (*Series, error) {
	return runFigure(fig6, Args{Scale: scale, Seed: seed})
}

// Fig7Config is the platform of Figure 7: IOR, 120 processes, 32 MB of
// I/O data per process, interleaved (segmented) layout.
func Fig7Config(scale int64, seed uint64) Config {
	return Config{
		Name:         "fig7-ior-120",
		Ranks:        120,
		RanksPerNode: 12,
		Targets:      16,
		Scale:        scale,
		Seed:         seed,
		SigmaMB:      50,
		MemMB:        paperSweepMB(),
		MsgIndMB:     32,
	}
}

// Fig7Workload builds the interleaved IOR pattern: 8 segments of 4 MB
// blocks = 32 MB per process (scaled).
func Fig7Workload(cfg Config) (Workload, string) {
	block := cfg.scaled(4 * MB)
	w := workload.IOR{
		Ranks:        cfg.Ranks,
		BlockSize:    block,
		TransferSize: block,
		Segments:     8,
	}
	name := fmt.Sprintf("IOR interleaved %d ranks, %d MB/proc", cfg.Ranks, w.BytesPerRank()*cfg.Scale/MB)
	return w, name
}

func fig7(scale int64, seed uint64) (Config, Workload, string, error) {
	cfg := Fig7Config(scale, seed)
	wl, name := Fig7Workload(cfg)
	return cfg, wl, name, nil
}

// Fig7 regenerates Figure 7: IOR write and read bandwidth vs
// per-aggregator memory at 120 cores.
func Fig7(scale int64, seed uint64) (*Series, error) {
	return runFigure(fig7, Args{Scale: scale, Seed: seed})
}

// Fig8Config is the platform of Figure 8: IOR at 1080 processes (90
// twelve-core nodes), aggregation memory swept 128 MB down to 2 MB.
func Fig8Config(scale int64, seed uint64) Config {
	return Config{
		Name:         "fig8-ior-1080",
		Ranks:        1080,
		RanksPerNode: 12,
		Targets:      32,
		Scale:        scale,
		Seed:         seed,
		SigmaMB:      50,
		MemMB:        paperSweepMB(),
		MsgIndMB:     32,
	}
}

// Fig8Workload builds the 1080-rank interleaved IOR pattern.
func Fig8Workload(cfg Config) (Workload, string) {
	block := cfg.scaled(4 * MB)
	w := workload.IOR{
		Ranks:        cfg.Ranks,
		BlockSize:    block,
		TransferSize: block,
		Segments:     8,
	}
	name := fmt.Sprintf("IOR interleaved %d ranks, %d MB/proc", cfg.Ranks, w.BytesPerRank()*cfg.Scale/MB)
	return w, name
}

func fig8(scale int64, seed uint64) (Config, Workload, string, error) {
	cfg := Fig8Config(scale, seed)
	wl, name := Fig8Workload(cfg)
	return cfg, wl, name, nil
}

// Fig8 regenerates Figure 8: IOR write and read bandwidth vs
// per-aggregator memory at 1080 cores.
func Fig8(scale int64, seed uint64) (*Series, error) {
	return runFigure(fig8, Args{Scale: scale, Seed: seed})
}

// FigExaConfig is the extrapolation experiment the paper argues toward
// but could not run: the Figure 8 IOR sweep pushed to the Table 1
// exascale design point — one million ranks on ten thousand nodes — and
// priced on the analytical fast path, since the byte path would
// materialize a million messages per round. The memory axis keeps the
// scarce half of the paper sweep: at ~10 MB per core, 64 MB aggregator
// buffers are already a luxury.
func FigExaConfig(scale int64, seed uint64) Config {
	return Config{
		Name:         "fig-exa-ior-1m",
		Ranks:        1_000_000,
		RanksPerNode: 100,
		Targets:      1024,
		Scale:        scale,
		Seed:         seed,
		SigmaMB:      50,
		MemMB:        []int{8, 16, 32, 64},
		MsgIndMB:     32,
		Preset:       "exascale2018",
		Engine:       EngineFast,
	}
}

// FigExaWorkload builds the million-rank interleaved IOR pattern: two
// segments of 4 MB blocks = 8 MB per process (scaled), ~8 TB of file.
func FigExaWorkload(cfg Config) (Workload, string) {
	block := cfg.scaled(4 * MB)
	w := workload.IOR{
		Ranks:        cfg.Ranks,
		BlockSize:    block,
		TransferSize: block,
		Segments:     2,
	}
	name := fmt.Sprintf("IOR interleaved %d ranks, %d MB/proc", cfg.Ranks, w.BytesPerRank()*cfg.Scale/MB)
	return w, name
}

func figExa(scale int64, seed uint64) (Config, Workload, string, error) {
	cfg := FigExaConfig(scale, seed)
	wl, name := FigExaWorkload(cfg)
	return cfg, wl, name, nil
}

// FigExa runs the exascale sweep on the fast path.
func FigExa(scale int64, seed uint64) (*Series, error) {
	return runFigure(figExa, Args{Scale: scale, Seed: seed})
}

// fig2 reproduces the paper's Figure 2 as a trace: six processes, two
// aggregators, classic two-phase collective read.
func fig2(w io.Writer, _ Args) error {
	fmt.Fprintln(w, "Figure 2: two-phase collective I/O (6 processes, 2 aggregator nodes)")
	topo, err := mpi.BlockTopology(6, 3)
	if err != nil {
		return err
	}
	mc := machine.Testbed640()
	mc.Nodes = topo.Nodes()
	ctx := &collio.Context{
		Topo:    topo,
		Machine: mc,
		Avail:   []int64{mc.MemPerNode, mc.MemPerNode},
		FS:      pfs.DefaultConfig(4),
		Params:  collio.DefaultParams(256),
	}
	var reqs []collio.RankRequest
	for r := 0; r < 6; r++ {
		reqs = append(reqs, collio.RankRequest{
			Rank:    r,
			Extents: []pfs.Extent{{Offset: int64(r) * 512, Length: 512}},
		})
	}
	plan, err := twophase.New().Plan(ctx, reqs)
	if err != nil {
		return err
	}
	for i, d := range plan.Domains {
		fmt.Fprintf(w, "  file domain %d: bytes %d..%d -> aggregator rank %d on node %d\n",
			i, d.Extents[0].Offset, d.Extents[len(d.Extents)-1].End(), d.Aggregator, d.AggNode)
	}
	fmt.Fprintln(w, "  phase 1 (I/O): each aggregator reads its file domain in buffer-sized rounds")
	fmt.Fprintln(w, "  phase 2 (communication): aggregators scatter the data to the requesting processes")
	fmt.Fprintln(w)
	return nil
}

// fig4 reproduces the paper's Figure 4: aggregation-group division across
// nine processes on three compute nodes with a serial data distribution.
func fig4(w io.Writer, _ Args) error {
	fmt.Fprintln(w, "Figure 4: aggregation group division (9 processes, 3 nodes, serial distribution)")
	topo, err := mpi.BlockTopology(9, 3)
	if err != nil {
		return err
	}
	mc := machine.Testbed640()
	mc.Nodes = topo.Nodes()
	params := collio.DefaultParams(100)
	params.MsgGroup = 800 // the tentative boundary lands mid-node and is extended
	ctx := &collio.Context{
		Topo:    topo,
		Machine: mc,
		Avail:   []int64{mc.MemPerNode, mc.MemPerNode, mc.MemPerNode},
		FS:      pfs.DefaultConfig(4),
		Params:  params,
	}
	var reqs []collio.RankRequest
	for r := 0; r < 9; r++ {
		reqs = append(reqs, collio.RankRequest{
			Rank:    r,
			Extents: []pfs.Extent{{Offset: int64(r) * 300, Length: 300}},
		})
	}
	groups, err := core.DivideGroups(ctx, reqs)
	if err != nil {
		return err
	}
	for _, g := range groups {
		ranks := make([]string, len(g.Ranks))
		for i, r := range g.Ranks {
			ranks[i] = fmt.Sprintf("P%d", r)
		}
		fmt.Fprintf(w, "  group %d: file [%d..%d) members %s (node boundary respected)\n",
			g.Index, g.Region.Offset, g.Region.End(), strings.Join(ranks, " "))
	}
	fmt.Fprintln(w)
	return nil
}

// fig5 demonstrates the two partition-tree remerge cases of Figures 5a/5b.
func fig5(w io.Writer, _ Args) error {
	fmt.Fprintln(w, "Figure 5: file-domain remerge on the binary partition tree")
	show := func(t *core.PartitionTree) {
		for i, l := range t.Leaves() {
			fmt.Fprintf(w, "    leaf %d: [%d..%d) %d bytes\n",
				i, l.Extents[0].Offset, l.Extents[len(l.Extents)-1].End(), l.Bytes)
		}
	}
	// Case 5a: sibling is a leaf.
	t5a, err := core.BuildTree([]pfs.Extent{{Offset: 0, Length: 200}}, 100)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "  case 5a — before (sibling is a leaf):")
	show(t5a)
	if _, err := t5a.Remerge(t5a.Root.Left); err != nil {
		return err
	}
	fmt.Fprintln(w, "  after removing the left leaf, its sibling takes over directly:")
	show(t5a)

	// Case 5b: sibling is an internal vertex; DFS finds the adjacent leaf.
	t5b, err := core.BuildTree([]pfs.Extent{{Offset: 0, Length: 400}}, 100)
	if err != nil {
		return err
	}
	if _, err := t5b.Remerge(t5b.Root.Left.Left); err != nil {
		return err
	}
	fmt.Fprintln(w, "  case 5b — before (left leaf's sibling subtree was further split):")
	show(t5b)
	if _, err := t5b.Remerge(t5b.Root.Left); err != nil {
		return err
	}
	fmt.Fprintln(w, "  after removal, the DFS-adjacent leaf of the sibling subtree absorbs it:")
	show(t5b)
	fmt.Fprintln(w)
	return nil
}
