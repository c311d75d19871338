package collio

import (
	"fmt"

	"mcio/internal/integrity"
	"mcio/internal/pfs"
	"mcio/internal/sim"
)

// ExecIndependent really performs the requests as independent
// (non-collective) I/O — the degradation ladder's last rung, used when no
// aggregation plan can be placed. Each rank issues its own canonical
// extents straight against the file, serially in ascending rank order so
// overlapping writes resolve exactly as Exec's aggregators would (higher
// ranks overwrite lower ones). chk, when enabled, read-verifies each
// rank's write-back just like the collective path, so torn writes are
// detected (and repaired) even with no aggregator in the loop; there is
// no shuffle, so there are no messages to checksum.
func ExecIndependent(ctx *Context, data []RankData, file *pfs.File, op Op, chk *integrity.Checker) error {
	if err := checkRankData(ctx, data, "ExecIndependent"); err != nil {
		return err
	}
	for r := range data {
		exts := data[r].Req.Extents
		var pos int64
		for _, e := range exts {
			if op == Write {
				if _, err := file.WriteAt(data[r].Buf[pos:pos+e.Length], e.Offset); err != nil {
					return fmt.Errorf("collio: independent write rank %d: %w", r, err)
				}
			} else {
				if _, err := file.ReadAt(data[r].Buf[pos:pos+e.Length], e.Offset); err != nil {
					return fmt.Errorf("collio: independent read rank %d: %w", r, err)
				}
			}
			pos += e.Length
		}
		if op == Write && chk.Enabled() {
			verifyWriteBack(file, exts, data[r].Buf, chk)
		}
	}
	return nil
}

// CostIndependent prices the same requests issued as independent
// (non-collective) I/O: every rank sends its own flattened extents
// straight to the storage targets, with no aggregation, no shuffle, and
// no request merging beyond what a single rank's own extents provide.
// This is the §2 motivation baseline: many small noncontiguous requests
// hitting the file system directly.
//
// Each rank's accesses are priced in one logical round — independent I/O
// has no collective buffer to cycle — so the bottleneck is the most
// loaded storage target plus each node's own traffic.
func CostIndependent(ctx *Context, reqs []RankRequest, op Op, opt sim.Options) (*CostResult, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	if _, err := CheckRequests(ctx.Topo.Size(), reqs); err != nil {
		return nil, err
	}
	st := sim.StorageParams{
		Targets:         ctx.FS.Targets,
		TargetBW:        ctx.FS.TargetBW,
		ReqOverhead:     ctx.FS.ReqOverhead,
		NoncontigFactor: ctx.FS.NoncontigFactor,
		ReadBWFactor:    ctx.FS.ReadBWFactor,
	}
	eng, err := sim.NewEngine(ctx.Machine, st, opt)
	if err != nil {
		return nil, err
	}
	var round sim.Round
	var userBytes int64
	for _, r := range reqs {
		if len(r.Extents) == 0 {
			continue
		}
		userBytes += r.Bytes()
		node := ctx.Topo.NodeOf(r.Rank)
		for _, acc := range ctx.FS.MapExtents(r.Extents) {
			round.IOOps = append(round.IOOps, sim.IOOp{
				Target:     acc.Target,
				Node:       node,
				Bytes:      acc.Bytes,
				Requests:   acc.Requests,
				Contiguous: acc.Contiguous,
				Write:      op == Write,
			})
		}
	}
	eng.RunRound(round)
	return &CostResult{
		Strategy:  "independent",
		Op:        op,
		UserBytes: userBytes,
		Seconds:   eng.Elapsed(),
		Bandwidth: eng.Bandwidth(userBytes),
		Totals:    eng.Totals(),
		MaxRounds: 1,
	}, nil
}
