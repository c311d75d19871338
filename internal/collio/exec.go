package collio

import (
	"fmt"
	"sort"
	"sync"

	"mcio/internal/mpi"
	"mcio/internal/pfs"
)

// stagePool recycles the gather/scatter staging buffers of Exec. Ranks
// run as goroutines and a collective write churns one chunk per
// (domain, contributor) plus one domain buffer per aggregator; pooling
// them keeps the shuffle hot path allocation-free after warm-up. A chunk
// handed to mpi.Proc.Send transfers ownership with the message — the
// receiver releases it after scattering.
var stagePool sync.Pool

// getStage returns a length-n buffer with unspecified contents — every
// use either fully overwrites it (gather output) or zeroes it first
// (domain assembly).
func getStage(n int64) []byte {
	if v := stagePool.Get(); v != nil {
		b := *(v.(*[]byte))
		if int64(cap(b)) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// putStage recycles a buffer obtained from getStage (or received in a
// message whose sender staged it there).
func putStage(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	stagePool.Put(&b)
}

// RankData pairs one rank's request with its in-memory buffer. The buffer
// is the concatenation of the request's normalized extents in file order
// (the "data space" of the request): buffer byte 0 is the first byte of
// the lowest extent, and so on. Its length must equal the request's total
// bytes.
type RankData struct {
	Req RankRequest
	Buf []byte
}

// Exec really performs the collective operation described by plan: ranks
// run as goroutines, shuffle their contributions to the plan's
// aggregators, and the aggregators read or write the striped file. On
// write, each aggregator assembles its whole file domain in memory before
// issuing the writes; tests run at sizes where that is the simplest
// faithful rendering of the data path (the cost executor models the
// buffer-cycling rounds).
//
// For overlapping write requests the lowest-ranked writer's bytes may be
// overwritten by higher ranks, matching the unspecified outcome MPI gives
// concurrent overlapping collective writes.
func Exec(ctx *Context, plan *Plan, data []RankData, file *pfs.File, op Op) error {
	if err := checkRankData(ctx, data, "Exec"); err != nil {
		return err
	}
	scheds := buildScheds(plan, data)

	world := mpi.NewWorld(ctx.Topo)
	world.SetObserver(ctx.Obs)
	return world.Run(func(p *mpi.Proc) {
		me := p.Rank()
		for i, d := range plan.Domains {
			sched := &scheds[i]
			myIdx := -1
			for j, r := range sched.contributors {
				if r == me {
					myIdx = j
					break
				}
			}
			if op == Write {
				// Contributors ship their overlap bytes to the aggregator,
				// which releases the chunk once scattered.
				if myIdx >= 0 && me != d.Aggregator {
					p.Send(d.Aggregator, i, gather(data[me].Req.Extents, data[me].Buf, sched.overlap[myIdx]))
				}
				if me != d.Aggregator {
					continue
				}
				// Zeroed: domain bytes no contributor covers must land on
				// disk as zeros, exactly as a fresh allocation would.
				domBuf := getStage(d.Bytes)
				clear(domBuf)
				for j, r := range sched.contributors {
					var chunk []byte
					if r == me {
						chunk = gather(data[me].Req.Extents, data[me].Buf, sched.overlap[j])
					} else {
						chunk = p.Recv(r, i)
					}
					scatter(d.Extents, domBuf, sched.overlap[j], chunk)
					putStage(chunk)
				}
				var pos int64
				for _, e := range d.Extents {
					if _, err := file.WriteAt(domBuf[pos:pos+e.Length], e.Offset); err != nil {
						panic(err)
					}
					pos += e.Length
				}
				putStage(domBuf)
				continue
			}
			// Read: the aggregator loads the domain and distributes. The
			// extents sum to d.Bytes, so the reads fill the whole buffer —
			// no zeroing needed.
			if me == d.Aggregator {
				domBuf := getStage(d.Bytes)
				var pos int64
				for _, e := range d.Extents {
					if _, err := file.ReadAt(domBuf[pos:pos+e.Length], e.Offset); err != nil {
						panic(err)
					}
					pos += e.Length
				}
				for j, r := range sched.contributors {
					chunk := gather(d.Extents, domBuf, sched.overlap[j])
					if r == me {
						scatter(data[me].Req.Extents, data[me].Buf, sched.overlap[j], chunk)
						putStage(chunk)
					} else {
						p.Send(r, i, chunk)
					}
				}
				putStage(domBuf)
			}
			if myIdx >= 0 && me != d.Aggregator {
				chunk := p.Recv(d.Aggregator, i)
				scatter(data[me].Req.Extents, data[me].Buf, sched.overlap[myIdx], chunk)
				putStage(chunk)
			}
		}
	})
}

// domSched lists, for one domain, each contributing rank and the extents
// of its request that fall inside the domain.
type domSched struct {
	contributors []int          // ranks with data in the domain, ascending
	overlap      [][]pfs.Extent // indexed like contributors
}

// checkRankData checks the rank buffers of a data-moving call: one per
// rank in rank order, each request canonical, each buffer exactly the
// request's bytes.
func checkRankData(ctx *Context, data []RankData, call string) error {
	if err := ctx.Validate(); err != nil {
		return err
	}
	if len(data) != ctx.Topo.Size() {
		return fmt.Errorf("collio: %s got %d rank buffers for %d ranks", call, len(data), ctx.Topo.Size())
	}
	for r, d := range data {
		if d.Req.Rank != r {
			return fmt.Errorf("collio: rank buffer %d labeled rank %d", r, d.Req.Rank)
		}
		if err := checkExtents(r, d.Req.Extents); err != nil {
			return err
		}
		if want := d.Req.Bytes(); int64(len(d.Buf)) != want {
			return fmt.Errorf("collio: rank %d buffer is %d bytes, request needs %d", r, len(d.Buf), want)
		}
	}
	return nil
}

// buildScheds precomputes, per domain, each contributing rank's overlap —
// every rank derives the identical schedule, as real two-phase code does
// from the allgathered offset lists.
func buildScheds(plan *Plan, data []RankData) []domSched {
	scheds := make([]domSched, len(plan.Domains))
	for i, d := range plan.Domains {
		ranks := append([]int(nil), plan.GroupRanks[d.Group]...)
		sort.Ints(ranks)
		for _, r := range ranks {
			ov := pfs.Intersect(data[r].Req.Extents, d.Extents)
			if len(ov) > 0 {
				scheds[i].contributors = append(scheds[i].contributors, r)
				scheds[i].overlap = append(scheds[i].overlap, ov)
			}
		}
	}
	return scheds
}

// dataPos returns the data-space position of file offset off within the
// normalized extent list exts. off must lie inside one of the extents.
func dataPos(exts []pfs.Extent, off int64) int64 {
	var pos int64
	for _, e := range exts {
		if off >= e.Offset && off < e.End() {
			return pos + (off - e.Offset)
		}
		pos += e.Length
	}
	panic(fmt.Sprintf("collio: offset %d outside extents %v", off, exts))
}

// gather copies the bytes of the want extents (each contained in a single
// extent of exts) out of a buffer laid out per exts, concatenated in file
// order. The result comes from stagePool; the consumer returns it with
// putStage once scattered.
func gather(exts []pfs.Extent, buf []byte, want []pfs.Extent) []byte {
	out := getStage(pfs.TotalBytes(want))[:0]
	for _, w := range want {
		pos := dataPos(exts, w.Offset)
		out = append(out, buf[pos:pos+w.Length]...)
	}
	return out
}

// scatter is the inverse of gather: it places data (the concatenation of
// the want extents in file order) into a buffer laid out per exts.
func scatter(exts []pfs.Extent, buf []byte, want []pfs.Extent, data []byte) {
	var read int64
	for _, w := range want {
		pos := dataPos(exts, w.Offset)
		copy(buf[pos:pos+w.Length], data[read:read+w.Length])
		read += w.Length
	}
	if read != int64(len(data)) {
		panic(fmt.Sprintf("collio: scatter consumed %d of %d bytes", read, len(data)))
	}
}
