package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer boundary.
type span struct {
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Alloc  uint64 `json:"alloc_bytes"`
}

// tracer keeps spans in memory until the run ends. Allocation per span is
// a runtime.ReadMemStats delta, which is exact only because operations run
// one at a time.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name, cell string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.spans = append(t.spans, span{
		Name: name, Cell: cell, Parent: parent,
		Start: time.Since(t.epoch).Nanoseconds(), Alloc: ms.TotalAlloc,
	})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int) {
	s := &t.spans[i]
	s.End = time.Since(t.epoch).Nanoseconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.Alloc = ms.TotalAlloc - s.Alloc
	t.open = t.open[:len(t.open)-1]
}

// layerTotals sums self time (seconds) and self allocation (bytes) per
// span name over the spans below root: a span's self share is its own
// minus what its children cover. The root's own self share is returned
// under its name too — the harness glue between layer calls.
func (t *tracer) layerTotals(root int) (secs map[string]float64, alloc map[string]float64) {
	secs, alloc = map[string]float64{}, map[string]float64{}
	inTree := map[int]bool{root: true}
	childNs := map[int]int64{}
	childAlloc := map[int]uint64{}
	for i := root + 1; i < len(t.spans); i++ {
		s := t.spans[i]
		if !inTree[s.Parent] {
			continue
		}
		inTree[i] = true
		childNs[s.Parent] += s.End - s.Start
		childAlloc[s.Parent] += s.Alloc
	}
	for i := range inTree {
		s := t.spans[i]
		secs[s.Name] += float64(s.End-s.Start-childNs[i]) / 1e9
		alloc[s.Name] += float64(s.Alloc - min(childAlloc[i], s.Alloc))
	}
	return secs, alloc
}

// write dumps every span as Chrome trace-event JSON (open it in Perfetto
// or chrome://tracing).
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"cell": s.Cell, "parent": s.Parent, "alloc_bytes": s.Alloc},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
