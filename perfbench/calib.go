package main

import "time"

// A shared host's CPU speed drifts: on a 2-vCPU Xeon an exa-clean pass
// took 19–25 s in one half hour and 26–27 s in the next, in user CPU
// time, with little steal. Host times are therefore reported at a
// nominal speed: each is multiplied by refNominal over the run's median
// time of a fixed ALU loop, sampled before the set-ups, between passes
// and after the last pass. The loop is the benchmark's own code, so a
// change to the program moves the measured times and never the scale. Of
// the kernels tried (ALU loop, pointer chase, memmove, allocation plus
// collection, sort-merge-bucket of extents) the ALU loop tracked the
// program best: over 66 back-to-back Figure 6 sweeps on that Xeon it cut
// the IQR/median of pass time from 0.080 to 0.056.
const refNominal = 0.032 // seconds: the loop's median on that Xeon

var refSink uint64

func referenceLoop() {
	x := uint64(1)
	for i := 0; i < 20_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	refSink += x
}

// sampleReference times the reference loop n times.
func sampleReference(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		t := time.Now()
		referenceLoop()
		xs[i] = since(t)
	}
	return xs
}

// hostScale converts this run's host seconds to seconds at the nominal
// speed.
func (res *result) hostScale() float64 { return refNominal / median(res.ref) }
