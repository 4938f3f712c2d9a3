package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The host reference. This class of host — a few cores of a shared
// machine — runs memory-bound code at a speed that wanders by a third,
// in bad hours by half, over tens of seconds while arithmetic runs
// steadily (a random-read loop over 64 MB took 4.4–11.5 ms from one
// second to the next while a xorshift loop beside it held to ±5 %): a
// neighbour's traffic, or the vCPU a socket away from its memory. A
// database is memory-bound, so a run's numbers say as much about the
// minute it ran in as about the program. hostRef is a fixed memory-bound
// kernel that touches none of the program; slices of it (≈8 ms each)
// run untimed before every measured round and after the last, and
// before and after every timed set-up, and the
// time-based end-to-end metrics are reported host-adjusted: scaled by
// the hostFactor of the slices around them, so that they read as on the
// calibration host at its usual speed.
type hostRef struct {
	mem   []byte   // outside the Go heap, so the collector's pacing never sees it
	words []uint64 // mem, as words
	next  int      // where the next slice's sequential pass starts
	x     uint64
}

const (
	// The region is several times a last-level cache, and each slice's
	// sequential pass starts where the last one ended, so a slice reads
	// memory, not cache, also when slices run back to back.
	refBytes = 128 << 20
	// One slice: a sequential pass over refSeqWords words, then
	// refRandReads reads at random addresses all over the region.
	refSeqWords  = 5 << 19 // 20 MB
	refRandReads = 160_000
	// refNominalS is what a slice takes on the host the benchmark was
	// calibrated on (its median there). It only sets the scale of the
	// adjusted numbers.
	refNominalS = 0.0080
	// refShare is the share of a measured pass's wall time the reference
	// runs for (untimed, between rounds).
	refShare = 0.05
	// setupSlices is how many slices run before, and again after, every
	// timed set-up.
	setupSlices = 3
)

func newHostRef() (*hostRef, error) {
	mem, err := syscall.Mmap(-1, 0, refBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	h := &hostRef{mem: mem, x: 88172645463325252}
	h.words = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), refBytes/8)
	for i := range h.words {
		h.words[i] = mix64(uint64(i))
	}
	return h, nil
}

func (h *hostRef) close() { _ = syscall.Munmap(h.mem) }

// slice runs the kernel once and returns how long it took, in seconds.
func (h *hostRef) slice() float64 {
	t0 := time.Now()
	var s uint64
	if h.next+refSeqWords > len(h.words) {
		h.next = 0
	}
	for _, v := range h.words[h.next : h.next+refSeqWords] {
		s += v
	}
	h.next += refSeqWords
	x, n := h.x, uint64(len(h.words))
	for i := 0; i < refRandReads; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		s += h.words[(x>>20)%n]
	}
	h.x = x + s
	return time.Since(t0).Seconds()
}

// slices runs n slices and returns their times.
func (h *hostRef) slices(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = h.slice()
	}
	return out
}

// hostFactor is how much slower than nominal the host ran the
// reference over some slices: their median time ÷ nominal. A run's
// throughput is multiplied by its pass's factor, its latencies are
// divided by it, and each set-up's time by the set-up's own.
// The full factor, because that is what the runs say: over 30
// calibration runs per workload the runs' median round time moved with
// their median slice time to the power 0.96–1.02 on all four workloads.
// One factor for the run, not one per round: a single 8 ms slice is a
// noisy reading of a host that also jitters from second to second, and
// adjusting round by round needed the exponent halved to help at all.
func hostFactor(slices []float64) float64 { return median(slices) / refNominalS }

// refOpsPerSec is host.ref_ops_per_s for a slice time: words read per
// second.
func refOpsPerSec(sliceS float64) float64 { return (refSeqWords + refRandReads) / sliceS }
