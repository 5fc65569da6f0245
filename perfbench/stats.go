package main

import (
	"fmt"
	"math"
	"slices"
)

// tailCandidates are the percentiles a tail figure may report, highest
// first.
var tailCandidates = []float64{99.9, 99, 98, 95, 90, 80, 75, 50}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// Dist summarises a latency sample: its median, and the highest
// percentile that still has at least ten samples above it (the tail),
// with the sample count. With too few samples for any candidate the
// tail falls back to the median and says so (TailP 50).
type Dist struct {
	N      int
	P50    float64
	TailP  float64
	Tail   float64
	Blocks int // set by SummarizeRun when the tail is a median over blocks
}

// Summarize computes a Dist. Percentiles, the median included, use the
// nearest-rank rule.
func Summarize(xs []float64) Dist {
	if len(xs) == 0 {
		return Dist{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	d := Dist{N: len(s), P50: s[rank(50, len(s))], TailP: 50}
	d.Tail = d.P50
	for _, p := range tailCandidates {
		idx := rank(p, len(s))
		if idx >= 0 && len(s)-1-idx >= minBeyond {
			d.TailP, d.Tail = p, s[idx]
			break
		}
	}
	return d
}

// String renders the summary with the percentile actually used.
func (d Dist) String() string {
	s := fmt.Sprintf("p50=%.4g p%g=%.4g (n=%d", d.P50, d.TailP, d.Tail, d.N)
	if d.Blocks > 1 {
		s += fmt.Sprintf("; tail is the median over %d blocks", d.Blocks)
	}
	return s + ")"
}

// A run's time-ordered sample is cut into up to maxBlocks consecutive
// blocks; a tail is taken over blocks of at least blockMin samples.
const (
	blockMin  = 200
	maxBlocks = 5
)

// blocks cuts a time-ordered sample into up to maxBlocks consecutive
// blocks of nearly equal size and at least least samples each; a
// sample too small for two blocks is one block.
func blocks(xs []float64, least int) [][]float64 {
	k := max(1, min(maxBlocks, len(xs)/least))
	out := make([][]float64, k)
	for b := range k {
		out[b] = xs[b*len(xs)/k : (b+1)*len(xs)/k]
	}
	return out
}

// SummarizeRun is Summarize for a run's time-ordered sample, with the
// tail taken per block: each block's highest percentile with ten
// samples above it, and the median of those over the blocks. A stall
// that hits one stretch of the run (a garbage collection, one large
// snapshot) then moves one block's tail, not the run's figure, which
// keeps the figure comparable from run to run. The median is over all
// samples.
func SummarizeRun(xs []float64) Dist {
	d := Summarize(xs)
	bs := blocks(xs, blockMin)
	if len(bs) < 2 {
		return d
	}
	// Blocks differ in size by at most one sample; the smallest decides
	// which percentile every block supports.
	smallest := bs[0]
	for _, b := range bs {
		if len(b) < len(smallest) {
			smallest = b
		}
	}
	d.TailP = Summarize(smallest).TailP
	tails := make([]float64, len(bs))
	for i, b := range bs {
		s := slices.Clone(b)
		slices.Sort(s)
		tails[i] = s[rank(d.TailP, len(s))]
	}
	d.Tail, d.Blocks = median(tails), len(bs)
	return d
}

// rank is the nearest-rank index of percentile p in n sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps 99.9/100 × 10000 from rounding up past 9990.
	return int(math.Ceil(p*float64(n)/100-1e-9)) - 1
}

// median of an unsorted sample (the mean of the middle pair for even
// lengths).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
