package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: Summarize must sort
	}
	return xs
}

// TestSummarizeTailRule pins the percentile rule: the tail is the
// highest candidate percentile with at least ten samples above it.
func TestSummarizeTailRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		tailP float64
		tail  float64
	}{
		{10000, 99.9, 9990}, // 10 samples above the 9990th
		{1000, 99, 990},     // exactly 10 above
		{999, 98, 980},      // p99 would leave only 9 above
		{259, 95, 247},
		{100, 90, 90},
		{40, 75, 30},
		{21, 50, 11}, // p75 would leave 5 above; p50 leaves 10
		{12, 50, 6},  // nothing has 10 above: the median stands in
		{1, 50, 1},
	} {
		d := Summarize(seq(c.n))
		if d.N != c.n || d.TailP != c.tailP || d.Tail != c.tail {
			t.Errorf("n=%d: got %v, want p%g=%g", c.n, d, c.tailP, c.tail)
		}
		if above := 0; true {
			for _, x := range seq(c.n) {
				if x > d.Tail {
					above++
				}
			}
			if c.tailP != 50 && above < minBeyond {
				t.Errorf("n=%d: only %d samples above the p%g tail", c.n, above, d.TailP)
			}
		}
		if d.Tail < d.P50 {
			t.Errorf("n=%d: tail %g below median %g", c.n, d.Tail, d.P50)
		}
	}
	if d := Summarize(nil); d.N != 0 {
		t.Errorf("empty sample: %v", d)
	}
}

// TestSummarizeRunBlocks checks that the run tail is the median of the
// per-block tails, so a stall confined to one block does not set it.
func TestSummarizeRunBlocks(t *testing.T) {
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = float64(i%1000) / 1000 // each block: 0 .. 0.999
	}
	for i := 1000; i < 1100; i++ {
		xs[i] = 100 // a stall inside the second block
	}
	d := SummarizeRun(xs)
	if d.Blocks != 5 || d.TailP != 99 {
		t.Fatalf("got %v, want p99 over 5 blocks", d)
	}
	if d.Tail != 0.989 {
		t.Errorf("tail %g, want the clean blocks' p99 0.989", d.Tail)
	}
	if whole := Summarize(xs); whole.Tail != 100 {
		t.Errorf("the whole-sample p99 should see the stall, got %g", whole.Tail)
	}
	if d := SummarizeRun(xs[:2*blockMin-1]); d.Blocks != 0 || d.Tail != Summarize(xs[:2*blockMin-1]).Tail {
		t.Errorf("a sample too small for two blocks is summarised whole: %v", d)
	}
	if n := len(blocks(make([]float64, 12345), blockMin)); n != maxBlocks {
		t.Errorf("%d blocks, want %d", n, maxBlocks)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %g", m)
	}
}
