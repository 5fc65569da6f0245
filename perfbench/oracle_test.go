package main

import (
	"math/rand"
	"slices"
	"testing"

	"wfreach/internal/api"
	"wfreach/internal/core"
	"wfreach/internal/graph"
	"wfreach/internal/skeleton"
	"wfreach/internal/store"
)

func tinyTrace(t *testing.T, grammar string, seed int64, size int) *Trace {
	t.Helper()
	ts := TraceSpec{Grammar: grammar, Seed: seed, Size: size}
	raw, err := generateFrames(ts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := parseTrace(ts, raw)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestOracleAgreesWithCore checks the BFS oracle against the labels
// core assigns, on every ordered pair of small traces of both grammars
// and on every lineage: both must say "reaches" and "does not reach"
// for exactly the same pairs.
func TestOracleAgreesWithCore(t *testing.T) {
	for _, c := range []struct {
		grammar string
		size    int
	}{{"BioAID", 300}, {"Agent", 300}} {
		tr := tinyTrace(t, c.grammar, 7, c.size)
		n := tr.Len()
		o := NewOracle(tr, n, rand.New(rand.NewSource(1))) // every vertex sampled
		g, err := grammarOf(c.grammar)
		if err != nil {
			t.Fatal(err)
		}
		lab := core.NewExecutionLabeler(g, skeleton.TCL, core.RModeDesignated)
		st := store.New(g, skeleton.TCL)
		for _, ev := range tr.Events {
			rec, err := ev.Record()
			if err != nil {
				t.Fatal(err)
			}
			l, err := lab.Insert(rec.Ref)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(rec.Ref.V, l); err != nil {
				t.Fatal(err)
			}
		}
		var yes, no int
		for i := range n {
			for j := range n {
				got, err := st.Reach(graph.VertexID(tr.Events[i].V), graph.VertexID(tr.Events[j].V))
				if err != nil {
					t.Fatal(err)
				}
				if want := o.Reaches(int32(i), int32(j)); got != want {
					t.Fatalf("%s: %d ;* %d: labels say %v, BFS says %v", c.grammar, tr.Events[i].V, tr.Events[j].V, got, want)
				}
				if got {
					yes++
				} else {
					no++
				}
			}
		}
		if yes <= n || no == 0 {
			t.Fatalf("%s: degenerate trace: %d reachable, %d unreachable pairs", c.grammar, yes, no)
		}
		for i := range n {
			got, err := st.Lineage(graph.VertexID(tr.Events[i].V))
			if err != nil {
				t.Fatal(err)
			}
			if want := o.Ancestors(int32(i)); !slices.Equal(toInt32(got), want) {
				t.Fatalf("%s: lineage of %d: labels give %v, BFS gives %v", c.grammar, tr.Events[i].V, got, want)
			}
		}
	}
}

// TestOraclePairsStayAcked checks that drawn pairs only name acked
// vertices, each with a sampled end, and that Check flags a flipped
// answer.
func TestOraclePairsStayAcked(t *testing.T) {
	tr := tinyTrace(t, "BioAID", 3, 500)
	o := NewOracle(tr, 16, rand.New(rand.NewSource(2)))
	rng := rand.New(rand.NewSource(3))
	acked := int(o.Samples[len(o.Samples)/2]) + 1
	pairs, idx := o.Pairs(rng, 64, acked)
	if len(pairs) != 64 {
		t.Fatalf("%d pairs", len(pairs))
	}
	answers := make([]api.ReachAnswer, len(pairs))
	for k, ij := range idx {
		if ij[0] >= int32(acked) || ij[1] >= int32(acked) {
			t.Fatalf("pair %v reaches past the acked prefix %d", ij, acked)
		}
		answers[k] = api.ReachAnswer{From: pairs[k].From, To: pairs[k].To, Reachable: o.Reaches(ij[0], ij[1])}
	}
	if w := o.Check(idx, answers); w != 0 {
		t.Fatalf("%d wrong on the oracle's own answers", w)
	}
	answers[0].Reachable = !answers[0].Reachable
	if w := o.Check(idx, answers); w != 1 {
		t.Fatalf("a flipped answer counted %d times", w)
	}
	if p, _ := o.Pairs(rng, 8, int(o.Samples[0])); p != nil {
		t.Fatal("pairs drawn before any sample was acked")
	}
}
