package core

import (
	"slices"
	"testing"

	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/parsetree"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

// candidatesByMap is the reference walk candidates must reproduce: the
// same bottom-up slot-parent chains, deduplicated with a fresh set.
func candidatesByMap(e *ExecutionLabeler, preds []graph.VertexID) []*parsetree.Node {
	var out []*parsetree.Node
	seen := make(map[*parsetree.Node]bool)
	for _, p := range preds {
		ref, ok := e.ctx[p]
		if !ok {
			continue
		}
		for x := ref.node; x != nil; x = x.SlotParent {
			if seen[x] {
				break
			}
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

func sameCandidates(t *testing.T, what string, got, want []*parsetree.Node) {
	t.Helper()
	seen := make(map[*parsetree.Node]bool)
	for _, x := range got {
		if seen[x] {
			t.Fatalf("%s: duplicate candidate", what)
		}
		seen[x] = true
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: candidate %d differs from the reference walk", what, i)
		}
	}
}

// TestCandidatesMatchMapWalk: on a hand-built tree whose slot-parent
// chains merge, candidates returns the reference order without
// duplicates, call after call, while reusing its buffer and epoch.
func TestCandidatesMatchMapWalk(t *testing.T) {
	e := NewExecutionLabeler(spec.MustCompile(wfspecs.RunningExample()), skeleton.TCL, RModeDesignated)
	root := parsetree.NewRoot(0, 1)
	child := func(parent *parsetree.Node) *parsetree.Node {
		x := root.AddInstance(0, 1, root.NextIndex())
		x.SlotParent = parent
		return x
	}
	a := child(root)
	b := child(a)
	c := child(a) // b's and c's chains merge at a
	d := child(c)
	f := child(root) // f's chain meets the others only at the root
	for v, x := range map[graph.VertexID]*parsetree.Node{1: b, 2: c, 3: d, 4: f, 5: root} {
		e.ctx[v] = memberRef{node: x}
	}
	cases := []struct {
		name  string
		preds []graph.VertexID
		want  []*parsetree.Node
	}{
		{"siblings merge at their parent", []graph.VertexID{1, 2}, []*parsetree.Node{b, a, root, c}},
		{"deeper chain first", []graph.VertexID{3, 1}, []*parsetree.Node{d, c, a, root, b}},
		{"repeated predecessor", []graph.VertexID{1, 1}, []*parsetree.Node{b, a, root}},
		{"merge at the root", []graph.VertexID{4, 3}, []*parsetree.Node{f, root, d, c, a}},
		{"unknown predecessor skipped", []graph.VertexID{9, 5}, []*parsetree.Node{root}},
		{"three chains", []graph.VertexID{2, 4, 1}, []*parsetree.Node{c, a, root, f, b}},
		{"no predecessors", nil, nil},
	}
	for pass := 0; pass < 2; pass++ {
		for _, tc := range cases {
			got := e.candidates(tc.preds)
			sameCandidates(t, tc.name, got, candidatesByMap(e, tc.preds))
			sameCandidates(t, tc.name, got, tc.want)
		}
	}
}

// TestCandidatesMatchMapWalkOnTrace compares candidates with the
// reference walk before every insertion of a real BioAID execution.
func TestCandidatesMatchMapWalkOnTrace(t *testing.T) {
	g := spec.MustCompile(wfspecs.BioAID())
	r := gen.MustGenerate(g, gen.Options{TargetSize: 4000, Seed: 3})
	evs, err := r.Execution(nil)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutionLabeler(g, skeleton.TCL, RModeDesignated)
	for i, ev := range evs {
		sameCandidates(t, "trace", e.candidates(ev.Preds), candidatesByMap(e, ev.Preds))
		if _, err := e.Insert(ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
}

// TestInsertAllocations bounds the labeler's allocations per insertion
// on a ~20k-event BioAID execution: the label it returns, the parse
// tree it grows and the context map account for them; the inference
// itself allocates nothing.
func TestInsertAllocations(t *testing.T) {
	g := spec.MustCompile(wfspecs.BioAID())
	r := gen.MustGenerate(g, gen.Options{TargetSize: 20000, Seed: 7})
	evs, err := r.Execution(nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := LabelExecution(g, evs, skeleton.TCL, RModeDesignated); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(len(evs)); per > 5 {
		t.Fatalf("%.2f allocations per insert over %d events, want ≤ 5", per, len(evs))
	}
}

// TestSameIDSet covers both the stack-array path (≤ 8 ids) and the
// general one: multiset equality regardless of order, and neither
// argument reordered.
func TestSameIDSet(t *testing.T) {
	ids := func(vs ...graph.VertexID) []graph.VertexID { return vs }
	long := ids(9, 8, 7, 6, 5, 4, 3, 2, 1, 0)
	cases := []struct {
		a, b []graph.VertexID
		want bool
	}{
		{nil, nil, true},
		{ids(3), ids(3), true},
		{ids(3), ids(4), false},
		{ids(1, 2), ids(2, 1), true},
		{ids(1, 1, 2), ids(1, 2, 2), false},
		{ids(5, 1, 4, 2, 3), ids(1, 2, 3, 4, 5), true},
		{ids(1, 2), ids(1, 2, 3), false},
		{long, ids(0, 1, 2, 3, 4, 5, 6, 7, 8, 9), true},
		{long, ids(0, 1, 2, 3, 4, 5, 6, 7, 8, 8), false},
	}
	for _, tc := range cases {
		a, b := append([]graph.VertexID(nil), tc.a...), append([]graph.VertexID(nil), tc.b...)
		if got := sameIDSet(tc.a, tc.b); got != tc.want {
			t.Errorf("sameIDSet(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if !slices.Equal(a, tc.a) || !slices.Equal(b, tc.b) {
			t.Errorf("sameIDSet(%v, %v) reordered its arguments", a, b)
		}
	}
}
