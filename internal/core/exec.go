package core

import (
	"fmt"
	"slices"

	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/parsetree"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
)

// ExecutionLabeler is the execution-based dynamic labeling scheme of
// Section 5.3: it receives one vertex insertion at a time — a run
// vertex, its predecessors, and the specification vertex it executes
// (the execution-log mapping) — infers the underlying derivation on
// the fly, and issues the same labels the derivation-based scheme
// would, in O(1) per insertion for a fixed grammar.
//
// Inference works as the paper sketches: an insertion of a graph's
// source dummy opens a new instance (a fresh slot expansion, the next
// copy of a loop or fork, or the next member of a recursion chain),
// located by matching the insertion's predecessor set against the
// expected predecessor set of every candidate slot along the
// slot-parent chains of the predecessors' contexts; any other
// insertion binds to the unique open instance that has its spec vertex
// unmaterialized with matching predecessors.
//
// An ExecutionLabeler is not safe for concurrent use; see the package
// comment for the single-writer contract and what may be shared.
type ExecutionLabeler struct {
	base
	// namedChecked caches the NameResolvable validation for
	// InsertNamed.
	namedChecked bool

	// Scratch reused by every insertion: epoch stamps the parse-tree
	// nodes one candidates walk has visited, cand holds that walk's
	// output, and exp the expected predecessors of one slot.
	epoch uint64
	cand  []*parsetree.Node
	exp   []graph.VertexID
}

// NewExecutionLabeler builds an execution-based labeler.
func NewExecutionLabeler(g *spec.Grammar, kind skeleton.Kind, mode RMode) *ExecutionLabeler {
	return &ExecutionLabeler{base: newBase(g, kind, mode)}
}

// Insert labels one newly executed vertex. Insertions must arrive in a
// topological order of the (eventual) run graph, as executions do
// (Definition 8). It returns the vertex's final label.
func (e *ExecutionLabeler) Insert(ev run.Event) (label.Label, error) {
	gid, sv := ev.Ref.Graph, ev.Ref.V
	if gid < 0 || int(gid) >= len(e.tables) {
		return label.Label{}, fmt.Errorf("core: event names unknown graph %d", gid)
	}
	t := &e.tables[gid]
	if !t.g.Valid(sv) {
		return label.Label{}, fmt.Errorf("core: event names unknown vertex %d of graph %d", sv, gid)
	}
	if _, dup := e.ctx[ev.V]; dup {
		return label.Label{}, fmt.Errorf("core: run vertex %d inserted twice", ev.V)
	}
	for _, p := range ev.Preds {
		if _, ok := e.ctx[p]; !ok {
			return label.Label{}, fmt.Errorf("core: predecessor %d of vertex %d not yet inserted", p, ev.V)
		}
	}

	// Bootstrap: the very first insertion must be g0's source.
	if e.root == nil {
		if gid != spec.StartGraph || sv != t.source || len(ev.Preds) != 0 {
			return label.Label{}, fmt.Errorf("core: execution must start with the source of g0")
		}
		root := e.startRoot()
		root.Prefix = label.Label{}
		return e.bind(root, sv, ev.V), nil
	}
	if len(ev.Preds) == 0 {
		return label.Label{}, fmt.Errorf("core: only the source of g0 has no predecessors")
	}

	if gid != spec.StartGraph && sv == t.source {
		return e.insertSource(ev)
	}
	return e.insertMember(ev)
}

// insertMember binds a non-source vertex to its existing instance: the
// first instance along the predecessors' slot-parent chains whose
// graph matches, whose spec vertex is unmaterialized, and whose
// expected predecessors equal the event's.
func (e *ExecutionLabeler) insertMember(ev run.Event) (label.Label, error) {
	gid, sv := ev.Ref.Graph, ev.Ref.V
	for _, x := range e.candidates(ev.Preds) {
		if x.Graph != gid || x.RunOf[sv] != graph.None {
			continue
		}
		if exp, ok := e.expectedPreds(x, sv); ok && sameIDSet(exp, ev.Preds) {
			return e.bind(x, sv, ev.V), nil
		}
	}
	return label.Label{}, fmt.Errorf("core: no instance accepts vertex %d (g%d:%d)", ev.V, gid, sv)
}

// insertSource opens a new instance of graph gid for a source-dummy
// insertion, attaching it to the slot whose expected predecessors
// match. Continuations of existing loop and fork groups are preferred
// over fresh expansions, and deeper instances over shallower ones.
func (e *ExecutionLabeler) insertSource(ev run.Event) (label.Label, error) {
	gid := ev.Ref.Graph
	ng := e.g.Spec().Graph(gid)
	implKind := e.g.Spec().Kind(ng.Owner)

	for _, y := range e.candidates(ev.Preds) {
		slots := e.tables[y.Graph].slots
		// Continuations of this instance's open loop/fork groups.
		for _, cu := range slots {
			gx := y.Groups[cu]
			if gx == nil || gx.Kind == label.R || !gx.IsSpecial() {
				continue
			}
			if len(gx.Children) == 0 || gx.Children[0].Graph != gid {
				continue
			}
			if gx.Kind == label.L {
				// The next series copy is fed by the last copy's sink.
				snk := e.sinkOf(gx.Children[len(gx.Children)-1])
				if snk == graph.None || len(ev.Preds) != 1 || ev.Preds[0] != snk {
					continue
				}
			} else {
				// Parallel copies all share the slot's own predecessors.
				exp, ok := e.expectedPreds(y, cu)
				if !ok || !sameIDSet(exp, ev.Preds) {
					continue
				}
			}
			x := gx.AddInstance(gid, ng.G.NumVertices(), gx.NextIndex())
			x.Prefix = gx.Prefix
			x.SlotParent, x.SlotVertex = y, cu
			return e.bind(x, e.tables[gid].source, ev.V), nil
		}
		// Fresh expansions of this instance's unexpanded slots (which
		// include the designated recursive vertex, whose expansion
		// extends the enclosing R chain).
		for _, cu := range slots {
			if y.Groups[cu] != nil {
				continue
			}
			if !e.implements(gid, e.graphOf(y).Name(cu)) {
				continue
			}
			exp, ok := e.expectedPreds(y, cu)
			if !ok || !sameIDSet(exp, ev.Preds) {
				continue
			}
			x, err := e.expandSlot(y, cu, gid, ng.G.NumVertices(), implKind)
			if err != nil {
				return label.Label{}, err
			}
			return e.bind(x, e.tables[gid].source, ev.V), nil
		}
	}
	return label.Label{}, fmt.Errorf("core: no slot accepts source of g%d (vertex %d)", gid, ev.V)
}

// expandSlot creates the tree structure for the first copy of slot cu
// of instance y, mirroring Algorithm 2's four cases.
func (e *ExecutionLabeler) expandSlot(y *parsetree.Node, cu graph.VertexID, gid spec.GraphID, vertices int, kind spec.Kind) (*parsetree.Node, error) {
	if e.designatedOf(y.Graph) == cu {
		// Recursion-chain continuation: next child of the enclosing R.
		rx := y.Parent
		if rx == nil || rx.Kind != label.R {
			return nil, fmt.Errorf("core: recursive vertex outside an R chain")
		}
		x := rx.AddInstance(gid, vertices, rx.NextIndex())
		x.Prefix = rx.Prefix
		x.SlotParent, x.SlotVertex = y, cu
		y.Groups[cu] = x
		return x, nil
	}
	uLabel := y.Prefix.Append(e.memberEntry(y, cu)) // φ_g(u)
	switch {
	case kind == spec.Loop || kind == spec.Fork:
		t := label.L
		if kind == spec.Fork {
			t = label.F
		}
		gx := y.AddSpecial(t, parsetree.SlotIndex(cu))
		gx.Prefix = uLabel.Append(specialEntry(gx))
		y.Groups[cu] = gx
		x := gx.AddInstance(gid, vertices, gx.NextIndex())
		x.Prefix = gx.Prefix
		x.SlotParent, x.SlotVertex = y, cu
		return x, nil
	case e.designatedOf(gid) != graph.None:
		rx := y.AddSpecial(label.R, parsetree.SlotIndex(cu))
		rx.Prefix = uLabel.Append(specialEntry(rx))
		y.Groups[cu] = rx
		x := rx.AddInstance(gid, vertices, rx.NextIndex())
		x.Prefix = rx.Prefix
		x.SlotParent, x.SlotVertex = y, cu
		return x, nil
	default:
		x := y.AddInstance(gid, vertices, parsetree.SlotIndex(cu))
		x.Prefix = uLabel
		x.SlotParent, x.SlotVertex = y, cu
		y.Groups[cu] = x
		return x, nil
	}
}

// candidates returns the instances to try for an event, walking the
// slot-parent chain bottom-up from each predecessor's context, without
// duplicates. A fresh epoch stamp marks the nodes this walk visited,
// so each chain is cut where it meets one already walked in O(1) per
// node. The result aliases a buffer the next call overwrites.
func (e *ExecutionLabeler) candidates(preds []graph.VertexID) []*parsetree.Node {
	e.epoch++
	out := e.cand[:0]
	for _, p := range preds {
		ref, ok := e.ctx[p]
		if !ok {
			continue
		}
		for x := ref.node; x != nil; x = x.SlotParent {
			if x.Visited == e.epoch {
				break // the rest of the chain was already visited
			}
			x.Visited = e.epoch
			out = append(out, x)
		}
	}
	e.cand = out
	return out
}

// implements reports whether graph gid implements the composite name.
func (e *ExecutionLabeler) implements(gid spec.GraphID, name string) bool {
	for _, id := range e.g.Spec().Implementations(name) {
		if id == gid {
			return true
		}
	}
	return false
}

// expectedPreds computes the run vertices that feed spec vertex sv of
// instance y: materialized atomic predecessors directly, and for each
// composite predecessor the sink(s) of its completed expansion — the
// last copy's sink for a loop, every copy's sink for a fork, the first
// chain member's sink for a recursion (nested members replace vertices
// inside it), and the single instance's sink otherwise. ok is false
// while some needed piece is not yet materialized. The result aliases
// a buffer the next call overwrites.
func (e *ExecutionLabeler) expectedPreds(y *parsetree.Node, sv graph.VertexID) ([]graph.VertexID, bool) {
	t := &e.tables[y.Graph]
	out := e.exp[:0]
	for _, p := range t.g.In(sv) {
		if !t.composite[p] {
			r := y.RunOf[p]
			if r == graph.None {
				return nil, false
			}
			out = append(out, r)
			continue
		}
		gx := y.Groups[p]
		if gx == nil {
			return nil, false
		}
		var ok bool
		if out, ok = e.appendExpansionSinks(out, gx); !ok {
			return nil, false
		}
	}
	e.exp = out
	return out, true
}

// appendExpansionSinks appends the run sinks of a slot expansion to
// out; ok is false while one of them is not yet materialized.
func (e *ExecutionLabeler) appendExpansionSinks(out []graph.VertexID, gx *parsetree.Node) (_ []graph.VertexID, ok bool) {
	var s graph.VertexID
	switch gx.Kind {
	case label.N:
		// Plain instance, or the first member of an R chain reached via
		// Groups (chain members nest inside it, so its sink is the
		// expansion's sink either way).
		s = e.sinkOf(gx)
	case label.L:
		if len(gx.Children) == 0 {
			return out, false
		}
		s = e.sinkOf(gx.Children[len(gx.Children)-1])
	case label.F:
		for _, c := range gx.Children {
			if s = e.sinkOf(c); s == graph.None {
				return out, false
			}
			out = append(out, s)
		}
		return out, true
	default: // label.R
		if len(gx.Children) == 0 {
			return out, false
		}
		s = e.sinkOf(gx.Children[0])
	}
	if s == graph.None {
		return out, false
	}
	return append(out, s), true
}

// sinkOf returns the run vertex of an instance's sink, or graph.None
// while it is not yet materialized.
func (e *ExecutionLabeler) sinkOf(x *parsetree.Node) graph.VertexID {
	return x.RunOf[e.tables[x.Graph].sink]
}

// sameIDSet reports whether a and b hold the same vertex multiset.
// Sets of up to eight are sorted in stack arrays, so the common case
// allocates nothing.
func sameIDSet(a, b []graph.VertexID) bool {
	n := len(a)
	if n != len(b) {
		return false
	}
	if n == 1 {
		return a[0] == b[0]
	}
	var as, bs []graph.VertexID
	if n <= 8 {
		var sa, sb [8]graph.VertexID
		as, bs = sa[:n], sb[:n]
		copy(as, a)
		copy(bs, b)
	} else {
		as, bs = slices.Clone(a), slices.Clone(b)
	}
	slices.Sort(as)
	slices.Sort(bs)
	return slices.Equal(as, bs)
}

// LabelExecution drives a full execution through a fresh labeler,
// returning it. Convenience for tests and benchmarks.
func LabelExecution(g *spec.Grammar, events []run.Event, kind skeleton.Kind, mode RMode) (*ExecutionLabeler, error) {
	e := NewExecutionLabeler(g, kind, mode)
	for i := range events {
		if _, err := e.Insert(events[i]); err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
	}
	return e, nil
}
