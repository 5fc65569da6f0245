// Package core implements DRL, the paper's dynamic reachability
// labeling scheme for workflow runs: the derivation-based labeler
// (Algorithms 2 and 3), the execution-based labeler (Section 5.3), and
// the query predicate π (Algorithm 4). For linear recursive grammars
// labels are O(log n) bits, labeling a run takes linear total time,
// and queries take constant time (Theorem 3). Nonlinear recursive
// grammars are supported through the Section 6 adaptation, at the cost
// of linear-size labels in the worst case (Theorem 1).
//
// # Thread safety
//
// Labelers are single-writer: Insert, InsertNamed, Start and Apply mutate
// the parse tree and must be called from one goroutine (or externally
// serialized). Everything a labeler hands out is safe to share across
// goroutines once returned: labels are immutable (Section 2.4 — a
// vertex is labeled exactly once, at insertion, and the label never
// changes), and the skeleton.Scheme plus the grammar are read-only
// after construction, so Pi may be evaluated concurrently on
// previously issued labels while new vertices are still being
// inserted.
//
// A labeler keeps no map of issued labels: per run vertex it holds
// only the context instance and spec vertex future insertions need.
// Label and MustLabel rebuild a label from that context in O(d_t) and
// allocate it afresh on every call. They, Reach and LabelCount read
// labeler-internal state, so they race with concurrent Insert calls
// and need the same serialization; concurrent services should instead
// copy each label into their own read-side store as Insert returns it
// — that is the discipline internal/service implements.
package core

import (
	"fmt"

	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/parsetree"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
)

// RMode selects how recursive vertices are compressed (Section 6).
type RMode uint8

const (
	// RModeDesignated compresses at most one recursive vertex per
	// production into R-node chains: the full Section 5 scheme on
	// linear grammars, and the optimized Section 6 adaptation on
	// nonlinear ones.
	RModeDesignated RMode = iota
	// RModeNone builds the simplified explicit parse tree with no R
	// nodes, treating every vertex non-recursively (the first
	// adaptation described in Section 6).
	RModeNone
)

func (m RMode) String() string {
	if m == RModeNone {
		return "no-R"
	}
	return "designated-R"
}

// base holds the state shared by the derivation-based and
// execution-based labelers: the explicit parse tree, the bookkeeping
// from run vertices to tree instances, and per-graph tables computed
// once from the grammar.
type base struct {
	g    *spec.Grammar
	skel *skeleton.Scheme

	root *parsetree.Node
	// ctx maps a run vertex to its context instance and spec vertex
	// (Definition 11: the instance whose annotated graph contains it).
	// A vertex's label is its instance's prefix plus memberEntry, so
	// ctx is also the record of every label issued.
	ctx map[graph.VertexID]memberRef
	// tables holds the static facts about each specification graph,
	// indexed by GraphID.
	tables []graphTable
}

type memberRef struct {
	node *parsetree.Node
	sv   graph.VertexID
}

// graphTable caches the facts about one specification graph that bind
// and the candidate search need on every insertion, so they cost an
// index instead of name-map lookups, vertex scans or skeleton π.
type graphTable struct {
	g            *graph.Graph
	source, sink graph.VertexID
	// designated is the R-compressed recursive vertex under the
	// labeler's mode (graph.None if there is none).
	designated graph.VertexID
	// composite marks the composite vertices; slots lists them
	// (including the designated recursive vertex) in vertex order.
	composite []bool
	slots     []graph.VertexID
	// rec1[v] = π_G(v, w) and rec2[v] = π_G(w, v) for the designated
	// vertex w; nil when designated is graph.None.
	rec1, rec2 []bool
}

func newBase(g *spec.Grammar, kind skeleton.Kind, mode RMode) base {
	b := base{
		g:    g,
		skel: skeleton.New(kind, g),
		ctx:  make(map[graph.VertexID]memberRef),
	}
	graphs := g.Spec().Graphs()
	b.tables = make([]graphTable, len(graphs))
	for id, ng := range graphs {
		gid := spec.GraphID(id)
		t := graphTable{
			g:          ng.G,
			source:     ng.G.Source(),
			sink:       ng.G.Sink(),
			designated: graph.None,
			composite:  make([]bool, ng.G.NumVertices()),
		}
		if mode != RModeNone {
			t.designated = g.Designated(gid)
		}
		for v := range t.composite {
			if g.Spec().Kind(ng.G.Name(graph.VertexID(v))).Composite() {
				t.composite[v] = true
				t.slots = append(t.slots, graph.VertexID(v))
			}
		}
		if w := t.designated; w != graph.None {
			t.rec1 = make([]bool, len(t.composite))
			t.rec2 = make([]bool, len(t.composite))
			for v := range t.rec1 {
				sv := spec.VertexRef{Graph: gid, V: graph.VertexID(v)}
				wv := spec.VertexRef{Graph: gid, V: w}
				t.rec1[v] = b.skel.Pi(sv, wv)
				t.rec2[v] = b.skel.Pi(wv, sv)
			}
		}
		b.tables[id] = t
	}
	return b
}

// designatedOf returns the R-compressed recursive vertex of a graph
// under the current mode.
func (b *base) designatedOf(id spec.GraphID) graph.VertexID {
	return b.tables[id].designated
}

// memberEntry builds the Algorithm 1 entry for spec vertex sv of
// instance x: the node's index and type, the skeleton pointer of the
// origin, and — when x's graph has a designated recursive vertex w,
// which happens exactly when x is a recursion-chain member — the two
// recursion flags rec1 = π_G(sv, w) and rec2 = π_G(w, sv).
func (b *base) memberEntry(x *parsetree.Node, sv graph.VertexID) label.Entry {
	e := label.Entry{Index: x.Index, Type: label.N, Skl: spec.VertexRef{Graph: x.Graph, V: sv}}
	if t := &b.tables[x.Graph]; t.designated != graph.None {
		e.HasRec = true
		e.Rec1 = t.rec1[sv]
		e.Rec2 = t.rec2[sv]
	}
	return e
}

// specialEntry builds the entry of a special node (skl and flags null).
func specialEntry(x *parsetree.Node) label.Entry {
	return label.Entry{Index: x.Index, Type: x.Kind, Skl: spec.NoRef}
}

// bind materializes spec vertex sv of instance x as run vertex v and
// issues its final reachability label. Labels are immutable: binding
// an already-labeled vertex panics (it would be a labeler bug).
func (b *base) bind(x *parsetree.Node, sv, v graph.VertexID) label.Label {
	if x.RunOf[sv] != graph.None {
		panic(fmt.Sprintf("core: spec vertex %d of instance already materialized", sv))
	}
	x.RunOf[sv] = v
	n := len(b.ctx)
	b.ctx[v] = memberRef{x, sv}
	if len(b.ctx) == n { // one map operation both inserts and detects a duplicate
		panic(fmt.Sprintf("core: run vertex %d labeled twice", v))
	}
	return x.Prefix.Append(b.memberEntry(x, sv))
}

// Label returns the reachability label of a run vertex, rebuilt from
// its context: the same label bind issued, in a fresh allocation.
func (b *base) Label(v graph.VertexID) (label.Label, bool) {
	ref, ok := b.ctx[v]
	if !ok {
		return label.Label{}, false
	}
	return ref.node.Prefix.Append(b.memberEntry(ref.node, ref.sv)), true
}

// MustLabel returns the label of v, panicking if v was never labeled.
func (b *base) MustLabel(v graph.VertexID) label.Label {
	l, ok := b.Label(v)
	if !ok {
		panic(fmt.Sprintf("core: vertex %d has no label", v))
	}
	return l
}

// Reach answers v ;* w from the two vertices' labels (π of Algorithm 4).
func (b *base) Reach(v, w graph.VertexID) bool {
	return Pi(b.skel, b.MustLabel(v), b.MustLabel(w))
}

// Pi evaluates π on two labels using this labeler's skeleton scheme.
func (b *base) Pi(l1, l2 label.Label) bool { return Pi(b.skel, l1, l2) }

// Tree returns the explicit parse tree (nil before the first update).
func (b *base) Tree() *parsetree.Node { return b.root }

// Skeleton returns the skeleton scheme used by this labeler.
func (b *base) Skeleton() *skeleton.Scheme { return b.skel }

// Grammar returns the grammar being labeled.
func (b *base) Grammar() *spec.Grammar { return b.g }

// LabelCount returns the number of labels issued so far.
func (b *base) LabelCount() int { return len(b.ctx) }

// graphOf returns the specification graph of an instance node.
func (b *base) graphOf(x *parsetree.Node) *graph.Graph {
	return b.tables[x.Graph].g
}

// startRoot creates the root instance annotated with g0.
func (b *base) startRoot() *parsetree.Node {
	g0 := b.g.Spec().Graph(spec.StartGraph).G
	b.root = parsetree.NewRoot(spec.StartGraph, g0.NumVertices())
	return b.root
}
