package main

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	"wfreach/internal/api"
	"wfreach/internal/gen"
	"wfreach/internal/run"
	"wfreach/internal/spec"
	"wfreach/internal/wal"
	"wfreach/internal/wfspecs"
)

// TraceSpec names one generated execution: the grammar, the generator
// seed and the target size. It is the cache key for the generated
// frames, so a trace is generated once per checkout however many runs
// use it — generation is superlinear (BioAID takes seconds at 250k
// events and over a minute at 1M) and must stay out of every timed
// phase.
type TraceSpec struct {
	Grammar string // "BioAID" or "Agent"
	Seed    int64
	Size    int
}

func (ts TraceSpec) key() string {
	return fmt.Sprintf("%s-seed%d-n%d", ts.Grammar, ts.Seed, ts.Size)
}

// Trace is one execution as the benchmark replays it: the binary
// ingest frame of every event in execution order, and the same events
// in wire form (the oracle builds its graph from their vertex ids and
// predecessor lists).
type Trace struct {
	Spec   TraceSpec
	Frames [][]byte
	Events []api.Event
}

// Len is the number of events.
func (t *Trace) Len() int { return len(t.Frames) }

// LoadTrace returns the trace, generating and caching it under dir on
// first use.
func LoadTrace(dir string, ts TraceSpec) (*Trace, error) {
	path, err := EnsureTrace(dir, ts)
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseTrace(ts, raw)
}

// EnsureTrace generates the trace into the cache under dir unless it is
// there already, and returns its path.
func EnsureTrace(dir string, ts TraceSpec) (string, error) {
	path := filepath.Join(dir, ts.key()+".frames")
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	raw, err := generateFrames(ts)
	if err != nil {
		return "", err
	}
	return path, writeAtomic(path, raw)
}

func generateFrames(ts TraceSpec) ([]byte, error) {
	var events []run.Event
	switch ts.Grammar {
	case "BioAID":
		g, err := spec.Compile(wfspecs.BioAID())
		if err != nil {
			return nil, err
		}
		if events, _, err = gen.GenerateEvents(g, gen.Options{TargetSize: ts.Size, Seed: ts.Seed}); err != nil {
			return nil, err
		}
	case "Agent":
		tr, err := gen.GenerateAgentTrace(gen.AgentOptions{TargetSize: ts.Size, Seed: ts.Seed})
		if err != nil {
			return nil, err
		}
		events = tr.Events
	default:
		return nil, fmt.Errorf("unknown grammar %q", ts.Grammar)
	}
	var buf []byte
	for _, ev := range events {
		var err error
		if buf, err = api.AppendFrame(buf, api.FromRun(ev)); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func writeAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.tmp%d", path, os.Getpid())
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func parseTrace(ts TraceSpec, raw []byte) (*Trace, error) {
	t := &Trace{Spec: ts}
	for off := 0; off < len(raw); {
		if len(raw)-off < wal.FrameHeaderSize {
			return nil, fmt.Errorf("trace %s: torn frame header at byte %d", ts.key(), off)
		}
		end := off + wal.FrameHeaderSize + int(binary.LittleEndian.Uint32(raw[off:]))
		if end > len(raw) {
			return nil, fmt.Errorf("trace %s: torn frame at byte %d", ts.key(), off)
		}
		rec, err := wal.DecodeRecord(raw[off+wal.FrameHeaderSize : end])
		if err != nil {
			return nil, fmt.Errorf("trace %s: frame at byte %d: %w", ts.key(), off, err)
		}
		t.Frames = append(t.Frames, raw[off:end:end])
		t.Events = append(t.Events, api.FromRecord(rec))
		off = end
	}
	return t, nil
}

// Batch returns the concatenated frames of events [from, to).
func (t *Trace) Batch(from, to int) []byte {
	n := 0
	for _, f := range t.Frames[from:to] {
		n += len(f)
	}
	buf := make([]byte, 0, n)
	for _, f := range t.Frames[from:to] {
		buf = append(buf, f...)
	}
	return buf
}

// Oracle is the label-independent ground truth for one trace: BFS over
// the run graph the events describe (an edge p → v for every
// predecessor p of v), forward and backward from a seeded sample of
// vertices. Every reach pair the benchmark asks has a sampled vertex
// at one end, and every lineage query targets a sampled vertex. Indices
// are event positions in execution order, so "acknowledged" is a
// prefix test.
type Oracle struct {
	t       *Trace
	pos     map[int32]int32 // vertex id → event index
	Samples []int32         // sampled event indices, ascending
	fwd     map[int32][]uint64
	bwd     map[int32][]uint64
}

// NewOracle samples n event indices with rng and runs both BFS passes
// from each.
func NewOracle(t *Trace, n int, rng *rand.Rand) *Oracle {
	o := &Oracle{t: t, pos: make(map[int32]int32, t.Len()), fwd: map[int32][]uint64{}, bwd: map[int32][]uint64{}}
	for i, ev := range t.Events {
		o.pos[ev.V] = int32(i)
	}
	// Successor and predecessor lists in index space (CSR).
	deg := make([]int32, t.Len()+1)
	for _, ev := range t.Events {
		for _, p := range ev.Preds {
			deg[o.pos[p]+1]++
		}
	}
	for i := 1; i < len(deg); i++ {
		deg[i] += deg[i-1]
	}
	succ := make([]int32, deg[len(deg)-1])
	fill := slices.Clone(deg)
	for i, ev := range t.Events {
		for _, p := range ev.Preds {
			pi := o.pos[p]
			succ[fill[pi]] = int32(i)
			fill[pi]++
		}
	}
	predIdx := make([][]int32, t.Len())
	for i, ev := range t.Events {
		predIdx[i] = make([]int32, len(ev.Preds))
		for k, p := range ev.Preds {
			predIdx[i][k] = o.pos[p]
		}
	}

	n = min(n, t.Len())
	for _, i := range rng.Perm(t.Len())[:n] {
		o.Samples = append(o.Samples, int32(i))
	}
	slices.Sort(o.Samples)
	words := (t.Len() + 63) / 64
	for _, s := range o.Samples {
		o.fwd[s] = bfs(s, words, func(i int32) []int32 { return succ[deg[i]:deg[i+1]] })
		o.bwd[s] = bfs(s, words, func(i int32) []int32 { return predIdx[i] })
	}
	return o
}

func bfs(from int32, words int, next func(int32) []int32) []uint64 {
	seen := make([]uint64, words)
	seen[from/64] |= 1 << (from % 64)
	queue := []int32{from}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, j := range next(i) {
			if seen[j/64]&(1<<(j%64)) == 0 {
				seen[j/64] |= 1 << (j % 64)
				queue = append(queue, j)
			}
		}
	}
	return seen
}

func bit(set []uint64, i int32) bool { return set[i/64]&(1<<(i%64)) != 0 }

// Reaches reports whether event i's vertex reaches event j's vertex
// (reflexive). One of the two must be a sample.
func (o *Oracle) Reaches(i, j int32) bool {
	if set, ok := o.fwd[i]; ok {
		return bit(set, j)
	}
	if set, ok := o.bwd[j]; ok {
		return bit(set, i)
	}
	panic(fmt.Sprintf("oracle: neither event %d nor %d is sampled", i, j))
}

// Ancestors returns the vertex ids that reach sampled event s's vertex,
// s's own included, ascending — what a lineage scan must return.
func (o *Oracle) Ancestors(s int32) []int32 {
	var out []int32
	for w, word := range o.bwd[s] {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, o.t.Events[w*64+b].V)
			word &= word - 1
		}
	}
	slices.Sort(out)
	return out
}

// Pairs draws n reach pairs over the first acked events, each with a
// sampled vertex at one end (chosen among the acked samples) and a
// uniformly drawn acked vertex at the other, in random direction. It
// returns nil when no sample is acked yet.
func (o *Oracle) Pairs(rng *rand.Rand, n int, acked int) ([]api.ReachPair, [][2]int32) {
	k, _ := slices.BinarySearch(o.Samples, int32(acked))
	if k == 0 {
		return nil, nil
	}
	pairs := make([]api.ReachPair, n)
	idx := make([][2]int32, n)
	for i := range pairs {
		s := o.Samples[rng.Intn(k)]
		w := int32(rng.Intn(acked))
		if rng.Intn(2) == 0 {
			s, w = w, s
		}
		pairs[i] = api.ReachPair{From: o.t.Events[s].V, To: o.t.Events[w].V}
		idx[i] = [2]int32{s, w}
	}
	return pairs, idx
}

// Check counts the answers that disagree with the ground truth.
func (o *Oracle) Check(idx [][2]int32, answers []api.ReachAnswer) (wrong int) {
	for i, a := range answers {
		if a.Code != "" || a.Reachable != o.Reaches(idx[i][0], idx[i][1]) {
			wrong++
		}
	}
	return wrong
}

// AckedSample draws one sampled event index below acked, or -1.
func (o *Oracle) AckedSample(rng *rand.Rand, acked int) int32 {
	k, _ := slices.BinarySearch(o.Samples, int32(acked))
	if k == 0 {
		return -1
	}
	return o.Samples[rng.Intn(k)]
}
