package core_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/label"
	"wfreach/internal/run"
	"wfreach/internal/skeleton"
	"wfreach/internal/spec"
	"wfreach/internal/wfspecs"
)

const goldenDigestsFile = "testdata/label_digests.txt"

// goldenGrammars are the builtin specifications (service.BuiltinNames)
// with the run size each is generated at. LowerBound's labels grow
// linearly with the run, so it stays small enough for the codec's
// 255-entry frame.
var goldenGrammars = []struct {
	name string
	spec func() *spec.Spec
	size int
}{
	{"Agent", wfspecs.Agent, 3000},
	{"BioAID", wfspecs.BioAID, 3000},
	{"BioAIDNonRecursive", wfspecs.BioAIDNonRecursive, 3000},
	{"LowerBound", wfspecs.Fig6, 200},
	{"Path", wfspecs.Fig12, 3000},
	{"RunningExample", wfspecs.RunningExample, 3000},
}

// TestGoldenLabelDigests pins the exact labels the execution labeler
// issues: for every builtin grammar × 2 seeds × both RModes it hashes
// the (vertex, Codec.Encode(label)) stream returned by Insert — and by
// InsertNamed where the spec is name-resolvable — and compares it with
// the committed digest. A durable session's snapshot holds the labels
// issued before a restart, and the restored labeler replays the log to
// reissue them, so any drift here breaks arena restore. The test also
// checks that Label(v) after the run equals what Insert returned.
//
// WFREACH_WRITE_GOLDEN=1 rewrites the digest file instead of checking
// it; do that only when the labels are meant to change.
func TestGoldenLabelDigests(t *testing.T) {
	got := goldenDigests(t)
	if os.Getenv("WFREACH_WRITE_GOLDEN") != "" {
		var b strings.Builder
		b.WriteString("# grammar seed mode form events sha256(vertex,encoded-label stream) — see golden_test.go\n")
		for _, line := range got {
			b.WriteString(line + "\n")
		}
		if err := os.MkdirAll(filepath.Dir(goldenDigestsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDigestsFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenDigestsFile)
		return
	}
	f, err := os.Open(goldenDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d digests computed, %d committed", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest drift:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

func goldenDigests(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, gr := range goldenGrammars {
		g := spec.MustCompile(gr.spec())
		named := g.Spec().NameResolvable() == nil
		for _, seed := range []int64{1, 2} {
			r := gen.MustGenerate(g, gen.Options{TargetSize: gr.size, Seed: seed})
			evs, err := r.Execution(rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []core.RMode{core.RModeDesignated, core.RModeNone} {
				key := fmt.Sprintf("%s %d %s", gr.name, seed, mode)
				e := core.NewExecutionLabeler(g, skeleton.TCL, mode)
				out = append(out, key+" insert "+digestStream(t, key, g, e, evs, func(ev run.Event) (label.Label, error) {
					return e.Insert(ev)
				}))
				if !named {
					continue
				}
				e = core.NewExecutionLabeler(g, skeleton.TCL, mode)
				out = append(out, key+" named "+digestStream(t, key, g, e, evs, func(ev run.Event) (label.Label, error) {
					return e.InsertNamed(core.NamedEvent{V: ev.V, Name: r.NameOf(ev.V), Preds: ev.Preds})
				}))
			}
		}
	}
	return out
}

// digestStream feeds evs through insert and returns "<events> <sha256>"
// of the issued (vertex, encoded label) stream, after checking that the
// labeler rebuilds every issued label unchanged.
func digestStream(t *testing.T, key string, g *spec.Grammar, e *core.ExecutionLabeler, evs []run.Event, insert func(run.Event) (label.Label, error)) string {
	t.Helper()
	cod := label.NewCodec(g)
	h := sha256.New()
	issued := make(map[graph.VertexID]label.Label, len(evs))
	var buf []byte
	for i, ev := range evs {
		l, err := insert(ev)
		if err != nil {
			t.Fatalf("%s: event %d: %v", key, i, err)
		}
		issued[ev.V] = l
		enc := cod.Encode(l)
		buf = binary.AppendUvarint(buf[:0], uint64(ev.V))
		buf = binary.AppendUvarint(buf, uint64(len(enc)))
		buf = append(buf, enc...)
		h.Write(buf)
	}
	if e.LabelCount() != len(evs) {
		t.Fatalf("%s: LabelCount %d after %d inserts", key, e.LabelCount(), len(evs))
	}
	for v, l := range issued {
		if got := e.MustLabel(v); !got.Equal(l) {
			t.Fatalf("%s: Label(%d) = %v, Insert returned %v", key, v, got, l)
		}
	}
	return fmt.Sprintf("%d %s", len(evs), hex.EncodeToString(h.Sum(nil)))
}
