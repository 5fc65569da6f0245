package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wfreach/internal/core"
	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/spec"
)

func testRecords() []Record {
	return []Record{
		RefRecord(run.Event{V: 0, Ref: spec.VertexRef{Graph: 0, V: 0}}),
		RefRecord(run.Event{V: 1, Ref: spec.VertexRef{Graph: 0, V: 1}, Preds: []graph.VertexID{0}}),
		NamedRecord(core.NamedEvent{V: 2, Name: "align", Preds: []graph.VertexID{0, 1}}),
		RefRecord(run.Event{V: 300, Ref: spec.VertexRef{Graph: 7, V: 12}, Preds: []graph.VertexID{2, 299}}),
		NamedRecord(core.NamedEvent{V: 301, Name: ""}),
	}
}

func writeLog(t *testing.T, path string, recs []Record) {
	t.Helper()
	l, err := Open(path, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func scanAll(t *testing.T, path string) ([]Record, int64) {
	t.Helper()
	var got []Record
	n, size, err := Scan(path, func(i int, rec Record) error {
		if i != len(got) {
			t.Fatalf("record index %d, want %d", i, len(got))
		}
		got = append(got, rec.Clone())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(got) {
		t.Fatalf("Scan count %d, callbacks %d", n, len(got))
	}
	return got, size
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	recs := testRecords()
	writeLog(t, path, recs)
	got, size := scanAll(t, path)
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, recs)
	}
	if fi, _ := os.Stat(path); fi.Size() != size {
		t.Fatalf("valid size %d, file size %d", size, fi.Size())
	}
}

func TestScanMissingFile(t *testing.T) {
	n, size, err := Scan(filepath.Join(t.TempDir(), "nope.wal"), nil)
	if err != nil || n != 0 || size != 0 {
		t.Fatalf("missing file: n=%d size=%d err=%v", n, size, err)
	}
}

func TestScanCallbackError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	writeLog(t, path, testRecords())
	boom := errors.New("boom")
	n, _, err := Scan(path, func(i int, rec Record) error {
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || n != 2 {
		t.Fatalf("callback error: n=%d err=%v", n, err)
	}
}

// TestTruncatedTail cuts the file at every possible byte length and
// checks the scan always yields an intact prefix of the records.
func TestTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	recs := testRecords()
	writeLog(t, full, recs)
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	// Record boundaries (each frame is 8 bytes + payload), for deciding
	// how many records survive a cut.
	bounds := []int64{0}
	for off := int64(0); off < int64(len(raw)); {
		n := int64(uint32(raw[off]) | uint32(raw[off+1])<<8 | uint32(raw[off+2])<<16 | uint32(raw[off+3])<<24)
		off += 8 + n
		bounds = append(bounds, off)
	}
	if len(bounds) != len(recs)+1 {
		t.Fatalf("found %d records in file, want %d", len(bounds)-1, len(recs))
	}

	path := filepath.Join(dir, "cut.wal")
	for cut := 0; cut <= len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantN := 0
		for i, b := range bounds {
			if int64(cut) >= b {
				wantN = i
			}
		}
		got, size := scanAll(t, path)
		if len(got) != wantN {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, len(got), wantN)
		}
		if size != bounds[wantN] {
			t.Fatalf("cut at %d: valid size %d, want %d", cut, size, bounds[wantN])
		}
		if wantN > 0 && !reflect.DeepEqual(got, recs[:wantN]) {
			t.Fatalf("cut at %d: wrong prefix", cut)
		}
	}
}

// TestCorruptMiddleRecord flips one payload byte of an interior record
// and checks everything from that record on is discarded.
func TestCorruptMiddleRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	recs := testRecords()
	writeLog(t, path, recs)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Boundaries of record 0 and 1: frame is 8 bytes + payload.
	b0 := 8 + int64(uint32(raw[0])|uint32(raw[1])<<8|uint32(raw[2])<<16|uint32(raw[3])<<24)
	raw[b0+8] ^= 0xff // first payload byte of record 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, size := scanAll(t, path)
	if len(got) != 1 || size != b0 {
		t.Fatalf("corrupt record 1: recovered %d records (size %d), want 1 (%d)", len(got), size, b0)
	}
	if !reflect.DeepEqual(got[0], recs[0]) {
		t.Fatalf("surviving record differs")
	}
}

// TestOpenTruncatesAndAppends reopens a log with a torn tail at its
// valid size and appends fresh records; the result must be the valid
// prefix plus the new records.
func TestOpenTruncatesAndAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	recs := testRecords()
	writeLog(t, path, recs)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record.
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	valid, size := scanAll(t, path)
	l, err := Open(path, size, int64(len(valid)), false)
	if err != nil {
		t.Fatal(err)
	}
	extra := NamedRecord(core.NamedEvent{V: 999, Name: "after-crash", Preds: []graph.VertexID{1}})
	if err := l.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := scanAll(t, path)
	want := append(append([]Record{}, recs[:len(recs)-1]...), extra)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-recovery log:\n got %+v\nwant %+v", got, want)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.snap")
	s := Snapshot{
		Events: 3,
		Labels: map[graph.VertexID][]byte{
			0: {0x01},
			1: {0x02, 0x03},
			7: {},
		},
	}
	if err := WriteSnapshot(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Events != s.Events || len(got.Labels) != len(s.Labels) {
		t.Fatalf("snapshot header mismatch: %+v", got)
	}
	for v, enc := range s.Labels {
		if !bytes.Equal(got.Labels[v], enc) {
			t.Fatalf("vertex %d: %v != %v", v, got.Labels[v], enc)
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	dir := t.TempDir()
	s := Snapshot{Events: 2, Labels: map[graph.VertexID][]byte{5: {1}, 2: {2}, 9: {3}}}
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if err := WriteSnapshot(a, s); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(b, s); err != nil {
		t.Fatal(err)
	}
	ra, _ := os.ReadFile(a)
	rb, _ := os.ReadFile(b)
	if !bytes.Equal(ra, rb) {
		t.Fatal("same snapshot produced different bytes")
	}
}

func TestSnapshotMissing(t *testing.T) {
	_, err := ReadSnapshot(filepath.Join(t.TempDir(), "nope.snap"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing snapshot: %v", err)
	}
}

func TestSnapshotCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.snap")
	s := Snapshot{Events: 1, Labels: map[graph.VertexID][]byte{0: {0xaa, 0xbb}}}
	if err := WriteSnapshot(path, s); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"bad magic":  append([]byte("NOTASNAP"), raw[8:]...),
		"flipped":    flip(raw, len(raw)/2),
		"truncated":  raw[:len(raw)-5],
		"too short":  raw[:6],
		"trailing":   append(append([]byte{}, raw...), 0x00),
		"empty file": {},
	}
	for name, data := range cases {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(path); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

func flip(raw []byte, i int) []byte {
	out := append([]byte{}, raw...)
	out[i] ^= 0x01
	return out
}

// TestAppendRejectsOversizedRecord: a record Scan would refuse as
// corrupt must never be accepted (and acknowledged) by Append.
func TestAppendRejectsOversizedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	l, err := Open(path, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	big := NamedRecord(core.NamedEvent{V: 1, Name: strings.Repeat("x", MaxPayload)})
	if err := l.Append(big); err == nil {
		t.Fatal("oversized record accepted")
	}
	// The rejection must leave the log clean and usable.
	ok := NamedRecord(core.NamedEvent{V: 1, Name: "ok"})
	if err := l.Append(ok); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := scanAll(t, path)
	if len(got) != 1 || !reflect.DeepEqual(got[0], ok) {
		t.Fatalf("log after rejected append: %+v", got)
	}
}

// TestScanFromBoundaries appends records one at a time, recording the
// AppendBytes watermark after each, then scans from every watermark
// and checks the scan yields exactly the records appended after it —
// the contract the arena restore's tail replay depends on.
func TestScanFromBoundaries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	recs := testRecords()
	l, err := Open(path, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if l.AppendBytes() != 0 {
		t.Fatalf("fresh log AppendBytes = %d, want 0", l.AppendBytes())
	}
	marks := []int64{0}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		marks = append(marks, l.AppendBytes())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if marks[len(marks)-1] != fi.Size() {
		t.Fatalf("final AppendBytes %d, file size %d", marks[len(marks)-1], fi.Size())
	}
	for k, off := range marks {
		var got []Record
		n, size, err := ScanFrom(path, off, func(i int, rec Record) error {
			if i != len(got) {
				t.Fatalf("offset %d: record index %d, want %d", off, i, len(got))
			}
			got = append(got, rec.Clone())
			return nil
		})
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if n != len(recs)-k || !reflect.DeepEqual(got, append([]Record(nil), recs[k:]...)) {
			t.Fatalf("offset %d: scanned %d records, want suffix of %d", off, n, len(recs)-k)
		}
		if size != fi.Size() {
			t.Fatalf("offset %d: validSize %d, want %d (absolute)", off, size, fi.Size())
		}
	}
}

// TestScanFromPastEOF checks the "snapshot ahead of this log" probe:
// an offset beyond the file scans empty and echoes the offset back as
// validSize, rather than erroring or misparsing mid-frame bytes.
func TestScanFromPastEOF(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	writeLog(t, path, testRecords())
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	off := fi.Size() + 1000
	n, size, err := ScanFrom(path, off, func(i int, rec Record) error {
		t.Fatalf("unexpected record %d at offset past EOF", i)
		return nil
	})
	if err != nil || n != 0 || size != off {
		t.Fatalf("past EOF: n=%d size=%d err=%v, want 0/%d/nil", n, size, err, off)
	}
	// A missing file behaves the same way for any offset.
	n, size, err = ScanFrom(filepath.Join(t.TempDir(), "nope.wal"), 42, nil)
	if err != nil || n != 0 || size != 42 {
		t.Fatalf("missing file: n=%d size=%d err=%v, want 0/42/nil", n, size, err)
	}
}

// TestAppendBytesResume reopens a log at its valid size and checks the
// watermark is seeded from it, so offsets recorded before a restart
// keep meaning the same byte positions after it.
func TestAppendBytesResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	recs := testRecords()
	writeLog(t, path, recs[:3])
	_, valid, err := Scan(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(path, valid, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if l.AppendBytes() != valid {
		t.Fatalf("reopened AppendBytes = %d, want %d", l.AppendBytes(), valid)
	}
	if err := l.Append(recs[3]); err != nil {
		t.Fatal(err)
	}
	if l.AppendBytes() <= valid {
		t.Fatalf("AppendBytes did not advance past %d", valid)
	}
	after := l.AppendBytes()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if _, _, err := ScanFrom(path, valid, func(i int, rec Record) error {
		got = append(got, rec.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs[3:4]) {
		t.Fatalf("tail after resume: got %+v, want %+v", got, recs[3:4])
	}
	if fi, _ := os.Stat(path); fi.Size() != after {
		t.Fatalf("file size %d, AppendBytes %d", fi.Size(), after)
	}
}

// TestScanReusesPredecessorBuffer: a scan's allocations do not grow
// with the record count — every reference record's predecessors decode
// into one reused buffer — and a callback keeping rec.Clone() still
// sees each record's own predecessors afterwards.
func TestScanReusesPredecessorBuffer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	recs := []Record{RefRecord(run.Event{V: 0})}
	for v := 1; v < 2000; v++ {
		recs = append(recs, RefRecord(run.Event{V: graph.VertexID(v), Ref: spec.VertexRef{Graph: 1, V: 2},
			Preds: []graph.VertexID{graph.VertexID(v - 1), graph.VertexID(v / 2)}}))
	}
	writeLog(t, path, recs)
	allocs := testing.AllocsPerRun(3, func() {
		if n, _, err := Scan(path, func(int, Record) error { return nil }); err != nil || n != len(recs) {
			t.Fatalf("scan: n=%d err=%v", n, err)
		}
	})
	if allocs > 20 {
		t.Fatalf("scanning %d records took %.0f allocations, want a constant ≤ 20", len(recs), allocs)
	}
	var kept []Record
	if _, _, err := Scan(path, func(_ int, rec Record) error {
		kept = append(kept, rec.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kept, recs) {
		t.Fatal("cloned records differ from the appended ones")
	}
}
