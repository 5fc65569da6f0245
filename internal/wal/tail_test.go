package wal

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"wfreach/internal/core"
	"wfreach/internal/graph"
)

func tailRecord(v int) Record {
	return NamedRecord(core.NamedEvent{V: graph.VertexID(v), Name: "m", Preds: []graph.VertexID{graph.VertexID(v / 2)}})
}

// TestDurableSeq checks the committed sequence is exposed atomically
// and only advances on flush — appends alone stay invisible.
func TestDurableSeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	l, err := Open(path, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.DurableSeq(); got != 0 {
		t.Fatalf("fresh log DurableSeq = %d", got)
	}
	for i := 1; i <= 3; i++ {
		if err := l.Append(tailRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.DurableSeq(); got != 0 {
		t.Fatalf("unflushed appends visible: DurableSeq = %d", got)
	}
	if got := l.AppendSeq(); got != 3 {
		t.Fatalf("AppendSeq = %d, want 3", got)
	}
	ch := l.DurableAdvanced()
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableSeq(); got != 3 {
		t.Fatalf("after Flush DurableSeq = %d, want 3", got)
	}
	select {
	case <-ch:
	default:
		t.Fatal("DurableAdvanced channel not closed by Flush")
	}
}

// TestOpenSeedsSequence checks Open resumes the absolute numbering at
// the record count a prior Scan reported, so sequences are
// restart-stable.
func TestOpenSeedsSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	l, err := Open(path, 0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if err := l.Append(tailRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	n, size, err := Scan(path, nil)
	if err != nil || n != 4 {
		t.Fatalf("scan: %d records, err %v", n, err)
	}
	l2, err := Open(path, size, int64(n), false)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.AppendSeq() != 4 || l2.DurableSeq() != 4 {
		t.Fatalf("reopened log seqs = %d/%d, want 4/4", l2.AppendSeq(), l2.DurableSeq())
	}
	if err := l2.Append(tailRecord(5)); err != nil {
		t.Fatal(err)
	}
	if got := l2.AppendSeq(); got != 5 {
		t.Fatalf("append after reopen got seq %d, want 5", got)
	}
}

// TestTailerHistoryThenLive checks a tailer serves the committed
// history byte-for-byte, then blocks and picks up records as they
// commit, and ends with io.EOF when the log closes.
func TestTailerHistoryThenLive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	l, err := Open(path, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	appendOne := func(i int) {
		rec := tailRecord(i)
		frame, err := AppendFrame(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, frame)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 10; i++ {
		appendOne(i)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}

	tl, err := NewTailer(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	ctx := context.Background()

	// History: all ten, in order, identical bytes.
	for i := 0; i < 10; i++ {
		seq, frame, err := tl.Next(ctx, true)
		if err != nil {
			t.Fatal(err)
		}
		if seq != int64(i+1) || !bytes.Equal(frame, want[i]) {
			t.Fatalf("record %d: seq %d, frames equal %v", i, seq, bytes.Equal(frame, want[i]))
		}
	}
	if tl.Pending() {
		t.Fatal("caught-up tailer claims pending records")
	}

	// Live: commit two more while the tailer waits.
	go func() {
		time.Sleep(10 * time.Millisecond)
		appendOne(11)
		appendOne(12)
		_ = l.Flush()
		time.Sleep(10 * time.Millisecond)
		_ = l.Close()
	}()
	for i := 10; i < 12; i++ {
		seq, frame, err := tl.Next(ctx, true)
		if err != nil {
			t.Fatal(err)
		}
		if seq != int64(i+1) || !bytes.Equal(frame, want[i]) {
			t.Fatalf("live record %d: seq %d", i, seq)
		}
	}
	if _, _, err := tl.Next(ctx, true); !errors.Is(err, io.EOF) {
		t.Fatalf("tail past a closed log = %v, want EOF", err)
	}

	// The delivered frames really are the log's decoded records.
	var recs []Record
	if _, _, err := Scan(path, func(_ int, r Record) error { recs = append(recs, r.Clone()); return nil }); err != nil {
		t.Fatal(err)
	}
	dec := make([]Record, 0, len(want))
	for _, frame := range want {
		r, err := DecodeRecord(frame[FrameHeaderSize:])
		if err != nil {
			t.Fatal(err)
		}
		dec = append(dec, r)
	}
	if !reflect.DeepEqual(recs, dec) {
		t.Fatal("shipped frames diverge from the log's records")
	}
}

// TestTailerFromAndNoWait checks the start-sequence skip (including a
// start past the committed end) and the non-waiting catch-up mode.
func TestTailerFromAndNoWait(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	l, err := Open(path, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 6; i++ {
		if err := l.Append(tailRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	tl, err := NewTailer(l, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	var got []int64
	for {
		seq, _, err := tl.Next(ctx, false)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, seq)
	}
	if !reflect.DeepEqual(got, []int64{4, 5, 6}) {
		t.Fatalf("from=4 delivered %v", got)
	}

	// A start past the end: nothing without wait, delivery once the
	// log commits that far.
	future, err := NewTailer(l, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer future.Close()
	if _, _, err := future.Next(ctx, false); !errors.Is(err, io.EOF) {
		t.Fatalf("future start without wait = %v, want EOF", err)
	}
	go func() {
		for i := 7; i <= 8; i++ {
			_ = l.Append(tailRecord(i))
		}
		_ = l.Flush()
	}()
	seq, _, err := future.Next(ctx, true)
	if err != nil || seq != 8 {
		t.Fatalf("future start delivered seq %d, err %v, want 8", seq, err)
	}

	if _, err := NewTailer(l, 0); err == nil {
		t.Fatal("non-positive start sequence accepted")
	}
}

// TestTailerContext checks a waiting tailer honors cancellation.
func TestTailerContext(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	l, err := Open(path, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tl, err := NewTailer(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := tl.Next(ctx, true); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled wait = %v", err)
	}
}

// TestTailerCommitterWakeup checks the Committer's group-commit path
// wakes tailers too (it advances durability through the same hook).
func TestTailerCommitterWakeup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	l, err := Open(path, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tl, err := NewTailer(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	c := NewCommitter()
	go func() {
		time.Sleep(5 * time.Millisecond)
		_ = l.Append(tailRecord(1))
		_ = c.Commit(l, l.AppendSeq())
	}()
	seq, _, err := tl.Next(context.Background(), true)
	if err != nil || seq != 1 {
		t.Fatalf("committer-driven delivery: seq %d, err %v", seq, err)
	}
}

// TestTailerCorruptionBelowWatermark: damage below the committed
// watermark is a hard error, not a silent truncation.
func TestTailerCorruptionBelowWatermark(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	l, err := Open(path, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 2; i++ {
		if err := l.Append(tailRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte on disk behind the log's back.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[FrameHeaderSize] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	tl, err := NewTailer(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if _, _, err := tl.Next(context.Background(), false); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt committed record = %v, want ErrCorrupt", err)
	}
}
