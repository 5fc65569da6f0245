package main

import (
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestTamperedWALIsRefused shows the restore-integrity guard is live:
// wfserve boots on a clean copy of a small data dir, and refuses a copy
// whose WAL has one CRC-fixed byte flip below the snapshot watermark.
func TestTamperedWALIsRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs wfserve")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "wfserve")
	if out, err := exec.Command("go", "build", "-o", bin, "wfreach/cmd/wfserve").CombinedOutput(); err != nil {
		t.Fatalf("build wfserve: %v\n%s", err, out)
	}
	tr := tinyTrace(t, "BioAID", 5, 2000)
	s := newSession("tiny", 0, tr, nil)
	pristine := filepath.Join(dir, "pristine")
	srv, err := Spawn(bin, pristine)
	if err != nil {
		t.Fatal(err)
	}
	defer KillAll()
	ctx := context.Background()
	r := &Run{}
	c := newClient(srv.URL)
	if err := r.create(ctx, c, s); err != nil {
		t.Fatal(err)
	}
	for int(s.acked.Load()) < tr.Len() {
		if _, err := r.send(ctx, c, s, 512); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Stop(); err != nil {
		t.Fatal(err)
	}

	clean := filepath.Join(dir, "clean")
	if err := copyDir(pristine, clean); err != nil {
		t.Fatal(err)
	}
	srv, err = Spawn(bin, clean)
	if err != nil {
		t.Fatalf("clean copy refused: %v", err)
	}
	st, err := newClient(srv.URL).Integrity(ctx, s.name)
	if err != nil {
		t.Fatal(err)
	}
	if want := s.chainHead(tr.Len()).String(); st.ChainHead != want {
		t.Fatalf("server chain head %s, computed %s", st.ChainHead, want)
	}
	if _, err := srv.Stop(); err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{0, tr.Len() / 2, tr.Len() - 1} {
		bad := filepath.Join(dir, fmt.Sprint("bad", k))
		if err := copyDir(pristine, bad); err != nil {
			t.Fatal(err)
		}
		if err := TamperWAL(filepath.Join(bad, s.name, "events.wal"), tr, k); err != nil {
			t.Fatal(err)
		}
		srv, err := Spawn(bin, bad)
		if err == nil {
			srv.Kill()
			t.Fatalf("wfserve booted with frame %d of the WAL rewritten", k)
		}
		if !strings.Contains(err.Error(), "integrity") {
			t.Fatalf("frame %d: refused, but not by the integrity check: %v", k, err)
		}
	}
}
