package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Server is one wfserve child process on a data directory, started with
// the shipped defaults (fsync on, a label snapshot every 4096 events)
// on an ephemeral loopback port.
type Server struct {
	URL   string
	Start time.Time // when the process was spawned

	cmd    *exec.Cmd
	stderr *tailBuffer
	done   chan struct{} // closed once the process has been reaped
	err    error         // Wait's result, valid after done
}

// Usage is what the kernel accounted to a reaped wfserve process.
type Usage struct {
	CPU        time.Duration // user + system
	MaxRSSKB   int64         // peak resident set (VmHWM)
	WriteBytes int64         // bytes sent to the block layer (write_bytes of /proc/<pid>/io)
}

// live tracks running servers so a failing run can stop them all.
var live struct {
	sync.Mutex
	m map[*Server]bool
}

// Spawn starts wfserve on dataDir and waits until it listens. A process
// that exits first — a refused boot — is reaped and reported as an
// error carrying its stderr tail.
func Spawn(bin, dataDir string) (*Server, error) {
	s := &Server{stderr: &tailBuffer{max: 16 << 10}, done: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dataDir)
	s.cmd.Stderr = s.stderr
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s.Start = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn wfserve: %w", err)
	}
	live.Lock()
	if live.m == nil {
		live.m = map[*Server]bool{}
	}
	live.m[s] = true
	live.Unlock()

	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "wfserve: listening on "); ok {
				addr <- rest
			}
		}
		// Drain to EOF so the child never blocks on a full pipe, then reap.
		_, _ = io.Copy(io.Discard, stdout)
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	select {
	case u := <-addr:
		s.URL = u
		return s, nil
	case <-s.done:
		s.forget()
		return nil, fmt.Errorf("wfserve exited before listening (%v): %s", s.err, s.stderr.String())
	case <-time.After(120 * time.Second):
		s.Kill()
		return nil, fmt.Errorf("wfserve did not listen within 120s: %s", s.stderr.String())
	}
}

func (s *Server) forget() {
	live.Lock()
	delete(live.m, s)
	live.Unlock()
}

// Stop sends SIGTERM — the clean shutdown that drains requests, closes
// every WAL and writes each session's final snapshot — and waits for
// the process to exit, returning its kernel accounting.
func (s *Server) Stop() (Usage, error) {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(90 * time.Second):
		s.Kill()
		return Usage{}, fmt.Errorf("wfserve did not exit within 90s of SIGTERM: %s", s.stderr.String())
	}
	s.forget()
	if s.err != nil {
		return Usage{}, fmt.Errorf("wfserve exit: %v: %s", s.err, s.stderr.String())
	}
	ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return Usage{}, errors.New("no rusage for wfserve")
	}
	return Usage{
		CPU:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		MaxRSSKB:   ru.Maxrss,
		WriteBytes: ru.Oublock * 512,
	}, nil
}

// Kill stops the process without a clean shutdown and reaps it.
func (s *Server) Kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
	s.forget()
}

// KillAll kills every server still running; the exit path of a failed
// run.
func KillAll() {
	live.Lock()
	servers := make([]*Server, 0, len(live.m))
	for s := range live.m {
		servers = append(servers, s)
	}
	live.Unlock()
	for _, s := range servers {
		s.Kill()
	}
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	b   []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.b = append(t.b, p...)
	if len(t.b) > t.max {
		t.b = append(t.b[:0], t.b[len(t.b)-t.max:]...)
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.b))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			n += fi.Size()
		}
		return err
	})
	return n, err
}

// copyDir copies a data directory to dst, which must not exist.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return writeSynced(target, data)
	})
}

// writeSynced writes and fsyncs a file, so that the benchmark's own
// writes are on disk before the next timed phase instead of being
// written back inside it.
func writeSynced(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
