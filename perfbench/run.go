package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wfreach/client"
	"wfreach/internal/integrity"
)

// Per-request sizes shared by the workloads.
const (
	ingestBatch = 128 // events per ingest request
	reachPairs  = 64  // pairs per batch-reach request
	lineageLim  = 256 // ancestors per lineage page
	oracleN     = 32  // sampled vertices per session trace
)

// Run is one invocation's state: inputs, the operation ledger and the
// samples the end-to-end metrics are computed from.
type Run struct {
	cfg   Config
	dir   string // per-run scratch, removed at exit
	cache string // generated-trace cache, kept across runs
	rng   *rand.Rand

	ops Ops

	mu         sync.Mutex
	setupS     []float64
	ackMs      []float64
	reachUs    []float64
	lineageMs  []float64
	readyMs    []float64
	firstAckMs []float64
	lateMs     []float64
	notes      []string

	ingestEvents int64         // events acked in measured ingest phases
	ingestTime   time.Duration // wall time of those phases
	reachDone    int64         // verified pairs
	reachTime    time.Duration // time spent in verified reach calls
	reqEvents    int64         // events acked by measured ingest requests
	reqTime      time.Duration // summed duration of those requests

	loadgenStart time.Duration // benchmark CPU when the inputs were ready
	loadgenCPU   time.Duration // benchmark CPU over the measured phases

	serverCPU   time.Duration // wfserve CPU over measured phases
	serverRSSKB int64
	writeBytes  int64 // wfserve block writes over measured phases
	writeEvents int64 // events acked in those phases
	diskBytes   int64 // data dir size after the final clean shutdown
	diskEvents  int64 // events held in it

	// The traced run's inputs, recorded by the workload driver: every
	// session with the prefix its measured phase ingested, and the
	// session the restarts resumed.
	sessions []*session
	resume   *session
}

// Ops is the operation ledger: every request is one attempted op; a
// transport or server error and a wrong answer each fail it.
type Ops struct {
	attempted atomic.Int64
	errors    atomic.Int64
	wrong     atomic.Int64 // wrong answers, failed integrity checks, accepted tampered boots
}

func (o *Ops) failed() int64 { return o.errors.Load() + o.wrong.Load() }

// correct is false after any failed op: an error is as disqualifying as
// a wrong answer, since a call that errors is never verified and its
// latency is never sampled.
func (r *Run) correct() bool { return r.ops.failed() == 0 }

func (r *Run) add(dst *[]float64, v float64) {
	r.mu.Lock()
	*dst = append(*dst, v)
	r.mu.Unlock()
}

func (r *Run) note(format string, args ...any) {
	r.mu.Lock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// printNotes prints the notes taken since it last ran.
func (r *Run) printNotes() {
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	r.notes = nil
}

func (r *Run) fail(kind *atomic.Int64, format string, args ...any) {
	r.ops.attempted.Add(1)
	kind.Add(1)
	r.note(format, args...)
}

// session is one server session fed from one trace. A single goroutine
// writes it at a time; readers use acked, which only grows after the
// server acknowledged the prefix.
type session struct {
	name  string
	tr    *Trace
	or    *Oracle
	lane  int // the writer that fed it
	acked atomic.Int64

	// [base, measured) is what the measured ingest phase sent: the
	// events the traced run feeds through the write path.
	base, measured int

	headN int            // events folded into head
	head  integrity.Head // chain head over the first headN frames
	markN int            // a checkpoint of (headN, head) to rewind to
	mark  integrity.Head
}

func newSession(name string, lane int, tr *Trace, or *Oracle) *session {
	return &session{name: name, lane: lane, tr: tr, or: or}
}

// measuredAll marks every session's acked prefix as the measured one.
func measuredAll(ss []*session) {
	for _, s := range ss {
		s.measured = int(s.acked.Load())
	}
}

// chainHead is head(n) = SHA-256(head(n−1) ‖ frame(n)) over the first n
// frames sent, genesis zero — computed here from the frames, never
// taken from the server.
func (s *session) chainHead(n int) integrity.Head {
	if n < s.headN {
		s.headN, s.head = 0, integrity.Head{}
		if n >= s.markN {
			s.headN, s.head = s.markN, s.mark
		}
	}
	c := integrity.NewChainer()
	for ; s.headN < n; s.headN++ {
		s.head = c.Extend(s.head, s.tr.Frames[s.headN])
	}
	return s.head
}

// checkpoint remembers the current head, so rewinding to a later
// prefix does not rehash from genesis.
func (s *session) checkpoint() { s.markN, s.mark = s.headN, s.head }

func (r *Run) create(ctx context.Context, c *client.Client, s *session) error {
	r.ops.attempted.Add(1)
	if _, err := c.CreateSession(ctx, client.CreateSessionRequest{Name: s.name, Builtin: s.tr.Spec.Grammar}); err != nil {
		r.ops.errors.Add(1)
		return fmt.Errorf("create %s: %w", s.name, err)
	}
	return nil
}

// remove deletes s on the server; the deletion is one op.
func (r *Run) remove(ctx context.Context, c *client.Client, s *session) error {
	r.ops.attempted.Add(1)
	if err := c.DeleteSession(ctx, s.name); err != nil {
		r.ops.errors.Add(1)
		return fmt.Errorf("delete %s: %w", s.name, err)
	}
	return nil
}

// send posts the next n events of s in one binary-frame request and
// returns the time to the acknowledgement.
func (r *Run) send(ctx context.Context, c *client.Client, s *session, n int) (time.Duration, error) {
	from := int(s.acked.Load())
	to := min(from+n, s.tr.Len())
	t0 := time.Now()
	resp, err := c.IngestFrames(ctx, s.name, s.tr.Events[from:to])
	lat := time.Since(t0)
	r.ops.attempted.Add(1)
	if err == nil && resp.Applied != to-from {
		err = fmt.Errorf("applied %d of %d events", resp.Applied, to-from)
	}
	if err != nil {
		r.ops.errors.Add(1)
		return 0, fmt.Errorf("ingest %s: %w", s.name, err)
	}
	s.acked.Store(int64(to))
	return lat, nil
}

// booked records one measured ingest request's duration and events.
func (r *Run) booked(lat time.Duration, events int) {
	r.mu.Lock()
	r.reqTime += lat
	r.reqEvents += int64(events)
	r.mu.Unlock()
}

// inputsReady marks the end of input generation: what the benchmark
// process spends after it is load-generator CPU.
func (r *Run) inputsReady() { r.loadgenStart = selfCPU() }

// reach asks one verified batch of pairs over s's acked prefix and
// records its latency. It returns false when no sampled vertex is acked
// yet.
func (r *Run) reach(ctx context.Context, c *client.Client, s *session, rng *rand.Rand) bool {
	lat, asked := r.askReach(ctx, c, s, rng)
	if lat > 0 {
		r.mu.Lock()
		r.reachUs = append(r.reachUs, float64(lat.Nanoseconds())/1e3)
		r.reachDone += reachPairs
		r.reachTime += lat
		r.mu.Unlock()
	}
	return asked
}

// askReach asks and verifies one batch without recording its latency.
// lat is zero unless every answer was right.
func (r *Run) askReach(ctx context.Context, c *client.Client, s *session, rng *rand.Rand) (lat time.Duration, asked bool) {
	pairs, idx := s.or.Pairs(rng, reachPairs, int(s.acked.Load()))
	if pairs == nil {
		return 0, false
	}
	t0 := time.Now()
	ans, err := c.ReachBatch(ctx, s.name, pairs)
	lat = time.Since(t0)
	switch {
	case err != nil:
		r.fail(&r.ops.errors, "reach %s: %v", s.name, err)
	case s.or.Check(idx, ans) > 0:
		r.fail(&r.ops.wrong, "reach %s: %d wrong answers", s.name, s.or.Check(idx, ans))
	default:
		r.ops.attempted.Add(1)
		return lat, true
	}
	return 0, true
}

// lineage fetches and verifies the first page of a sampled acked
// vertex's provenance closure.
func (r *Run) lineage(ctx context.Context, c *client.Client, s *session, rng *rand.Rand) bool {
	x := s.or.AckedSample(rng, int(s.acked.Load()))
	if x < 0 {
		return false
	}
	t0 := time.Now()
	page, err := c.LineagePage(ctx, s.name, s.tr.Events[x].V, "", lineageLim)
	lat := time.Since(t0)
	want := s.or.Ancestors(x)
	more := len(want) > lineageLim
	want = want[:min(len(want), lineageLim)]
	switch {
	case err != nil:
		r.fail(&r.ops.errors, "lineage %s: %v", s.name, err)
	case !slices.Equal(page.Ancestors, want) || (page.NextCursor != "") != more:
		r.fail(&r.ops.wrong, "lineage %s of %d: page of %d ancestors differs from the oracle's", s.name, s.tr.Events[x].V, len(page.Ancestors))
	default:
		r.ops.attempted.Add(1)
		r.add(&r.lineageMs, float64(lat.Nanoseconds())/1e6)
	}
	return true
}

// checkIntegrity compares each session's chain head and sequence, as
// the server reports them, with the head computed from the frames sent.
func (r *Run) checkIntegrity(ctx context.Context, c *client.Client, ss []*session) {
	for _, s := range ss {
		n := int(s.acked.Load())
		st, err := c.Integrity(ctx, s.name)
		switch {
		case err != nil:
			r.fail(&r.ops.errors, "integrity %s: %v", s.name, err)
		case st.WALSeq != int64(n) || st.ChainHead != s.chainHead(n).String():
			r.fail(&r.ops.wrong, "integrity %s: server head %s at seq %d, expected %s at %d", s.name, st.ChainHead, st.WALSeq, s.chainHead(n), n)
		default:
			r.ops.attempted.Add(1)
		}
	}
}

// newClient is the SDK client every phase uses: retries off, so each
// failure is counted exactly once.
func newClient(url string) *client.Client {
	return client.New(url, client.WithRetry(0, 0))
}

// boot spawns wfserve on dir and waits for the first verified reach
// answer on probe, recording and returning the time from spawn to it
// (restart_ready_ms).
func (r *Run) boot(ctx context.Context, dir string, probe *session) (*Server, *client.Client, time.Duration, error) {
	srv, err := Spawn(r.cfg.WFServe, dir)
	if err != nil {
		r.ops.attempted.Add(1)
		r.ops.errors.Add(1)
		return nil, nil, 0, err
	}
	c := newClient(srv.URL)
	// The first answer is part of the restart, not a reach sample.
	if lat, _ := r.askReach(ctx, c, probe, rand.New(rand.NewSource(r.rng.Int63()))); lat == 0 {
		srv.Kill()
		return nil, nil, 0, fmt.Errorf("first reach on restarted %s failed", probe.name)
	}
	ready := time.Since(srv.Start)
	r.add(&r.readyMs, ms(ready))
	return srv, c, ready, nil
}

// stop shuts a measured server down cleanly and books its accounting.
func (r *Run) stop(srv *Server, ackedEvents int64) error {
	u, err := srv.Stop()
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.serverCPU += u.CPU
	r.serverRSSKB = max(r.serverRSSKB, u.MaxRSSKB)
	r.writeBytes += u.WriteBytes
	r.writeEvents += ackedEvents
	r.mu.Unlock()
	return nil
}

// restartCycles restarts the server on dir `cycles` times: each cycle
// boots, waits for the first verified answer, checks every session's
// chain head, acknowledges one resumed batch of resume (whose trace
// must have events left), then shuts down cleanly. A non-nil last runs
// in the last cycle, before the resumed batch, so its reads do not run
// beside the collection of the labeler replay's garbage.
// restart_first_ack_ms is the time to the first answer plus the resumed
// batch's, so what runs in between stays out of it.
func (r *Run) restartCycles(ctx context.Context, dir string, ss []*session, resume *session, cycles int, last func(*client.Client)) error {
	for cycle := range cycles {
		srv, c, ready, err := r.boot(ctx, dir, ss[0])
		if err != nil {
			return err
		}
		r.checkIntegrity(ctx, c, ss)
		if last != nil && cycle == cycles-1 {
			last(c)
		}
		lat, err := r.send(ctx, c, resume, ingestBatch)
		if err != nil {
			srv.Kill()
			return err
		}
		r.add(&r.firstAckMs, ms(ready+lat))
		if err := r.stop(srv, ingestBatch); err != nil {
			return err
		}
	}
	return nil
}

// recordDisk books the data directory size after the final clean
// shutdown.
func (r *Run) recordDisk(dir string, ss []*session) error {
	n, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.diskBytes = n
	r.diskEvents = 0
	for _, s := range ss {
		r.diskEvents += s.acked.Load()
	}
	return nil
}

// endToEnd computes the end-to-end metrics from the recorded samples.
func (r *Run) endToEnd() map[string]Metric {
	ack, reach, lin := SummarizeRun(r.ackMs), SummarizeRun(r.reachUs), SummarizeRun(r.lineageMs)
	// Pairs per second inside reach requests, per block of at least 32
	// requests, with the median over the blocks: a mean over the whole
	// sample would let one stall set the figure (see SummarizeRun).
	var rates []float64
	for _, b := range blocks(r.reachUs, 32) {
		sum := 0.0
		for _, us := range b {
			sum += us
		}
		rates = append(rates, float64(reachPairs*len(b))/(sum/1e6))
	}
	r.note("ingest ack ms %v; reach batch us %v; lineage page ms %v", ack, reach, lin)
	r.note("restart ready ms %v; first ack ms %v", Summarize(r.readyMs), Summarize(r.firstAckMs))
	r.note("writer late ms %v (after the batch was due)", Summarize(r.lateMs))
	m := map[string]Metric{
		"setup_s":                    {median(r.setupS), "s"},
		"ingest_events_per_s":        {float64(r.ingestEvents) / r.ingestTime.Seconds(), "1/s"},
		"ingest_ack_p50_ms":          {ack.P50, "ms"},
		"ingest_ack_p99_ms":          {ack.Tail, "ms"},
		"reach_pairs_per_s":          {median(rates), "1/s"},
		"reach_batch_p50_us":         {reach.P50, "us"},
		"reach_batch_p99_us":         {reach.Tail, "us"},
		"lineage_page_p50_ms":        {lin.P50, "ms"},
		"lineage_page_p99_ms":        {lin.Tail, "ms"},
		"restart_ready_ms":           {median(r.readyMs), "ms"},
		"restart_first_ack_ms":       {median(r.firstAckMs), "ms"},
		"server_rss_peak_mb":         {float64(r.serverRSSKB) / 1024, "MB"},
		"disk_bytes_per_event":       {float64(r.diskBytes) / float64(max(r.diskEvents, 1)), "B"},
		"disk_write_bytes_per_event": {float64(r.writeBytes) / float64(max(r.writeEvents, 1)), "B"},
	}
	return m
}
