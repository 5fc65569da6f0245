package loadmatrix

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wfreach/client"
	"wfreach/internal/gen"
	"wfreach/internal/graph"
	"wfreach/internal/run"
	"wfreach/internal/service"
	"wfreach/internal/spec"
)

// RunOptions configures a harness run.
type RunOptions struct {
	// Out receives human-readable progress lines; nil discards them.
	Out io.Writer
	// Dir is the scratch directory for durable topologies; empty uses
	// a fresh os.MkdirTemp that the run deletes when it finishes.
	Dir string
}

func (o RunOptions) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

// ScenarioResult is one cell of the report: the scenario's bound
// dimensions, what it measured, and how its SLO gates came out.
type ScenarioResult struct {
	Name      string  `json:"name"`
	Workload  string  `json:"workload"`
	Kind      string  `json:"kind"`
	Topology  string  `json:"topology"`
	Transport string  `json:"transport"`
	Sessions  int     `json:"sessions"`
	Mix       string  `json:"mix"`
	SLO       SLO     `json:"slo"`
	Metrics   Metrics `json:"metrics"`
	// ServerMetrics holds the scenario's server-side truth: the change
	// in every additive /v1/metrics series over the run, summed across
	// the topology's nodes. Quantile series (not additive) and series
	// that did not move are omitted; absent entirely on scrape failure
	// and in reports written before the field existed.
	ServerMetrics map[string]float64 `json:"server_metrics,omitempty"`
	Violations    []Violation        `json:"violations,omitempty"`
	Pass          bool               `json:"pass"`
}

// Report is the machine-readable outcome of a matrix run.
type Report struct {
	Name       string           `json:"name"`
	Scenarios  []ScenarioResult `json:"scenarios,omitempty"`
	Soak       *SoakResult      `json:"soak,omitempty"`
	Passed     int              `json:"passed"`
	Failed     int              `json:"failed"`
	Pass       bool             `json:"pass"`
	ElapsedSec float64          `json:"elapsed_sec"`
}

// Run expands the matrix and drives every scenario — sequentially, so
// scenarios do not distort each other's latencies — then the soak if
// one is declared. The returned error covers harness failures (a
// topology that would not start, a create that errored); SLO
// violations are not errors, they are the report's Pass=false.
func Run(ctx context.Context, m *Matrix, opts RunOptions) (*Report, error) {
	scratch := opts.Dir
	if scratch == "" {
		dir, err := os.MkdirTemp("", "loadmatrix-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		scratch = dir
	}

	rep := &Report{Name: m.Name, Pass: true}
	start := time.Now()
	scenarios := m.Expand()
	for i, sc := range scenarios {
		dir := fmt.Sprintf("%s/sc%d", scratch, i)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		fmt.Fprintf(opts.out(), "[%d/%d] %s ...\n", i+1, len(scenarios), sc.Name)
		met, srv, err := runScenario(ctx, sc, m.Defaults, dir)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		vs := Evaluate(sc.SLO, met)
		res := ScenarioResult{
			Name: sc.Name, Workload: sc.Workload.Name, Kind: sc.Workload.Kind,
			Topology: sc.Topology, Transport: sc.Transport,
			Sessions: sc.Sessions, Mix: sc.Mix.Name,
			SLO: sc.SLO, Metrics: met, ServerMetrics: srv,
			Violations: vs, Pass: len(vs) == 0,
		}
		rep.Scenarios = append(rep.Scenarios, res)
		if res.Pass {
			rep.Passed++
			fmt.Fprintf(opts.out(), "  ok   %.0f events/sec, ingest p99 %.0fµs, query p99 %.0fµs\n",
				met.EventsPerSec, met.IngestP99US, met.QueryP99US)
		} else {
			rep.Failed++
			rep.Pass = false
			for _, v := range vs {
				fmt.Fprintf(opts.out(), "  FAIL %s\n", v.Reason)
			}
		}
	}

	if m.Soak != nil {
		sr, err := runSoak(ctx, m, opts, scratch)
		if err != nil {
			return nil, fmt.Errorf("soak: %w", err)
		}
		rep.Soak = sr
		if !sr.Pass {
			rep.Pass = false
		}
	}
	rep.ElapsedSec = time.Since(start).Seconds()
	return rep, nil
}

// sessionLoad is one session's generated ground truth.
type sessionLoad struct {
	name   string
	events []run.Event
	oracle *run.Run
}

// generateLoads builds the per-session event streams and oracles for
// a workload, one distinct seed per session.
func generateLoads(w Workload, sessions int, seed int64, prefix string) ([]sessionLoad, error) {
	loads := make([]sessionLoad, sessions)
	var g *spec.Grammar
	if w.Kind == "grammar" {
		s, ok := service.Builtin(w.Spec)
		if !ok {
			return nil, fmt.Errorf("unknown builtin %q", w.Spec)
		}
		var err error
		if g, err = spec.Compile(s); err != nil {
			return nil, err
		}
	}
	for i := range loads {
		name := fmt.Sprintf("%s-%d", prefix, i)
		switch w.Kind {
		case "grammar":
			events, r, err := gen.GenerateEvents(g, gen.Options{TargetSize: w.Size, Seed: seed + int64(i)})
			if err != nil {
				return nil, err
			}
			loads[i] = sessionLoad{name: name, events: events, oracle: r}
		case "agent":
			tr, err := gen.GenerateAgentTrace(gen.AgentOptions{
				TargetSize: w.Size, Seed: seed + int64(i),
				MaxDepth: w.Depth, MaxFanout: w.Fanout, MaxRetries: w.Retries,
			})
			if err != nil {
				return nil, err
			}
			loads[i] = sessionLoad{name: name, events: tr.Events, oracle: tr.Run}
		default:
			return nil, fmt.Errorf("unknown workload kind %q", w.Kind)
		}
	}
	return loads, nil
}

// builtinFor is the session's server-side specification: agent
// workloads replay the Agent builtin.
func (w Workload) builtinFor() string {
	if w.Kind == "agent" {
		return "Agent"
	}
	return w.Spec
}

// ingestVia sends one batch over the scenario's transport.
func ingestVia(ctx context.Context, transport string, d driver, name string, events []run.Event) error {
	wire := make([]client.Event, len(events))
	for i, ev := range events {
		wire[i] = service.ToWire(ev)
	}
	var err error
	if transport == "json" {
		_, err = d.Ingest(ctx, name, wire)
	} else {
		_, err = d.IngestFrames(ctx, name, wire)
	}
	return err
}

// lagSampler polls the primary and follower replication status and
// records the worst per-session lag (committed minus applied WAL
// sequence) across the run's sessions.
type lagSampler struct {
	primary, follower *client.Client
	names             map[string]bool
	mu                sync.Mutex
	samples           []int64
}

func (ls *lagSampler) once(ctx context.Context) (int64, bool) {
	pst, err := ls.primary.ReplicationStatus(ctx)
	if err != nil {
		return 0, false
	}
	fst, err := ls.follower.ReplicationStatus(ctx)
	if err != nil {
		return 0, false
	}
	applied := make(map[string]int64, len(fst.Sessions))
	for _, s := range fst.Sessions {
		applied[s.Name] = s.WALSeq
	}
	var worst int64
	for _, s := range pst.Sessions {
		if !ls.names[s.Name] {
			continue
		}
		if lag := s.WALSeq - applied[s.Name]; lag > worst {
			worst = lag
		}
	}
	return worst, true
}

// waitCaughtUp blocks until the follower drains to the primary.
func (ls *lagSampler) waitCaughtUp(ctx context.Context, timeout time.Duration) (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(timeout)
	for {
		worst, ok := ls.once(ctx)
		if ok && worst <= 0 {
			return time.Since(start), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("replica never caught up (still %d events behind after %v)", worst, timeout)
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// scrapeNodes sums one /v1/metrics scrape across every node of a
// topology. A node that fails to scrape voids the whole cut (nil) —
// a partial sum would silently undercount.
func scrapeNodes(ctx context.Context, nodes []*client.Client) map[string]float64 {
	sum := make(map[string]float64)
	for _, c := range nodes {
		vals, err := c.Metrics(ctx)
		if err != nil {
			return nil
		}
		for k, v := range vals {
			sum[k] += v
		}
	}
	return sum
}

// serverDelta subtracts two summed scrapes, keeping series that moved.
// Quantile samples are dropped: a quantile is a point estimate, and
// neither its difference nor its cross-node sum means anything.
func serverDelta(before, after map[string]float64) map[string]float64 {
	if before == nil || after == nil {
		return nil
	}
	out := make(map[string]float64, len(after))
	for k, v := range after {
		if strings.Contains(k, `quantile="`) {
			continue
		}
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

func runScenario(ctx context.Context, sc Scenario, def Defaults, scratch string) (Metrics, map[string]float64, error) {
	t, err := launchTopology(sc.Topology, scratch)
	if err != nil {
		return Metrics{}, nil, err
	}
	defer t.Close()

	loads, err := generateLoads(sc.Workload, sc.Sessions, sc.Seed, "lm")
	if err != nil {
		return Metrics{}, nil, err
	}
	for _, l := range loads {
		if _, err := t.write.CreateSession(ctx, client.CreateSessionRequest{
			Name: l.name, Builtin: sc.Workload.builtinFor(),
		}); err != nil {
			return Metrics{}, nil, fmt.Errorf("create session %s: %w", l.name, err)
		}
	}
	before := scrapeNodes(ctx, t.scrapers)

	var (
		wg         sync.WaitGroup
		ingested   atomic.Int64
		queried    atomic.Int64
		lineages   atomic.Int64
		queryErrs  atomic.Int64
		mismatches atomic.Int64
		ingestHist Hist
		queryHist  Hist
		errMu      sync.Mutex
		firstErr   error
	)
	setErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	var ls *lagSampler
	lagStop := make(chan struct{})
	var lagWG sync.WaitGroup
	if t.hasReplica() {
		names := make(map[string]bool, len(loads))
		for _, l := range loads {
			names[l.name] = true
		}
		ls = &lagSampler{primary: t.primary, follower: t.follower, names: names}
		lagWG.Add(1)
		go func() {
			defer lagWG.Done()
			ticker := time.NewTicker(50 * time.Millisecond)
			defer ticker.Stop()
			for {
				select {
				case <-lagStop:
					return
				case <-ticker.C:
				}
				if lag, ok := ls.once(ctx); ok {
					ls.mu.Lock()
					ls.samples = append(ls.samples, lag)
					ls.mu.Unlock()
				}
			}
		}()
	}

	start := time.Now()
	for i := range loads {
		l := loads[i]
		watermark := new(atomic.Int64)
		done := make(chan struct{})

		wg.Add(1)
		go func() { // single writer per session
			defer wg.Done()
			defer close(done)
			for lo := 0; lo < len(l.events); lo += sc.Batch {
				hi := min(lo+sc.Batch, len(l.events))
				t0 := time.Now()
				err := ingestVia(ctx, sc.Transport, t.write, l.name, l.events[lo:hi])
				ingestHist.Add(time.Since(t0))
				if err != nil {
					setErr(fmt.Errorf("ingest %s at %d: %w", l.name, lo, err))
					return
				}
				ingested.Add(int64(hi - lo))
				watermark.Store(int64(hi))
			}
		}()

		for ri := 0; ri < sc.Mix.Readers; ri++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				// A reader makes at least one query once the writer has
				// published something, so a writer that finishes before the
				// reader first wakes cannot leave the query gates without
				// samples.
				asked := false
				for n := 0; ; n++ {
					select {
					case <-done:
						if asked || watermark.Load() < 2 {
							return
						}
					default:
					}
					wm := watermark.Load()
					if wm < 2 {
						time.Sleep(time.Millisecond)
						continue
					}
					if le := sc.Mix.LineageEvery; le > 0 && n%le == le-1 {
						v := int32(l.events[rng.Int63n(wm)].V)
						t0 := time.Now()
						_, err := t.read.Lineage(ctx, l.name, v)
						queryHist.Add(time.Since(t0))
						asked = true
						if err != nil {
							queryErrs.Add(1)
							time.Sleep(time.Millisecond) // a lagging replica is not a spin target
							continue
						}
						lineages.Add(1)
						queried.Add(1)
						continue
					}
					pairs := make([]client.ReachPair, sc.Mix.ReachBatch)
					for pi := range pairs {
						pairs[pi] = client.ReachPair{
							From: int32(l.events[rng.Int63n(wm)].V),
							To:   int32(l.events[rng.Int63n(wm)].V),
						}
					}
					t0 := time.Now()
					answers, err := t.read.ReachBatch(ctx, l.name, pairs)
					queryHist.Add(time.Since(t0))
					asked = true
					if err != nil {
						queryErrs.Add(1)
						time.Sleep(time.Millisecond) // session not yet on the replica, most likely
						continue
					}
					for _, ans := range answers {
						if ans.Code != "" {
							// On a replica an unlabeled vertex usually just
							// means lag — the pair trails the primary's
							// acknowledged prefix.
							queryErrs.Add(1)
							continue
						}
						queried.Add(1)
						if sc.Verify && ans.Reachable != l.oracle.Reaches(graph.VertexID(ans.From), graph.VertexID(ans.To)) {
							mismatches.Add(1)
							setErr(fmt.Errorf("query mismatch: %s reach(%d,%d)=%v", l.name, ans.From, ans.To, ans.Reachable))
						}
					}
				}
			}(int64(i*sc.Mix.Readers+ri) ^ sc.Seed)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	met := Metrics{
		ElapsedSec:       elapsed.Seconds(),
		IngestEvents:     ingested.Load(),
		EventsPerSec:     float64(ingested.Load()) / elapsed.Seconds(),
		IngestP50US:      float64(ingestHist.Quantile(0.50)) / 1e3,
		IngestP95US:      float64(ingestHist.Quantile(0.95)) / 1e3,
		IngestP99US:      float64(ingestHist.Quantile(0.99)) / 1e3,
		Queries:          queried.Load(),
		LineageQueries:   lineages.Load(),
		QueryErrors:      queryErrs.Load(),
		QueriesPerSec:    float64(queried.Load()) / elapsed.Seconds(),
		QueryP50US:       float64(queryHist.Quantile(0.50)) / 1e3,
		QueryP95US:       float64(queryHist.Quantile(0.95)) / 1e3,
		QueryP99US:       float64(queryHist.Quantile(0.99)) / 1e3,
		VerifyChecked:    sc.Verify,
		VerifyMismatches: mismatches.Load(),
		HasReplica:       t.hasReplica(),
	}

	if ls != nil {
		close(lagStop)
		lagWG.Wait()
		// A scenario shorter than the sampling period would otherwise
		// record nothing and trip the no-samples gate: always close with
		// one final sample of the post-ingest lag.
		if lag, ok := ls.once(ctx); ok {
			ls.mu.Lock()
			ls.samples = append(ls.samples, lag)
			ls.mu.Unlock()
		}
		catchup, err := ls.waitCaughtUp(ctx, 2*time.Minute)
		if err != nil {
			return met, nil, err
		}
		met.CatchupSec = catchup.Seconds()
		ls.mu.Lock()
		sort.Slice(ls.samples, func(i, j int) bool { return ls.samples[i] < ls.samples[j] })
		met.ReplicaLagSamples = len(ls.samples)
		if n := len(ls.samples); n > 0 {
			met.ReplicaLagMaxEvents = ls.samples[n-1]
		}
		ls.mu.Unlock()
	}

	if firstErr != nil && mismatches.Load() == 0 {
		// Mismatches surface through the verify gate; anything else —
		// an ingest error, a broken topology — is a harness failure.
		return met, nil, firstErr
	}

	// Server-side truth: scrape again before sessions are torn down, so
	// the deltas still carry the per-session ingest series.
	srv := serverDelta(before, scrapeNodes(ctx, t.scrapers))

	for _, l := range loads {
		if err := t.write.DeleteSession(ctx, l.name); err != nil {
			return met, srv, fmt.Errorf("cleanup %s: %w", l.name, err)
		}
	}
	return met, srv, nil
}
