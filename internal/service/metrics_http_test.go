package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"wfreach/internal/gen"
)

// parseProm is a strict in-test reader of the Prometheus text format:
// families must be announced by HELP and TYPE before their samples,
// and every sample line must end in a parseable float.
func parseProm(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	announced := make(map[string]bool)
	for ln, line := range strings.Split(body, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			fields := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(fields) != 2 || fields[1] == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			announced[fields[0]] = true
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		default:
			cut := strings.LastIndexByte(line, ' ')
			if cut <= 0 {
				t.Fatalf("line %d: sample without value: %q", ln+1, line)
			}
			v, err := strconv.ParseFloat(line[cut+1:], 64)
			if err != nil {
				t.Fatalf("line %d: bad value: %q: %v", ln+1, line, err)
			}
			base := line[:cut]
			if i := strings.IndexByte(base, '{'); i >= 0 {
				base = base[:i]
			}
			base = strings.TrimSuffix(strings.TrimSuffix(base, "_sum"), "_count")
			if !announced[base] {
				t.Fatalf("line %d: sample %q before its TYPE line", ln+1, line)
			}
			out[line[:cut]] = v
		}
	}
	return out
}

// scrapeMetrics GETs /v1/metrics and parses it strictly.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("scrape content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseProm(t, string(raw))
}

// TestMetricsEndpointUnderConcurrentIngest scrapes /v1/metrics in a
// tight loop while a writer streams events into a session: every
// scrape must be well-framed, ingest counters must be monotonic, and
// ingest must keep making progress between scrapes (a scrape holds no
// lock an event append waits on). Run under -race in CI.
func TestMetricsEndpointUnderConcurrentIngest(t *testing.T) {
	srv := newTestServer(t)
	if code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions",
		CreateRequest{Name: "m", Builtin: "RunningExample"}, nil); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	g := compileBuiltin(t, "RunningExample")
	events, _, err := gen.GenerateEvents(g, gen.Options{TargetSize: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	wire := make([]WireEvent, len(events))
	for i, ev := range events {
		wire[i] = ToWire(ev)
	}

	// Single writer (sessions are single-writer); errors come back on
	// the channel because t.Fatal must not fire off the test goroutine.
	writerDone := make(chan error, 1)
	go func() {
		const batch = 64
		for lo := 0; lo < len(wire); lo += batch {
			hi := min(lo+batch, len(wire))
			b, err := json.Marshal(EventsRequest{Events: wire[lo:hi]})
			if err != nil {
				writerDone <- err
				return
			}
			resp, err := http.Post(srv.URL+"/v1/sessions/m/events", "application/json", bytes.NewReader(b))
			if err != nil {
				writerDone <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				writerDone <- err
				return
			}
		}
		writerDone <- nil
	}()

	scrapeOnce := func() map[string]float64 { return scrapeMetrics(t, srv.URL) }

	const key = `wf_ingest_events_total{session="m"}`
	var last float64
	scrapes := 0
	for done := false; !done; {
		select {
		case err := <-writerDone:
			if err != nil {
				t.Fatalf("writer: %v", err)
			}
			done = true
		default:
			got := scrapeOnce()
			if got[key] < last {
				t.Fatalf("ingest counter went backwards: %g after %g", got[key], last)
			}
			last = got[key]
			scrapes++
		}
	}

	final := scrapeOnce()
	if final[key] != float64(len(wire)) {
		t.Fatalf("server counted %g ingested events, sent %d", final[key], len(wire))
	}
	if scrapes == 0 {
		t.Fatal("never scraped concurrently with ingest")
	}
	// The families the dashboards and CI drills key on must exist on
	// every node from the first scrape, whatever the topology.
	for _, name := range []string{
		"wf_sessions",
		"wf_wal_appends_total",
		"wf_wal_commit_seconds_count",
		"wf_snapshot_writes_total",
		"wf_replica_lag_events",
		"wf_cluster_moves_total",
		"wf_cluster_rejections_total",
		"wf_chain_verify_frames_total",
	} {
		found := false
		for k := range final {
			if k == name || strings.HasPrefix(k, name+"{") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("scrape missing family %s", name)
		}
	}
	if final["wf_sessions"] != 1 {
		t.Fatalf("wf_sessions = %g, want 1", final["wf_sessions"])
	}
}

// TestLabelerReplayMetrics: an arena restore with an empty WAL tail
// defers the labeler replay to the first ingest. The scrape shows the
// session pending until that ingest, then the replayed record count
// and one replay duration sample; deleting a still-pending session
// also takes it out of the pending gauge.
func TestLabelerReplayMetrics(t *testing.T) {
	dir := t.TempDir()
	g := compileBuiltin(t, "BioAID")
	events, _ := genEvents(t, g, 300, 21)
	cut := len(events) / 2

	reg := durableReg(t, dir, DurableOptions{SnapshotEvery: 1 << 20})
	s, err := reg.Create("lazy", g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, events[:cut], 41)
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	restore := func() (*Registry, *httptest.Server) {
		t.Helper()
		reg := durableReg(t, dir, DurableOptions{SnapshotEvery: 1 << 20})
		if _, err := reg.Restore(dir); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewHandler(reg))
		t.Cleanup(srv.Close)
		return reg, srv
	}
	check := func(m map[string]float64, pending, records, replays float64) {
		t.Helper()
		for name, want := range map[string]float64{
			"wf_sessions_replay_pending":      pending,
			"wf_labeler_replay_records_total": records,
			"wf_labeler_replay_seconds_count": replays,
		} {
			if got, ok := m[name]; !ok || got != want {
				t.Errorf("%s = %g (present %v), want %g", name, got, ok, want)
			}
		}
	}

	reg, srv := restore()
	check(scrapeMetrics(t, srv.URL), 1, 0, 0)
	wire := make([]WireEvent, len(events)-cut)
	for i, ev := range events[cut:] {
		wire[i] = ToWire(ev)
	}
	if code, raw := doJSON(t, "POST", srv.URL+"/v1/sessions/lazy/events", EventsRequest{Events: wire}, nil); code != http.StatusOK {
		t.Fatalf("ingest after restore: %d %s", code, raw)
	}
	check(scrapeMetrics(t, srv.URL), 0, float64(cut), 1)
	srv.Close()
	if err := reg.Close(); err != nil { // final snapshot: the next restore defers again
		t.Fatal(err)
	}

	reg, srv = restore()
	defer reg.Close()
	check(scrapeMetrics(t, srv.URL), 1, 0, 0)
	if code, raw := doJSON(t, "DELETE", srv.URL+"/v1/sessions/lazy", nil, nil); code != http.StatusNoContent && code != http.StatusOK {
		t.Fatalf("delete: %d %s", code, raw)
	}
	check(scrapeMetrics(t, srv.URL), 0, 0, 0)
}
