package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"wfreach/client"
	"wfreach/internal/api"
	"wfreach/internal/integrity"
)

// TestFailedOpsFailTheRun checks that a run is not correct after any
// failed op: an integrity call the server answers with an error (here
// CodeNotDurable, what a session restored without a live chain
// answers), a chain head that differs from the one computed from the
// frames, and a reach batch that errors.
func TestFailedOpsFailTheRun(t *testing.T) {
	tr := tinyTrace(t, "BioAID", 5, 300)
	refuse := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(api.CodeNotDurable.HTTPStatus())
		json.NewEncoder(w).Encode(map[string]any{"error": api.Errorf(api.CodeNotDurable, "session has no live chain")})
	}
	wrongHead := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(api.SessionIntegrity{Session: "s", WALSeq: int64(tr.Len()), ChainHead: integrity.Head{}.String()})
	}
	ctx := context.Background()
	cases := []struct {
		name    string
		handler http.HandlerFunc
		op      func(r *Run, c *client.Client, s *session)
	}{
		{"integrity error", refuse, func(r *Run, c *client.Client, s *session) { r.checkIntegrity(ctx, c, []*session{s}) }},
		{"integrity head differs", wrongHead, func(r *Run, c *client.Client, s *session) { r.checkIntegrity(ctx, c, []*session{s}) }},
		{"reach error", refuse, func(r *Run, c *client.Client, s *session) { r.reach(ctx, c, s, rand.New(rand.NewSource(1))) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(tc.handler)
			defer srv.Close()
			s := newSession("s", 0, tr, NewOracle(tr, 8, rand.New(rand.NewSource(2))))
			s.acked.Store(int64(tr.Len()))
			r := &Run{}
			tc.op(r, newClient(srv.URL), s)
			if r.correct() || r.ops.failed() != 1 || r.ops.attempted.Load() != 1 {
				t.Errorf("correct=%v failed=%d attempted=%d, want a failed, incorrect run of one op",
					r.correct(), r.ops.failed(), r.ops.attempted.Load())
			}
		})
	}
}
