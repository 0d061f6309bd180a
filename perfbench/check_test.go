package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"instrsample/internal/load"
	"instrsample/internal/service"
)

func testRefs(t *testing.T) *refs {
	t.Helper()
	return &refs{path: t.TempDir() + "/refs.json", m: map[string]refResult{
		refKey("db", 0.02): {Return: 42, Output: []int64{42}},
	}}
}

func TestCheckJob(t *testing.T) {
	r := testRefs(t)
	ok := &jobResult{Return: 42, Output: []int64{42}}
	if err := checkJob(r, "db", 0.02, false, ok); err != nil {
		t.Fatalf("matching result rejected: %v", err)
	}
	type oracle = struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	}
	for name, tc := range map[string]struct {
		verify bool
		res    *jobResult
	}{
		"wrong return":      {false, &jobResult{Return: 43, Output: []int64{42}}},
		"wrong output":      {false, &jobResult{Return: 42, Output: []int64{42, 1}}},
		"no result":         {false, nil},
		"verify, no oracle": {true, &jobResult{Return: 42, Output: []int64{42}}},
		"oracle violation":  {true, &jobResult{Return: 42, Output: []int64{42}, Oracle: &oracle{OK: false, Error: "P1"}}},
	} {
		if err := checkJob(r, "db", 0.02, tc.verify, tc.res); err == nil {
			t.Errorf("%s: not caught", name)
		}
	}
	if err := checkJob(r, "db", 0.03, false, ok); err == nil {
		t.Error("a result without a reference passed")
	}
}

// fakeDaemon answers the job API like isampd, returning wrongFor's job
// with a corrupted Return.
func fakeDaemon(t *testing.T, wrongFor float64) *httptest.Server {
	var mu sync.Mutex
	specs := map[string]service.JobSpec{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var s service.JobSpec
		if err := json.NewDecoder(r.Body).Decode(&s); err != nil {
			t.Error(err)
		}
		mu.Lock()
		id := fmt.Sprintf("job-%d", len(specs)+1)
		specs[id] = s
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q,"status":"queued"}`, id)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "event: done\ndata: {\"status\":\"done\"}\n\n")
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		s := specs[r.PathValue("id")]
		mu.Unlock()
		ret := int64(42)
		if s.Scale == wrongFor {
			ret = 41
		}
		now := time.Now()
		json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck // test server
			"status": "done", "created": now, "started": now, "finished": now,
			"result": map[string]any{"return": ret, "output": []int64{42}},
		})
	})
	return httptest.NewServer(mux)
}

// TestInjectedWrongResultIsCaught runs the client against a daemon that
// corrupts one job's result: the run must count it as failed and charge
// it the failed-op latency.
func TestInjectedWrongResultIsCaught(t *testing.T) {
	srv := fakeDaemon(t, 0.02)
	defer srv.Close()
	r := testRefs(t)
	r.m[refKey("db", 0.01)] = refResult{Return: 42, Output: []int64{42}}
	ops := []load.Op{
		{Index: 0, Spec: service.JobSpec{Bench: "db", Scale: 0.01}, ReuseOf: -1},
		{Index: 1, Spec: service.JobSpec{Bench: "db", Scale: 0.02}, ReuseOf: -1},
		{Index: 2, Spec: service.JobSpec{Bench: "db", Scale: 0.01}, ReuseOf: -1},
	}
	rn := &runner{refs: r, hc: newHTTPClient()}
	d := drive(context.Background(), rn.hc, driveConfig{base: srv.URL, ops: ops, minOps: len(ops)})
	res := &e2e{}
	rn.summarize(res, d)
	if res.Tally.Attempted != 3 || res.Tally.Done != 2 || res.Tally.Wrong != 1 || res.Tally.Failed() != 1 {
		t.Fatalf("tally %+v, want 3 attempted, 2 done, 1 wrong", res.Tally)
	}
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "op 1") {
		t.Errorf("failures %q, want op 1 named", res.Failures)
	}
	if res.JobTail.Value != failedOpsMs {
		t.Errorf("tail latency %g, want the wrong op charged %g ms", res.JobTail.Value, failedOpsMs)
	}
}
