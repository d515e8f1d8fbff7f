package service_test

// The /v1 HTTP surface is served the way the daemon serves it: through
// service.NewHandler over a P=1 shard.Router, the only service.API
// implementation. A P=1 router is one scheduling loop on the whole
// fleet, so these tests see exactly that loop's behaviour, plus the
// shard="0" label the router stamps on every series.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dollymp/internal/admission"
	"dollymp/internal/cluster"
	"dollymp/internal/metrics"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/service"
	"dollymp/internal/shard"
	"dollymp/internal/trace"
	"dollymp/internal/workload"
)

var testJob = service.TestJob

// newTestRouter builds a stopped P=1 router over the in-package tests'
// fleet and fifo policy, with an optional edge-admission policy.
func newTestRouter(t *testing.T, queueCap int, adm admission.Policy) *shard.Router {
	t.Helper()
	r, err := shard.New(shard.Config{
		Fleet:         cluster.Uniform(8, resources.Cores(8, 16)),
		Shards:        1,
		NewScheduler:  func(int) (sched.Scheduler, error) { return service.FIFO{}, nil },
		Seed:          1,
		Deterministic: true,
		QueueCap:      queueCap,
		Admission:     adm,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func stopDrained(t *testing.T, r *shard.Router) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := r.Stop(ctx); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

// unstartedServer serves a router whose loop never runs, so queued
// jobs stay queued and every admission decision is observable.
func unstartedServer(t *testing.T, r *shard.Router) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(service.NewHandler(r))
	t.Cleanup(srv.Close)
	return srv
}

func newTestServer(t *testing.T, queueCap int) (*shard.Router, *httptest.Server) {
	t.Helper()
	r := newTestRouter(t, queueCap, nil)
	r.Start()
	srv := httptest.NewServer(service.NewHandler(r))
	t.Cleanup(srv.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = r.Stop(ctx)
	})
	return r, srv
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHTTPSubmitSingleJob(t *testing.T) {
	s, srv := newTestServer(t, 64)
	body, _ := json.Marshal(testJob(2, 3))
	resp, out := postJSON(t, srv.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	var sr struct {
		IDs []workload.JobID `json:"ids"`
	}
	if err := json.Unmarshal(out, &sr); err != nil || len(sr.IDs) != 1 {
		t.Fatalf("response %s: %v", out, err)
	}

	// Poll the job to completion through the API.
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", srv.URL, sr.IDs[0]))
		if err != nil {
			t.Fatal(err)
		}
		var info service.JobInfo
		if err := json.NewDecoder(r.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if info.State == service.StateCompleted {
			if info.Flowtime < 0 {
				t.Fatalf("completed without JCT: %+v", info)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", info.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if c := s.Counts(); c.Completed != 1 {
		t.Fatalf("counts: %+v", c)
	}
}

func TestHTTPSubmitTraceFile(t *testing.T) {
	_, srv := newTestServer(t, 64)
	var buf bytes.Buffer
	if err := trace.Write(&buf, []*workload.Job{testJob(1, 2), testJob(2, 2), testJob(1, 4)}); err != nil {
		t.Fatal(err)
	}
	resp, out := postJSON(t, srv.URL+"/v1/jobs", buf.Bytes())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	var sr struct {
		IDs []workload.JobID `json:"ids"`
	}
	if err := json.Unmarshal(out, &sr); err != nil || len(sr.IDs) != 3 {
		t.Fatalf("response %s", out)
	}
}

func TestHTTPRejectsMalformedBodies(t *testing.T) {
	_, srv := newTestServer(t, 64)
	good, _ := json.Marshal(testJob(1, 2))
	cases := map[string][]byte{
		"not json":      []byte("nope"),
		"unknown field": []byte(`{"Name": "x", "Wat": 1}`),
		"trailing data": append(append([]byte{}, good...), []byte("{}")...),
		"invalid job":   []byte(`{"Name": "empty"}`),
		"bad trace":     []byte(`{"version": 1, "jobs": [{"ID": 1}]}`),
		"wrong version": []byte(`{"version": 2, "jobs": []}`),
	}
	for name, body := range cases {
		resp, out := postJSON(t, srv.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, out)
		}
	}
}

func TestHTTPBackpressure429(t *testing.T) {
	// Unstarted router: the queue never drains, so cap 2 overflows on
	// the third submission.
	s := newTestRouter(t, 2, nil)
	srv := httptest.NewServer(service.NewHandler(s))
	defer srv.Close()
	body, _ := json.Marshal(testJob(1, 2))
	for i := 0; i < 2; i++ {
		resp, out := postJSON(t, srv.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d (%s)", i, resp.StatusCode, out)
		}
	}
	resp, out := postJSON(t, srv.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, out)
	}
	var er service.ErrorResponse
	if err := json.Unmarshal(out, &er); err != nil || er.Rejected != 1 || er.Error.Code != service.CodeQueueFull {
		t.Fatalf("429 body %s", out)
	}
	s.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPJobNotFound(t *testing.T) {
	_, srv := newTestServer(t, 8)
	for _, path := range []string{"/v1/jobs/999", "/v1/jobs/abc"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
}

func TestHTTPClusterSnapshot(t *testing.T) {
	_, srv := newTestServer(t, 8)
	resp, err := http.Get(srv.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap service.ClusterSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Scheduler != "fifo" || len(snap.Servers) != 8 {
		t.Fatalf("snapshot: %+v", snap)
	}
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	s, srv := newTestServer(t, 64)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// Submit a few jobs, then certify /metrics parses and its counters
	// agree with the router's accounting.
	body, _ := json.Marshal(testJob(1, 2))
	for i := 0; i < 5; i++ {
		if resp, out := postJSON(t, srv.URL+"/v1/jobs", body); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d (%s)", resp.StatusCode, out)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Counts().Completed < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("jobs stuck: %+v", s.Counts())
		}
		time.Sleep(2 * time.Millisecond)
	}
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	samples, err := metrics.ParsePromText(mresp.Body)
	if err != nil {
		t.Fatalf("metrics output invalid: %v", err)
	}
	if got := samples[`dollymp_jobs_submitted_total{shard="0"}`].Value; got != 5 {
		t.Errorf("submitted_total %v", got)
	}
	if got := samples[`dollymp_jobs_completed_total{shard="0"}`].Value; got != 5 {
		t.Errorf("completed_total %v", got)
	}
	if got := samples[`dollymp_job_completion_slots_count{shard="0"}`].Value; got != 5 {
		t.Errorf("JCT histogram count %v", got)
	}
}

func TestHTTPHealthDrainingAndFailed(t *testing.T) {
	s := newTestRouter(t, 8, nil)
	s.Start()
	srv := httptest.NewServer(service.NewHandler(s))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d", resp.StatusCode)
	}
	// Submissions after stop are 503, not 429.
	body, _ := json.Marshal(testJob(1, 2))
	presp, out := postJSON(t, srv.URL+"/v1/jobs", body)
	if presp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post after stop: %d (%s)", presp.StatusCode, out)
	}
}
