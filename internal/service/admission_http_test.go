package service_test

// HTTP tests for the edge-admission surface: the two distinct 429s
// (queue_full vs admission_denied) with their Retry-After contract,
// the GET /v1/admission view, the ?tenant= job filter, and MuxFor's
// deterministic sorted Allow header.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dollymp/internal/admission"
	"dollymp/internal/service"
)

// TestMuxForAllowSorted: the Allow header on a 405 is sorted by method
// name no matter the registration order, so clients (and the SDK
// probe) may compare it literally and gateway and member answer
// byte-identically.
func TestMuxForAllowSorted(t *testing.T) {
	noop := func(w http.ResponseWriter, r *http.Request) {}
	// Deliberately unsorted registration order.
	srv := httptest.NewServer(service.MuxFor([]service.Route{
		{"POST", "/v1/thing", noop},
		{"DELETE", "/v1/thing", noop},
		{"GET", "/v1/thing", noop},
	}))
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodPatch, srv.URL+"/v1/thing", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if allow := resp.Header.Get("Allow"); allow != "DELETE, GET, POST" {
		t.Fatalf("Allow %q, want %q", allow, "DELETE, GET, POST")
	}
	decodeEnvelope(t, resp, http.StatusMethodNotAllowed, service.CodeMethodNotAllowed)
}

// TestSetRetryAfter: sub-second hints round up to 1 (the header's
// resolution is whole seconds; the precise value rides in
// retry_after_ms), exact seconds stay exact, and zero/negative hints
// still write "0" — the header's presence is the 429 contract.
func TestSetRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "0"},
		{-time.Second, "0"},
		{25 * time.Millisecond, "1"},
		{time.Second, "1"},
		{2500 * time.Millisecond, "3"},
	} {
		w := httptest.NewRecorder()
		service.SetRetryAfter(w, tc.d)
		if got := w.Header().Get("Retry-After"); got != tc.want {
			t.Errorf("SetRetryAfter(%v): header %q, want %q", tc.d, got, tc.want)
		}
	}
}

// TestHTTPQueueFull429RetryAfter: a full queue answers 429 queue_full
// with both halves of the retry contract — the coarse Retry-After
// header and the precise retry_after_ms in the envelope.
func TestHTTPQueueFull429RetryAfter(t *testing.T) {
	srv := unstartedServer(t, newTestRouter(t, 2, nil))
	body, _ := json.Marshal(testJob(1, 2))
	for i := 0; i < 2; i++ {
		if resp, out := postJSON(t, srv.URL+"/v1/jobs", body); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill %d: %d %s", i, resp.StatusCode, out)
		}
	}
	resp, out := postJSON(t, srv.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", got)
	}
	var er service.ErrorResponse
	if err := json.Unmarshal(out, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != service.CodeQueueFull || er.Error.Reason != "" {
		t.Fatalf("envelope %+v, want code queue_full with no reason", er.Error)
	}
	if er.Error.RetryAfterMS != service.DefaultQueueFullRetry.Milliseconds() {
		t.Fatalf("retry_after_ms %d, want %d", er.Error.RetryAfterMS, service.DefaultQueueFullRetry.Milliseconds())
	}
	if er.Rejected != 1 {
		t.Fatalf("rejected %d, want 1", er.Rejected)
	}
}

// TestHTTPAdmissionDenied429: a policy denial is the other 429 — same
// status, distinct code, plus the policy's machine-readable reason and
// its exact retry hint. A frozen clock makes the token bucket
// deterministic: burst 1 admits exactly one job, the next is denied
// with the full token-refill interval as the hint. The policy sits on
// the router, the deployment's one admission edge.
func TestHTTPAdmissionDenied429(t *testing.T) {
	frozen := time.Unix(1000, 0)
	s := newTestRouter(t, 64, admission.NewTokenBucket(admission.TokenBucketConfig{
		Rate: 2, Burst: 1,
		Now: func() time.Time { return frozen },
	}))
	srv := unstartedServer(t, s)
	body, _ := json.Marshal(testJob(1, 2))
	if resp, out := postJSON(t, srv.URL+"/v1/jobs", body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp.StatusCode, out)
	}
	resp, out := postJSON(t, srv.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", got)
	}
	var er service.ErrorResponse
	if err := json.Unmarshal(out, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != service.CodeAdmissionDenied {
		t.Fatalf("code %q, want %q", er.Error.Code, service.CodeAdmissionDenied)
	}
	if er.Error.Reason != admission.ReasonRateLimited {
		t.Fatalf("reason %q, want %q", er.Error.Reason, admission.ReasonRateLimited)
	}
	// One token at rate 2/s refills in 500ms exactly.
	if er.Error.RetryAfterMS != 500 {
		t.Fatalf("retry_after_ms %d, want 500", er.Error.RetryAfterMS)
	}

	// The admission view accounts for both decisions.
	resp, err := http.Get(srv.URL + "/v1/admission")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.AdmissionStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Policy != "token-bucket" || st.Denied != 1 {
		t.Fatalf("admission view %+v, want token-bucket with 1 denial", st)
	}
	if st.Stats == nil || st.Stats.Admitted != 1 || st.Stats.Denied != 1 {
		t.Fatalf("policy stats %+v, want 1 admitted / 1 denied", st.Stats)
	}
}

// TestHTTPJobsTenantFilter: ?tenant= narrows the job list to one
// tenant's jobs, composing with pagination totals; an unknown tenant
// matches nothing.
func TestHTTPJobsTenantFilter(t *testing.T) {
	srv := unstartedServer(t, newTestRouter(t, 16, nil))
	submit := func(tenant string) {
		t.Helper()
		j := testJob(1, 2)
		j.Tenant = tenant
		body, _ := json.Marshal(j)
		if resp, out := postJSON(t, srv.URL+"/v1/jobs", body); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: %d %s", tenant, resp.StatusCode, out)
		}
	}
	submit("acme")
	submit("globex")
	submit("acme")

	list := func(query string) service.JobListResponse {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list %s: %d", query, resp.StatusCode)
		}
		var out service.JobListResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	got := list("?tenant=acme")
	if got.Total != 2 || len(got.Jobs) != 2 {
		t.Fatalf("tenant=acme: total %d, %d rows", got.Total, len(got.Jobs))
	}
	for _, j := range got.Jobs {
		if j.Tenant != "acme" {
			t.Fatalf("tenant=acme returned job of tenant %q", j.Tenant)
		}
	}
	if got := list("?tenant=acme&limit=1"); got.Total != 2 || len(got.Jobs) != 1 {
		t.Fatalf("tenant filter + pagination: total %d, %d rows", got.Total, len(got.Jobs))
	}
	if got := list("?tenant=nobody"); got.Total != 0 || len(got.Jobs) != 0 {
		t.Fatalf("unknown tenant matched %d jobs", got.Total)
	}
	if got := list(""); got.Total != 3 {
		t.Fatalf("unfiltered total %d, want 3", got.Total)
	}
}
