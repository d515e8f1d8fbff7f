package service_test

// Tests for the redesigned /v1 surface: the uniform error envelope,
// list pagination, and the per-shard status endpoint.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"dollymp/internal/service"
)

// decodeEnvelope asserts a response is envelope-shaped with the given
// status and code.
func decodeEnvelope(t *testing.T, resp *http.Response, wantStatus int, wantCode string) service.ErrorResponse {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
	}
	var er service.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("response not envelope-shaped: %v", err)
	}
	if er.Error.Code != wantCode {
		t.Fatalf("code %q, want %q (message %q)", er.Error.Code, wantCode, er.Error.Message)
	}
	if er.Error.Message == "" {
		t.Fatal("envelope without message")
	}
	return er
}

func TestHTTPErrorEnvelopeShape(t *testing.T) {
	_, srv := newTestServer(t, 8)
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// Unknown paths hit the catch-all envelope.
	decodeEnvelope(t, get("/v2/nope"), http.StatusNotFound, service.CodeNotFound)
	decodeEnvelope(t, get("/"), http.StatusNotFound, service.CodeNotFound)
	// A known path with an unhandled method is an envelope-shaped 405
	// carrying the allowed methods — not the mux's plain-text fallback.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if allow := resp.Header.Get("Allow"); allow == "" {
		t.Fatal("405 without an Allow header")
	}
	decodeEnvelope(t, resp, http.StatusMethodNotAllowed, service.CodeMethodNotAllowed)
	// Missing job vs malformed ID distinguish not_found from
	// invalid_argument.
	decodeEnvelope(t, get("/v1/jobs/999999"), http.StatusNotFound, service.CodeNotFound)
	decodeEnvelope(t, get("/v1/jobs/abc"), http.StatusBadRequest, service.CodeInvalidArgument)
	// Malformed body carries the envelope too.
	presp, out := postJSON(t, srv.URL+"/v1/jobs", []byte("nope"))
	if presp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %d", presp.StatusCode)
	}
	var er service.ErrorResponse
	if err := json.Unmarshal(out, &er); err != nil || er.Error.Code != service.CodeInvalidArgument {
		t.Fatalf("bad-body envelope %s: %v", out, err)
	}
}

func TestHTTPListJobsPagination(t *testing.T) {
	// Unstarted router: all jobs stay queued, so the listing is
	// deterministic.
	s := newTestRouter(t, 16, nil)
	srv := httptest.NewServer(service.NewHandler(s))
	defer srv.Close()
	var ids []int64
	for i := 0; i < 5; i++ {
		id, err := s.SubmitNowait(testJob(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, int64(id))
	}

	list := func(query string) service.JobListResponse {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", query, resp.StatusCode)
		}
		var lr service.JobListResponse
		if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
			t.Fatal(err)
		}
		return lr
	}

	full := list("")
	if full.Total != 5 || len(full.Jobs) != 5 || full.Limit != service.DefaultJobsLimit || full.Offset != 0 {
		t.Fatalf("full listing: total %d, %d jobs, limit %d", full.Total, len(full.Jobs), full.Limit)
	}
	for i, j := range full.Jobs {
		if int64(j.ID) != ids[i] {
			t.Fatalf("listing order: job %d has ID %d, want %d", i, j.ID, ids[i])
		}
		if j.State != service.StateQueued {
			t.Fatalf("job %d state %s", j.ID, j.State)
		}
	}

	page := list("?limit=2&offset=1")
	if page.Total != 5 || len(page.Jobs) != 2 || page.Offset != 1 || page.Limit != 2 {
		t.Fatalf("page: %+v", page)
	}
	if int64(page.Jobs[0].ID) != ids[1] || int64(page.Jobs[1].ID) != ids[2] {
		t.Fatalf("page IDs %d,%d want %d,%d", page.Jobs[0].ID, page.Jobs[1].ID, ids[1], ids[2])
	}

	// Offset past the end is an empty page, not an error.
	if tail := list("?offset=99"); tail.Total != 5 || len(tail.Jobs) != 0 {
		t.Fatalf("past-end page: %+v", tail)
	}
	// State filter: nothing completed yet; everything queued.
	if done := list("?state=completed"); done.Total != 0 {
		t.Fatalf("completed filter: %+v", done)
	}
	if q := list("?state=queued"); q.Total != 5 {
		t.Fatalf("queued filter: %+v", q)
	}
	// Limit above the cap is clamped, not rejected.
	if big := list(fmt.Sprintf("?limit=%d", service.MaxJobsLimit*10)); big.Limit != service.MaxJobsLimit {
		t.Fatalf("limit not clamped: %+v", big)
	}

	// Invalid parameters get the envelope.
	for _, q := range []string{"?state=bogus", "?limit=0", "?limit=x", "?offset=-1", "?offset=x"} {
		resp, err := http.Get(srv.URL + "/v1/jobs" + q)
		if err != nil {
			t.Fatal(err)
		}
		decodeEnvelope(t, resp, http.StatusBadRequest, service.CodeInvalidArgument)
	}
}

func TestHTTPShardsEndpoint(t *testing.T) {
	s, srv := newTestServer(t, 8)
	if _, err := s.SubmitNowait(testJob(1, 2)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var sr service.ShardsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Shards) != 1 {
		t.Fatalf("P=1 router reports %d shards", len(sr.Shards))
	}
	st := sr.Shards[0]
	if st.Shard != 0 || st.Draining {
		t.Fatalf("shard status: %+v", st)
	}
	if st.Jobs.Submitted != 1 {
		t.Fatalf("shard accounting: %+v", st.Jobs)
	}
}
