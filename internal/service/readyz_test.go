package service_test

// Tests for the readiness surface: /readyz must be 503 not_ready before
// Start, 200 while serving, and 503 draining after Stop — distinct from
// /healthz, which has no "not yet started" phase.

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"dollymp/internal/service"
)

func TestReadyzLifecycle(t *testing.T) {
	s := newTestRouter(t, 8, nil)
	srv := httptest.NewServer(service.NewHandler(s))
	defer srv.Close()
	get := func() *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Before Start: alive but not ready — the window a federated member
	// sits in while its journal replay runs.
	decodeEnvelope(t, get(), http.StatusServiceUnavailable, service.CodeNotReady)
	if s.Ready() {
		t.Fatal("Ready before Start")
	}

	s.Start()
	resp := get()
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz while serving: %d", resp.StatusCode)
	}
	if !s.Ready() {
		t.Fatal("not Ready while serving")
	}

	stopDrained(t, s)
	decodeEnvelope(t, get(), http.StatusServiceUnavailable, service.CodeDraining)
	if s.Ready() {
		t.Fatal("Ready while draining")
	}
}

// TestReadyzStatusAlias: /v1/status serves the same payload as
// /v1/cluster (the gateway federates it member-by-member).
func TestReadyzStatusAlias(t *testing.T) {
	_, srv := newTestServer(t, 8)
	for _, path := range []string{"/v1/cluster", "/v1/status"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}
}
