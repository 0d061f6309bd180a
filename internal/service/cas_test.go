package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"instrsample/internal/experiment"
)

func casServer(t *testing.T, id string) (*Server, *httptest.Server, *experiment.Cache) {
	t.Helper()
	cache, err := experiment.OpenCacheID(t.TempDir(), id)
	if err != nil {
		t.Fatal(err)
	}
	s, h := newTestServer(t, Config{Workers: 1, Cache: cache})
	return s, h, cache
}

func casDo(t *testing.T, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestCASEndpoints exercises the network CAS surface: GET serves stored
// entries byte-identically, PUT replicates entries between nodes with
// integrity checking, and malformed or mismatched requests are refused.
func TestCASEndpoints(t *testing.T) {
	t.Parallel()
	_, hA, cacheA := casServer(t, "fleet-build")
	_, hB, cacheB := casServer(t, "fleet-build")

	cacheA.Store("cell one", &experiment.CellResult{Return: 42, Work: 7})
	addr := cacheA.Addr("cell one")
	local, _ := cacheA.GetAddr(addr)

	// GET hit: the exact stored bytes.
	resp, got := casDo(t, http.MethodGet, hA.URL+"/v1/cas/"+addr, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET hit: status %d", resp.StatusCode)
	}
	if !bytes.Equal(got, local) {
		t.Fatal("GET served bytes differ from the stored entry")
	}

	// GET miss and invalid address.
	if resp, _ := casDo(t, http.MethodGet, hB.URL+"/v1/cas/"+addr, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET miss: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := casDo(t, http.MethodGet, hA.URL+"/v1/cas/"+strings.Repeat("z", 32), nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET invalid addr: status %d, want 400", resp.StatusCode)
	}

	// PUT replicates A's entry to B; B then serves it byte-identically
	// and its own Load sees the result.
	if resp, body := casDo(t, http.MethodPut, hB.URL+"/v1/cas/"+addr, local); resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT: status %d (%s)", resp.StatusCode, body)
	}
	if resp, got := casDo(t, http.MethodGet, hB.URL+"/v1/cas/"+addr, nil); resp.StatusCode != http.StatusOK || !bytes.Equal(got, local) {
		t.Fatalf("replicated GET: status %d, identical %v", resp.StatusCode, bytes.Equal(got, local))
	}
	if res, ok := cacheB.Load("cell one"); !ok || res.Return != 42 {
		t.Fatal("replicated entry must serve Load on the receiver")
	}

	// PUT with a tampered payload (embedded cell key no longer hashes to
	// the claimed address): 422, nothing stored.
	forged := bytes.Replace(local, []byte("cell one"), []byte("cell two"), 1)
	if resp, _ := casDo(t, http.MethodPut, hB.URL+"/v1/cas/"+addr, forged); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("PUT tampered: status %d, want 422", resp.StatusCode)
	}
	// A genuine payload at the wrong address is the same class of reject.
	if resp, _ := casDo(t, http.MethodPut, hB.URL+"/v1/cas/"+fmt.Sprintf("%032x", 0), local); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("PUT wrong addr: status %d, want 422", resp.StatusCode)
	}

	// A cache-less node has no CAS surface at all.
	_, hNone := newTestServer(t, Config{Workers: 1})
	if resp, _ := casDo(t, http.MethodGet, hNone.URL+"/v1/cas/"+addr, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cache-less GET: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := casDo(t, http.MethodPut, hNone.URL+"/v1/cas/"+addr, local); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cache-less PUT: status %d, want 404", resp.StatusCode)
	}
}

// TestCASPutStoreFailure: a genuine payload the store cannot write is
// the receiver's fault — 500, and not booked as an integrity reject.
func TestCASPutStoreFailure(t *testing.T) {
	t.Parallel()
	src, err := experiment.OpenCacheID(t.TempDir(), "fleet-build")
	if err != nil {
		t.Fatal(err)
	}
	src.Store("cell one", &experiment.CellResult{Return: 42})
	addr := src.Addr("cell one")
	payload, _ := src.GetAddr(addr)

	dir := t.TempDir()
	broken, err := experiment.OpenCacheID(dir, "fleet-build")
	if err != nil {
		t.Fatal(err)
	}
	s, h := newTestServer(t, Config{Workers: 1, Cache: broken})
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	resp, body := casDo(t, http.MethodPut, h.URL+"/v1/cas/"+addr, payload)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("PUT to a failing store: status %d (%s), want 500", resp.StatusCode, body)
	}
	if got := s.Registry().Counter(MetricCASRejected).Value(); got != 0 {
		t.Errorf("%s = %d after a store failure, want 0", MetricCASRejected, got)
	}
	if got := s.Registry().Counter(MetricCASStored).Value(); got != 0 {
		t.Errorf("%s = %d after a store failure, want 0", MetricCASStored, got)
	}
}
