package pipeline

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// RecoverPanics answers an ordinary panic with a classified 500, but a
// handler that panics with http.ErrAbortHandler drops the connection:
// the client sees no response at all, not a 500.
func TestRecoverPanicsAbortsConnection(t *testing.T) {
	ts := httptest.NewServer(RecoverPanics(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/abort" {
			panic(http.ErrAbortHandler)
		}
		panic("engine corrupted")
	})))
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/abort"); err == nil {
		resp.Body.Close()
		t.Fatalf("aborting handler answered %d, want the connection dropped", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/bug")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || e.Code != "internal" {
		t.Fatalf("panicking handler: status %d code %q, want 500 internal", resp.StatusCode, e.Code)
	}
}
