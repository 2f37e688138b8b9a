package gateway

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestFleetMergeInBackendOrder pins a deterministic fleet view: the
// first backend answers /v1/stats last (it is deliberately slow), yet the
// merge still runs in backend order, so last-value fields come from the
// second backend and tiers appear in first-seen backend order.
func TestFleetMergeInBackendOrder(t *testing.T) {
	stats := []string{
		`{"batch":{"batches":1,"size_sum":3,"last_size":3},"store":{"appends":1,"group_size_last":3},"tenants":[{"tier":"slow","admitted":1}]}`,
		`{"batch":{"batches":1,"size_sum":5,"last_size":5},"store":{"appends":1,"group_size_last":5},"tenants":[{"tier":"fast","admitted":2}]}`,
	}
	var specs []BackendSpec
	for i, body := range stats {
		delay := time.Duration(0)
		if i == 0 {
			delay = 200 * time.Millisecond
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, `{"status":"ok"}`) })
		mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(delay)
			fmt.Fprint(w, body)
		})
		ts := httptest.NewServer(mux)
		defer ts.Close()
		specs = append(specs, BackendSpec{Name: fmt.Sprintf("b%d", i), URL: ts.URL})
	}
	g, err := New(Config{Backends: specs, DisableProbes: true})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	fl := g.Stats().Fleet
	if fl.Backends != 2 || fl.Batch == nil || fl.Store == nil {
		t.Fatalf("fleet: %+v", fl)
	}
	if fl.Batch.LastSize != 5 || fl.Store.GroupLast != 5 {
		t.Fatalf("last values from the first backend to answer: batch %d, store %d; want 5 and 5",
			fl.Batch.LastSize, fl.Store.GroupLast)
	}
	if fl.Batch.MeanSize != 4 {
		t.Fatalf("fleet mean batch size %v, want 4 (recomputed, not summed)", fl.Batch.MeanSize)
	}
	if len(fl.Tenants) != 2 || fl.Tenants[0].Tier != "slow" || fl.Tenants[1].Tier != "fast" {
		t.Fatalf("tier order follows answer order: %+v", fl.Tenants)
	}
}
