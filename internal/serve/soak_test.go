package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"testing"

	"repro/internal/exper"
)

// liveHeap returns the heap in use after two full collections: the
// second empties the sync.Pool victim caches, so idle pooled simulator
// state (a front-end alone is about 375 KB) does not count.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSoakManyUniqueCellsStaysFlat streams jobs over ever-new machines —
// every job adds cells nobody asked for before — and requires what the
// process retains to stay flat: the tenant's finished-job history stops
// at its history bound (a dropped job answers 404 to GET and to an event
// subscription), the engine's memoized results stay within their
// budget, and apart from those results — which fill their budget over
// far more jobs than this — the live heap at the end is no larger than
// a quarter of the way in, give or take collector noise.
func TestSoakManyUniqueCellsStaysFlat(t *testing.T) {
	const (
		history = 8
		jobs    = 400
		slack   = 256 << 10
	)
	s, ts, eng := newTestServer(t, 2, Config{})
	s.history = history
	var first string
	var mid, midResults uint64
	for i := range jobs {
		body := fmt.Sprintf(`{"tenant": "soak", "slo": "batch", "spec": {
			"title": "soak %d", "benchmarks": ["untst"], "scale": 1,
			"variants": [{"label": "v", "set": {"PRegs": %d}}]}}`, i, 512+i)
		v, status, _ := submit(t, ts.URL, body)
		if status != http.StatusAccepted {
			t.Fatalf("job %d: submit status %d", i, status)
		}
		if i == 0 {
			first = v.ID
		}
		waitState(t, ts.URL, v.ID, StateDone)
		if i == jobs/4 {
			mid, midResults = liveHeap(), eng.Stats().ResultBytes
		}
	}
	end, endResults := liveHeap(), eng.Stats().ResultBytes
	t.Logf("live heap: %d KiB at job %d, %d KiB at job %d; memoized results %d KiB, then %d KiB",
		mid>>10, jobs/4, end>>10, jobs, midResults>>10, endResults>>10)

	s.mu.Lock()
	retained, order := len(s.jobs), len(s.order)
	s.mu.Unlock()
	if retained > history {
		t.Errorf("server retains %d jobs, want at most the %d-job history", retained, history)
	}
	if order > 2*retained+1 {
		t.Errorf("submission order holds %d IDs for %d retained jobs", order, retained)
	}
	if endResults > exper.DefaultResultBudget {
		t.Errorf("engine holds %d result bytes, budget %d", endResults, exper.DefaultResultBudget)
	}
	for _, path := range []string{"/v1/jobs/" + first, "/v1/jobs/" + first + "/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s on a dropped job: status %d, want 404", path, resp.StatusCode)
		}
	}
	if end > mid+(endResults-midResults)+slack {
		t.Errorf("live heap grew from %d to %d KiB over %d jobs of new cells, %d KiB of it memoized results",
			mid>>10, end>>10, jobs*3/4, (endResults-midResults)>>10)
	}
}
