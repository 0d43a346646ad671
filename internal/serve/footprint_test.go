package serve

import (
	"net/http"
	"testing"
)

// TestFinishedJobFootprint bounds what the server keeps per finished
// job: after one warm-up job, 300 identical jobs of 2 built-ins ×
// (reference + 3 variants) run to their done event, and the live heap
// may grow by at most 2.5 KB per job, not counting the engine's
// memoized results (which the warm-up already filled). A finished job
// keeps its view and its history as SSE frames; its spec, resolved
// cells and subscribers are released at the terminal event.
func TestFinishedJobFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("live-heap deltas are not meaningful under -race")
	}
	const (
		jobs  = 300
		bound = 2560
	)
	_, ts, eng := newTestServer(t, 2, Config{})
	const body = `{"tenant": "footprint", "spec": {"title": "footprint", "benchmarks": ["untst", "gap"], "scale": 1,
		"variants": [{"label": "opt"}, {"label": "w64", "set": {"WindowSize": 64}},
			{"label": "mbc32", "set": {"Opt.MBCEntries": 32}}]}}`
	run := func() {
		v, status, _ := submit(t, ts.URL, body)
		if status != http.StatusAccepted {
			t.Fatalf("submit status %d", status)
		}
		if evs := readSSE(t, ts.URL, v.ID, 0); len(evs) == 0 || evs[len(evs)-1].Type != eventDone {
			t.Fatalf("job %s did not stream to its done event: %+v", v.ID, evs)
		}
	}
	run()
	heap, results := liveHeap(), eng.Stats().ResultBytes
	for range jobs {
		run()
	}
	grew := int64(liveHeap()-heap) - int64(eng.Stats().ResultBytes-results)
	per := grew / jobs
	t.Logf("retained heap per finished job: %d B (%d B over %d jobs)", per, grew, jobs)
	if per > bound {
		t.Errorf("a finished job retains %d B of heap, want at most %d", per, bound)
	}
}
