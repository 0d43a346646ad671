package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exper"
	"repro/internal/sample"
)

// newTestServer wires a Server over a fresh engine behind an httptest
// listener.
func newTestServer(t *testing.T, parallelism int, cfg Config) (*Server, *httptest.Server, *exper.Runner) {
	t.Helper()
	eng := exper.NewRunner(parallelism)
	s := New(eng, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, eng
}

// submit POSTs a sweep and returns the decoded response and status.
func submit(t *testing.T, url string, body string) (JobView, int, http.Header) {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return v, resp.StatusCode, resp.Header
}

// getJob fetches one job's view.
func getJob(t *testing.T, url, id string) JobView {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitState polls a job until it reaches a terminal state.
func waitState(t *testing.T, url, id string, want State) JobView {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		v := getJob(t, url, id)
		if v.State == want {
			return v
		}
		if v.State == StateDone || v.State == StateFailed || v.State == StateCanceled {
			t.Fatalf("job %s reached terminal state %q (want %q), error: %s", id, v.State, want, v.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %q within 120s", id, want)
	return JobView{}
}

type sseEvent struct {
	Type string
	ID   uint64
	Data string
}

// readSSE streams a job's events until the server closes the stream
// (terminal event) and returns the frames in arrival order.
func readSSE(t *testing.T, url, id string, lastEventID uint64) []sseEvent {
	t.Helper()
	req, err := http.NewRequest("GET", url+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastEventID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	var (
		events []sseEvent
		cur    sseEvent
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.Type != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "event: "):
			cur.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			cur.ID, _ = strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		}
	}
	return events
}

func metrics(t *testing.T, url string) Metrics {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

const smallSpec = `{
	"tenant": "test",
	"slo": "critical",
	"spec": {
		"title": "serve probe",
		"benchmarks": ["mcf", "untst"],
		"scale": 1,
		"per_benchmark": true,
		"variants": [{"label": "opt"}]
	}
}`

func TestSubmitRunsToCompletion(t *testing.T) {
	_, ts, eng := newTestServer(t, 2, Config{})
	v, status, _ := submit(t, ts.URL, smallSpec)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	if v.Class != "critical" || v.Tenant != "test" || v.Cells.Total != 4 {
		t.Fatalf("submit view = %+v", v)
	}
	done := waitState(t, ts.URL, v.ID, StateDone)
	if done.Result == nil {
		t.Fatal("done job has no result")
	}
	if !strings.Contains(done.Result.Table, "serve probe") || !strings.Contains(done.Result.Table, "mcf") {
		t.Errorf("result table malformed:\n%s", done.Result.Table)
	}
	if len(done.Result.Speedups) != 2 || len(done.Result.Speedups[0]) != 1 {
		t.Errorf("speedups shape = %v", done.Result.Speedups)
	}
	if done.Result.Speedups[0][0] <= 0 {
		t.Errorf("speedup not positive: %v", done.Result.Speedups)
	}
	if st := eng.Stats(); st.Simulations != 4 {
		t.Errorf("engine simulations = %d, want 4", st.Simulations)
	}
	// Liveness endpoint.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
}

func TestSubmitSampledSweep(t *testing.T) {
	_, ts, _ := newTestServer(t, 2, Config{})
	body := `{"tenant": "s", "slo": "batch", "sampled": true,
		"spec": {"benchmarks": ["tst"], "scale": 1, "per_benchmark": true, "variants": [{"label": "opt"}]}}`
	v, status, _ := submit(t, ts.URL, body)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	done := waitState(t, ts.URL, v.ID, StateDone)
	if done.Result == nil || !strings.Contains(done.Result.Table, "tst") {
		t.Fatalf("sampled job result missing: %+v", done.Result)
	}
}

// TestServedTableMatchesSweep pins serve onto the engine's shared
// fan-out: a served exact job and a served sampled job render a table
// byte-identical to Runner.Sweep and Runner.SweepSampled of the same
// spec on a fresh engine, and every cell reports its completion.
func TestServedTableMatchesSweep(t *testing.T) {
	const spec = `{"title": "served vs direct", "benchmarks": ["mcf", "untst", "tst"], "scale": 1,
		"per_benchmark": true, "variants": [{"label": "opt"}, {"label": "mbc32", "set": {"Opt.MBCEntries": 32}}]}`
	_, ts, _ := newTestServer(t, 2, Config{})
	for _, sampled := range []bool{false, true} {
		body := fmt.Sprintf(`{"tenant": "eq", "sampled": %t, "spec": %s}`, sampled, spec)
		v, status, _ := submit(t, ts.URL, body)
		if status != http.StatusAccepted {
			t.Fatalf("sampled=%t: submit status = %d", sampled, status)
		}
		done := waitState(t, ts.URL, v.ID, StateDone)
		if done.Result == nil || done.Cells.Done != done.Cells.Total || done.Cells.Total != 9 {
			t.Fatalf("sampled=%t: done job cells %+v, result %v", sampled, done.Cells, done.Result)
		}

		sp, err := exper.ParseSpec([]byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		eng := exper.NewRunner(2)
		var direct *exper.SweepResult
		if sampled {
			direct, err = eng.SweepSampled(context.Background(), sp, sample.DefaultConfig())
		} else {
			direct, err = eng.Sweep(context.Background(), sp)
		}
		if err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		if err := direct.WriteTable(&want); err != nil {
			t.Fatal(err)
		}
		if done.Result.Table != want.String() {
			t.Errorf("sampled=%t: served table differs from the direct sweep:\n%s\nvs\n%s", sampled, done.Result.Table, want.String())
		}
	}
}

// TestSubmitRejectsUnboundedMachine: a spec whose machine would make a
// cell allocate without bound — a 2^40-cycle memory latency or feedback
// delay sizes the event wheels — is a 400 naming the field, before any
// simulation runs.
func TestSubmitRejectsUnboundedMachine(t *testing.T) {
	_, ts, eng := newTestServer(t, 1, Config{})
	for _, field := range []string{"Caches.MemLatency", "FeedbackDelay"} {
		body := `{"spec": {"benchmarks": ["tst"], "scale": 1, "variants": [{"label": "slow", "set": {"` + field + `": 1099511627776}}]}}`
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", field, resp.StatusCode)
		}
		if !strings.Contains(string(msg), field) {
			t.Errorf("%s: error %q does not name the field", field, msg)
		}
	}
	if st := eng.Stats(); st.Simulations != 0 {
		t.Errorf("%d simulations ran for rejected specs", st.Simulations)
	}
}

func TestSubmitRejectsBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, 1, Config{})
	cases := []string{
		`not json`,
		`{"slo": "gold", "spec": {"variants": [{"label": "x"}]}}`,          // unknown class
		`{"spec": {"variants": []}}`,                                       // invalid spec
		`{"spec": {"benchmarks": ["nope"], "variants": [{"label": "x"}]}}`, // unknown benchmark
		`{}`, // no spec at all
	}
	for _, body := range cases {
		if _, status, _ := submit(t, ts.URL, body); status != http.StatusBadRequest {
			t.Errorf("submit(%q) status = %d, want 400", body, status)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

// TestConcurrentClientsSingleflight is the satellite requirement:
// many clients submitting the same sweep spec concurrently must cost
// exactly one simulation per unique (config, benchmark, scale) cell —
// the HTTP layer inherits the engine's singleflight. Run under -race.
func TestConcurrentClientsSingleflight(t *testing.T) {
	_, ts, eng := newTestServer(t, 4, Config{MaxJobs: 8, TenantJobs: 2})
	const clients = 8
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"tenant": "tenant-%d", "slo": "critical",
				"spec": {"benchmarks": ["mcf", "untst"], "scale": 1, "variants": [{"label": "opt"}]}}`, i)
			v, status, _ := submit(t, ts.URL, body)
			if status != http.StatusAccepted {
				t.Errorf("client %d: status %d", i, status)
				return
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if id != "" {
			waitState(t, ts.URL, id, StateDone)
		}
	}
	// 2 benchmarks x (reference + 1 variant) = 4 unique cells, no
	// matter that 8 clients asked for all of them concurrently.
	if st := eng.Stats(); st.Simulations != 4 {
		t.Errorf("engine simulations = %d, want exactly 4 (singleflight across HTTP clients)", st.Simulations)
	}
}

func TestSheddingUnderLoad(t *testing.T) {
	s, ts, _ := newTestServer(t, 1, Config{MaxJobs: 1, TenantJobs: 1, QueueDepth: 1})
	block := make(chan struct{})
	s.execute = func(ctx context.Context, j *Job) (*exper.SweepResult, error) {
		select {
		case <-block:
			return nil, errors.New("released")
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	defer close(block)

	spec := func(tenant, slo string) string {
		return fmt.Sprintf(`{"tenant": %q, "slo": %q,
			"spec": {"benchmarks": ["tst"], "scale": 1, "variants": [{"label": "opt"}]}}`, tenant, slo)
	}
	// Fill the worker slot, then the depth-1 critical queue.
	a, status, _ := submit(t, ts.URL, spec("t0", "critical"))
	if status != http.StatusAccepted {
		t.Fatalf("job A status = %d", status)
	}
	deadline := time.Now().Add(10 * time.Second)
	for getJob(t, ts.URL, a.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job A never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, status, _ = submit(t, ts.URL, spec("t1", "critical")); status != http.StatusAccepted {
		t.Fatalf("job B status = %d", status)
	}

	// Sheddable behind a full critical queue: shed with 429 and a
	// Retry-After hint. Same for batch, and for critical over its own
	// full queue.
	_, status, hdr := submit(t, ts.URL, spec("t2", "sheddable"))
	if status != http.StatusTooManyRequests {
		t.Fatalf("sheddable submit status = %d, want 429", status)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", hdr.Get("Retry-After"))
	}
	if _, status, _ = submit(t, ts.URL, spec("t3", "batch")); status != http.StatusTooManyRequests {
		t.Errorf("batch submit status = %d, want 429", status)
	}
	if _, status, _ = submit(t, ts.URL, spec("t4", "critical")); status != http.StatusTooManyRequests {
		t.Errorf("critical submit over full queue = %d, want 429", status)
	}
	if m := metrics(t, ts.URL); m.Shed != 3 {
		t.Errorf("metrics shed = %d, want 3", m.Shed)
	}
}

func TestSSEStreamMonotonicToDone(t *testing.T) {
	_, ts, _ := newTestServer(t, 2, Config{})
	v, status, _ := submit(t, ts.URL, smallSpec)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	events := readSSE(t, ts.URL, v.ID, 0)
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	var last uint64
	cells := 0
	for _, ev := range events {
		if ev.ID <= last {
			t.Fatalf("event ids not strictly increasing: %d after %d", ev.ID, last)
		}
		last = ev.ID
		if ev.Type == "cell" {
			cells++
		}
	}
	if events[0].Type != "queued" {
		t.Errorf("first event = %q, want queued", events[0].Type)
	}
	final := events[len(events)-1]
	if final.Type != "done" {
		t.Fatalf("final event = %q, want done", final.Type)
	}
	if cells != 4 {
		t.Errorf("cell events = %d, want 4", cells)
	}
	var res JobResult
	if err := json.Unmarshal([]byte(final.Data), &res); err != nil {
		t.Fatalf("done payload not a JobResult: %v", err)
	}
	if !strings.Contains(res.Table, "serve probe") {
		t.Errorf("done payload table malformed:\n%s", res.Table)
	}

	// Reconnect with Last-Event-ID: only the later history replays,
	// ending with the same terminal event.
	replay := readSSE(t, ts.URL, v.ID, 2)
	if len(replay) == 0 || replay[0].ID <= 2 {
		t.Fatalf("Last-Event-ID replay starts at %+v, want seq > 2", replay)
	}
	if replay[len(replay)-1].Type != "done" {
		t.Errorf("replay final event = %q, want done", replay[len(replay)-1].Type)
	}
}

func TestCancelQueuedAndRunningJobs(t *testing.T) {
	s, ts, _ := newTestServer(t, 1, Config{MaxJobs: 1, TenantJobs: 1, QueueDepth: 4})
	s.execute = func(ctx context.Context, j *Job) (*exper.SweepResult, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	spec := func(tenant string) string {
		return fmt.Sprintf(`{"tenant": %q, "slo": "critical",
			"spec": {"benchmarks": ["tst"], "scale": 1, "variants": [{"label": "opt"}]}}`, tenant)
	}
	running, _, _ := submit(t, ts.URL, spec("r"))
	queued, _, _ := submit(t, ts.URL, spec("q"))

	del := func(id string) JobView {
		req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	// The queued job cancels synchronously; the running one as soon as
	// its context fires.
	if v := del(queued.ID); v.State != StateCanceled {
		t.Errorf("queued job after DELETE = %q, want canceled", v.State)
	}
	del(running.ID)
	waitState(t, ts.URL, running.ID, StateCanceled)
}

func TestShutdownDrains(t *testing.T) {
	s, ts, _ := newTestServer(t, 1, Config{MaxJobs: 1, TenantJobs: 1, QueueDepth: 4})
	s.execute = func(ctx context.Context, j *Job) (*exper.SweepResult, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	spec := `{"tenant": "d", "slo": "critical",
		"spec": {"benchmarks": ["tst"], "scale": 1, "variants": [{"label": "opt"}]}}`
	running, _, _ := submit(t, ts.URL, spec)
	queued, _, _ := submit(t, ts.URL, spec)

	// Wait for dispatch, then drain with a short deadline: the queued
	// job must be evicted and the running one force-canceled.
	deadline := time.Now().Add(10 * time.Second)
	for getJob(t, ts.URL, running.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	s.Shutdown(ctx)

	if v := getJob(t, ts.URL, queued.ID); v.State != StateCanceled {
		t.Errorf("queued job after drain = %q, want canceled", v.State)
	}
	if v := getJob(t, ts.URL, running.ID); v.State != StateCanceled {
		t.Errorf("running job after drain = %q, want canceled", v.State)
	}
	// Admission and liveness report draining.
	if _, status, _ := submit(t, ts.URL, spec); status != http.StatusServiceUnavailable {
		t.Errorf("submit during drain = %d, want 503", status)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain = %d, want 503", resp.StatusCode)
	}
}

// TestEndToEndMultiTenant is the PR's acceptance scenario: two tenants
// submit overlapping sweeps concurrently; every unique (config,
// benchmark, scale) cell simulates exactly once, and each tenant's SSE
// stream delivers monotonically increasing events ending in a terminal
// done event carrying the result payload.
func TestEndToEndMultiTenant(t *testing.T) {
	_, ts, eng := newTestServer(t, 4, Config{MaxJobs: 2, TenantJobs: 1, QueueDepth: 8})
	alice := `{"tenant": "alice", "slo": "critical",
		"spec": {"benchmarks": ["mcf", "untst"], "scale": 1, "per_benchmark": true, "variants": [{"label": "opt"}]}}`
	bob := `{"tenant": "bob", "slo": "batch",
		"spec": {"benchmarks": ["untst", "tst"], "scale": 1, "per_benchmark": true, "variants": [{"label": "opt"}]}}`

	var (
		wg  sync.WaitGroup
		ids [2]string
	)
	for i, body := range []string{alice, bob} {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			v, status, _ := submit(t, ts.URL, body)
			if status != http.StatusAccepted {
				t.Errorf("tenant %d submit status = %d", i, status)
				return
			}
			ids[i] = v.ID
			events := readSSE(t, ts.URL, v.ID, 0)
			var last uint64
			cells := 0
			for _, ev := range events {
				if ev.ID <= last {
					t.Errorf("tenant %d: event ids not monotonic (%d after %d)", i, ev.ID, last)
					return
				}
				last = ev.ID
				if ev.Type == "cell" {
					cells++
				}
			}
			if cells != 4 {
				t.Errorf("tenant %d: %d cell events, want 4", i, cells)
			}
			final := events[len(events)-1]
			if final.Type != "done" || !strings.Contains(final.Data, `"table"`) {
				t.Errorf("tenant %d: terminal event %q missing result payload", i, final.Type)
			}
		}(i, body)
	}
	wg.Wait()

	// The union of both sweeps is 3 benchmarks x 2 configs = 6 unique
	// cells; the untst overlap must not simulate twice.
	st := eng.Stats()
	if st.Simulations != 6 {
		t.Errorf("engine simulations = %d, want exactly 6 (cross-tenant dedup)", st.Simulations)
	}
	if st.MemHits != 2 {
		t.Errorf("engine memory hits = %d, want 2 (the shared untst cells)", st.MemHits)
	}
	for _, id := range ids {
		if id != "" {
			if v := getJob(t, ts.URL, id); v.State != StateDone {
				t.Errorf("job %s state = %q, want done", id, v.State)
			}
		}
	}
}
