package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/exper"
)

// TestEventPayloadsMatchMapEncoding pins each event's payload struct to
// the bytes of the map with the same keys and values, and a formatted
// frame to the SSE layout, escaping included.
func TestEventPayloadsMatchMapEncoding(t *testing.T) {
	const odd = "a<b>&\"c\"\\ é\u2028"
	cases := []struct {
		typ  string
		got  any
		want map[string]any
	}{
		{eventQueued, queuedData{Cells: 8, Class: "critical", ID: "j000042", Tenant: odd},
			map[string]any{"id": "j000042", "tenant": odd, "class": "critical", "cells": 8}},
		{eventStart, startData{Cells: 8}, map[string]any{"cells": 8}},
		{eventCell, cellData{Benchmark: "untst", Done: 3, Machine: odd, Total: 8},
			map[string]any{"benchmark": "untst", "machine": odd, "done": 3, "total": 8}},
		{eventProgress, progressData{Benchmark: "gap", Cycle: 1<<40 + 3, IPC: 1.2345678901234567, Machine: "w64", Retired: 12345, Scale: 2},
			map[string]any{"benchmark": "gap", "machine": "w64", "scale": 2, "cycle": uint64(1<<40 + 3), "retired": uint64(12345), "ipc": 1.2345678901234567}},
		{eventProgress, progressData{IPC: 1e-7}, map[string]any{"benchmark": "", "machine": "", "scale": 0, "cycle": uint64(0), "retired": uint64(0), "ipc": 1e-7}},
		{eventError, errorData{Error: odd}, map[string]any{"error": odd}},
		{eventCanceled, canceledData{Reason: odd}, map[string]any{"reason": odd}},
	}
	for i, c := range cases {
		want, err := json.Marshal(c.want)
		if err != nil {
			t.Fatal(err)
		}
		got := marshal(c.got)
		if !bytes.Equal(got, want) {
			t.Errorf("%s payload %d: %s, want the map encoding %s", c.typ, i, got, want)
		}
		seq := uint64(i*1000 + 7)
		if frame, want := appendFrame(nil, c.typ, seq, got), fmt.Sprintf("event: %s\nid: %d\ndata: %s\n\n", c.typ, seq, want); string(frame) != want {
			t.Errorf("%s frame %q, want %q", c.typ, frame, want)
		}
	}
}

// TestHistoryAndViewsSurviveRelease covers a done job, a failed job and
// a job canceled while queued, each followed by a live subscriber from
// before its terminal event. After the terminal event releases the
// job's execution state: a full replay equals, byte for byte, the
// durable frames the live subscriber read; a replay after any
// Last-Event-ID equals the matching suffix; and GET /v1/jobs/{id} and
// GET /v1/jobs?tenant= render exactly the JSON of the job's complete
// view, cell totals and result included.
func TestHistoryAndViewsSurviveRelease(t *testing.T) {
	s, ts, eng := newTestServer(t, 2, Config{MaxJobs: 1, TenantJobs: 1})
	gates := map[string]chan struct{}{"done": make(chan struct{}), "failed": make(chan struct{}), "queued": make(chan struct{})}
	s.execute = func(ctx context.Context, j *Job) (*exper.SweepResult, error) {
		select {
		case <-gates[j.Tenant]:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if j.Tenant == "failed" {
			j.cellDone("untst", "baseline")
			return nil, errors.New("stub failure <&>")
		}
		return s.runSweep(ctx, j)
	}
	const spec = `{"title": "history", "benchmarks": ["untst", "gap"], "scale": 1,
		"variants": [{"label": "opt"}, {"label": "w64", "set": {"WindowSize": 64}}]}`
	const cells = 2 * 3
	start := func(tenant string) (string, *http.Response) {
		v, status, _ := submit(t, ts.URL, fmt.Sprintf(`{"tenant": %q, "spec": %s}`, tenant, spec))
		if status != http.StatusAccepted {
			t.Fatalf("%s: submit status %d", tenant, status)
		}
		// The response's headers are flushed after the handler has
		// subscribed, so this stream is live from here on.
		return v.ID, openEvents(t, ts.URL, v.ID, 0)
	}

	// The done job holds the one worker slot at its gate, so the next
	// job waits in the queue until its DELETE.
	doneID, doneLive := start("done")
	queuedID, queuedLive := start("queued")
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queuedID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	queuedBody := readBody(t, queuedLive)
	close(gates["done"])
	doneBody := readBody(t, doneLive)
	failedID, failedLive := start("failed")
	close(gates["failed"])
	failedBody := readBody(t, failedLive)

	sp, err := exper.ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := eng.Sweep(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		id, live, tenant, terminal string
		state                      State
		done                       int
		errMsg                     string
		result                     *JobResult
	}{
		{doneID, doneBody, "done", eventDone, StateDone, cells, "", renderResult(direct)},
		{failedID, failedBody, "failed", eventError, StateFailed, 1, "stub failure <&>", nil},
		{queuedID, queuedBody, "queued", eventCanceled, StateCanceled, 0, "canceled by client before start", nil},
	} {
		s.mu.Lock()
		j := s.jobs[c.id]
		s.mu.Unlock()
		j.mu.Lock()
		released := j.spec == nil && j.sampled == nil && j.benches == nil && j.cfgs == nil &&
			j.cancel == nil && j.subs == nil && j.onFinish == nil
		j.mu.Unlock()
		if !released {
			t.Errorf("%s job: execution state kept after the terminal event", c.tenant)
		}

		var durable []string
		for _, f := range splitFrames(c.live) {
			if !strings.HasPrefix(f, "event: "+eventProgress+"\n") {
				durable = append(durable, f)
			}
		}
		if len(durable) < 2 || !strings.HasPrefix(durable[0], "event: queued\n") ||
			!strings.HasPrefix(durable[len(durable)-1], "event: "+c.terminal+"\n") {
			t.Fatalf("%s job: live stream %q does not run from queued to %s", c.tenant, c.live, c.terminal)
		}
		if got := readBody(t, openEvents(t, ts.URL, c.id, 0)); got != strings.Join(durable, "") {
			t.Errorf("%s job: full replay\n%s\ndiffers from the live stream's durable frames\n%s", c.tenant, got, strings.Join(durable, ""))
		}
		for k, f := range durable {
			for _, after := range []uint64{frameID(t, f), frameID(t, f) + 1} {
				want := ""
				for _, g := range durable[k+1:] {
					if frameID(t, g) > after {
						want += g
					}
				}
				if got := readBody(t, openEvents(t, ts.URL, c.id, after)); got != want {
					t.Errorf("%s job: replay after %d is %q, want %q", c.tenant, after, got, want)
				}
			}
		}

		body := getBody(t, ts.URL+"/v1/jobs/"+c.id)
		var got JobView
		if err := json.Unmarshal([]byte(body), &got); err != nil {
			t.Fatal(err)
		}
		if got.Finished == nil || (c.state != StateCanceled) != (got.Started != nil) {
			t.Errorf("%s job: started %v, finished %v", c.tenant, got.Started, got.Finished)
		}
		want := JobView{
			ID: c.id, Tenant: c.tenant, Class: Batch.String(), State: c.state,
			Cells:   CellCount{Total: cells, Done: c.done},
			Created: got.Created, Started: got.Started, Finished: got.Finished,
			Error: c.errMsg, Result: c.result,
		}
		if wantBody := indentJSON(t, want); body != wantBody {
			t.Errorf("%s job: GET view\n%s\nwant\n%s", c.tenant, body, wantBody)
		}
		list := getBody(t, ts.URL+"/v1/jobs?tenant="+c.tenant)
		if wantList := indentJSON(t, map[string]any{"jobs": []JobView{want}}); list != wantList {
			t.Errorf("%s job: GET list\n%s\nwant\n%s", c.tenant, list, wantList)
		}
		if c.result != nil {
			raw, _ := json.Marshal(c.result)
			if !strings.HasSuffix(durable[len(durable)-1], "\ndata: "+string(raw)+"\n\n") {
				t.Errorf("%s job: done frame does not carry the result %s", c.tenant, raw)
			}
		}
	}
}

// openEvents opens a job's event stream, resuming after lastEventID
// when it is non-zero.
func openEvents(t *testing.T, url, id string, lastEventID uint64) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/v1/jobs/"+id+"/events", nil)
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events stream of %s: status %d", id, resp.StatusCode)
	}
	return resp
}

// readBody reads a response to its end, within a minute.
func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	timer := time.AfterFunc(time.Minute, func() { resp.Body.Close() })
	defer timer.Stop()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return readBody(t, resp)
}

// indentJSON encodes v as the server's JSON responses do.
func indentJSON(t *testing.T, v any) string {
	t.Helper()
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// splitFrames splits an SSE body into its frames, each with its closing
// blank line.
func splitFrames(body string) []string {
	frames := strings.SplitAfter(body, "\n\n")
	return frames[:len(frames)-1]
}

// frameID returns a frame's id: field.
func frameID(t *testing.T, frame string) uint64 {
	t.Helper()
	for _, line := range strings.Split(frame, "\n") {
		if v, ok := strings.CutPrefix(line, "id: "); ok {
			id, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return id
		}
	}
	t.Fatalf("frame %q has no id", frame)
	return 0
}
