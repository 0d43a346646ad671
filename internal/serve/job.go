package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/exper"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/workloads"
)

// Class is a job's SLO class: the admission and scheduling tier the
// submitting client chose.
type Class int

const (
	// Critical jobs are interactive: they dequeue ahead of every other
	// class and are never shed by load (only by their own queue cap).
	Critical Class = iota
	// Sheddable jobs are best-effort: they run when there is room and
	// are rejected with 429 + Retry-After while critical work backs up.
	Sheddable
	// Batch jobs are bulk work: lowest dequeue priority, shed under
	// load exactly like sheddable. The default class.
	Batch

	numClasses
)

// String returns the wire name of the class.
func (c Class) String() string {
	switch c {
	case Critical:
		return "critical"
	case Sheddable:
		return "sheddable"
	case Batch:
		return "batch"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ParseClass maps a wire name to its Class. The empty string is Batch —
// clients that do not care about latency get the sheddable bulk tier.
func ParseClass(s string) (Class, error) {
	switch s {
	case "critical":
		return Critical, nil
	case "sheddable":
		return Sheddable, nil
	case "batch", "":
		return Batch, nil
	}
	return 0, fmt.Errorf("serve: unknown SLO class %q (want critical, sheddable or batch)", s)
}

// State is a job's lifecycle state.
type State string

// Job lifecycle states. Done, Failed and Canceled are terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Event is one record of a job's progress stream, numbered
// monotonically from 1 within the job. Durable events (queued, start,
// cell, done, error, canceled) replay to late or reconnecting
// subscribers; interval-telemetry progress events are ephemeral —
// delivered to live streams only, so a long sweep's history stays
// bounded by its cell count.
type Event struct {
	Seq  uint64          `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Terminal event types.
const (
	eventDone     = "done"
	eventError    = "error"
	eventCanceled = "canceled"
)

// JobResult is the rendered outcome of a finished sweep: the same
// speedup table the CLI prints, plus the structured per-benchmark
// speedups (indexed [benchmark][variant]) for programmatic clients.
type JobResult struct {
	Table      string      `json:"table"`
	Benchmarks []string    `json:"benchmarks"`
	Variants   []string    `json:"variants"`
	Speedups   [][]float64 `json:"speedups"`
}

// CellCount is a job's progress: cells completed out of the sweep's
// total (benchmarks × configs, reference column included).
type CellCount struct {
	Total int `json:"total"`
	Done  int `json:"done"`
}

// JobView is the JSON rendering of a job's current state.
type JobView struct {
	ID       string     `json:"id"`
	Tenant   string     `json:"tenant"`
	Class    string     `json:"class"`
	State    State      `json:"state"`
	Cells    CellCount  `json:"cells"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Error    string     `json:"error,omitempty"`
	Result   *JobResult `json:"result,omitempty"`
}

// Job is one submitted sweep: identity, resolved cells, scheduling
// state, and the event history subscribers stream. All mutable state is
// guarded by mu.
type Job struct {
	ID     string
	Tenant string
	Class  Class

	spec    *exper.SweepSpec
	sampled *sample.Config

	// The resolved execution cells: cfgs[0] is the reference machine.
	// cfgKeys[i] is cfgs[i].Key(), hashed once at admission for the
	// telemetry routing table.
	benches []*workloads.Benchmark
	cfgs    []pipeline.Config
	cfgKeys []string

	mu       sync.Mutex
	state    State
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	done     int
	result   *JobResult
	cancel   context.CancelFunc // set while running

	seq      uint64
	events   []Event // durable history, replayable
	subs     map[chan Event]bool
	terminal bool

	// onFinish, when set, runs once the job reaches a terminal state,
	// after mu is released (the server's history bound).
	onFinish func(*Job)
}

// newJob builds a queued job for an already-resolved spec.
func newJob(id, tenant string, class Class, spec *exper.SweepSpec, sc *sample.Config,
	benches []*workloads.Benchmark, cfgs []pipeline.Config) *Job {
	j := &Job{
		ID:      id,
		Tenant:  tenant,
		Class:   class,
		spec:    spec,
		sampled: sc,
		benches: benches,
		cfgs:    cfgs,
		cfgKeys: make([]string, len(cfgs)),
		state:   StateQueued,
		created: time.Now(),
		subs:    map[chan Event]bool{},
	}
	for i := range cfgs {
		j.cfgKeys[i] = cfgs[i].Key()
	}
	j.emit("queued", map[string]any{
		"id": id, "tenant": tenant, "class": class.String(), "cells": j.totalCells(),
	}, true)
	return j
}

func (j *Job) totalCells() int { return len(j.benches) * len(j.cfgs) }

// View snapshots the job for JSON rendering.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:      j.ID,
		Tenant:  j.Tenant,
		Class:   j.Class.String(),
		State:   j.state,
		Cells:   CellCount{Total: j.totalCells(), Done: j.done},
		Created: j.created,
		Error:   j.errMsg,
		Result:  j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// emit appends (durable) or broadcasts (ephemeral) one event. A slow
// subscriber whose buffer cannot take a durable event has its stream
// closed — it reconnects with Last-Event-ID rather than silently
// missing history; ephemeral events are simply dropped for it.
func (j *Job) emit(typ string, data any, durable bool) {
	var raw json.RawMessage
	if data != nil {
		raw, _ = json.Marshal(data)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.emitLocked(typ, raw, durable)
}

func (j *Job) emitLocked(typ string, raw json.RawMessage, durable bool) {
	if j.terminal {
		return
	}
	j.seq++
	ev := Event{Seq: j.seq, Type: typ, Data: raw}
	if durable {
		j.events = append(j.events, ev)
	}
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
			if durable {
				delete(j.subs, ch)
				close(ch)
			}
		}
	}
	if typ == eventDone || typ == eventError || typ == eventCanceled {
		j.terminal = true
		for ch := range j.subs {
			delete(j.subs, ch)
			close(ch)
		}
	}
}

// subscribe registers a live event stream: the durable history after
// seq `after` (0 = from the beginning), plus a channel of subsequent
// events. The channel is closed by the emitter at the terminal event
// (or immediately when the job is already terminal); the caller must
// call unsubscribe when it stops reading early.
func (j *Job) subscribe(after uint64) ([]Event, chan Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var backlog []Event
	for _, ev := range j.events {
		if ev.Seq > after {
			backlog = append(backlog, ev)
		}
	}
	ch := make(chan Event, 256)
	if j.terminal {
		close(ch)
		return backlog, ch
	}
	j.subs[ch] = true
	return backlog, ch
}

// unsubscribe detaches an abandoned stream. Closing is the emitter's
// job; a channel already closed at the terminal event is simply gone
// from the map.
func (j *Job) unsubscribe(ch chan Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.subs, ch)
}

// begin moves a dispatched job to running, recording its cancel hook.
// It reports false when the job was canceled while queued — the
// scheduler then skips execution entirely.
func (j *Job) begin(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	raw, _ := json.Marshal(map[string]any{"cells": j.totalCells()})
	j.emitLocked("start", raw, true)
	return true
}

// cellDone records one completed cell and emits its progress event.
func (j *Job) cellDone(benchmark, machine string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done++
	raw, _ := json.Marshal(map[string]any{
		"benchmark": benchmark, "machine": machine,
		"done": j.done, "total": j.totalCells(),
	})
	j.emitLocked("cell", raw, true)
}

// finishDone renders the sweep result and marks the job done, emitting
// the terminal done event with the result payload.
func (j *Job) finishDone(res *JobResult) {
	raw, _ := json.Marshal(res)
	j.finish(StateDone, "", res, eventDone, raw)
}

// finishFailed marks the job failed with err's message.
func (j *Job) finishFailed(err error) {
	raw, _ := json.Marshal(map[string]any{"error": err.Error()})
	j.finish(StateFailed, err.Error(), nil, eventError, raw)
}

// finishCanceled marks the job canceled (client DELETE, drain, or a
// canceled run context), with a human-readable reason.
func (j *Job) finishCanceled(reason string) {
	raw, _ := json.Marshal(map[string]any{"reason": reason})
	j.finish(StateCanceled, reason, nil, eventCanceled, raw)
}

// finish moves the job to its terminal state and emits the terminal
// event, unless it is already terminal; then it runs onFinish.
func (j *Job) finish(state State, errMsg string, res *JobResult, typ string, raw json.RawMessage) {
	j.mu.Lock()
	if j.terminalLocked() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.finished = time.Now()
	j.errMsg = errMsg
	j.result = res
	j.emitLocked(typ, raw, true)
	hook := j.onFinish
	j.mu.Unlock()
	if hook != nil {
		hook(j)
	}
}

// terminalLocked reports whether the job already reached a terminal
// state (mu held).
func (j *Job) terminalLocked() bool {
	return j.state == StateDone || j.state == StateFailed || j.state == StateCanceled
}
