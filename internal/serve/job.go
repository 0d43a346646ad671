package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
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

// Event types. A job's events are numbered monotonically from 1.
// Durable events (queued, start, cell, and the terminal done, error or
// canceled) replay to late or reconnecting subscribers; interval
// telemetry progress events are ephemeral — delivered to live streams
// only, so a long sweep's history stays bounded by its cell count.
const (
	eventQueued   = "queued"
	eventStart    = "start"
	eventCell     = "cell"
	eventProgress = "progress"
	eventDone     = "done"
	eventError    = "error"
	eventCanceled = "canceled"
)

// Event payloads. Their fields are in sorted key order, so each one
// encodes to the same bytes as a map of the same keys and values.
type (
	queuedData struct {
		Cells  int    `json:"cells"`
		Class  string `json:"class"`
		ID     string `json:"id"`
		Tenant string `json:"tenant"`
	}
	startData struct {
		Cells int `json:"cells"`
	}
	cellData struct {
		Benchmark string `json:"benchmark"`
		Done      int    `json:"done"`
		Machine   string `json:"machine"`
		Total     int    `json:"total"`
	}
	progressData struct {
		Benchmark string  `json:"benchmark"`
		Cycle     uint64  `json:"cycle"`
		IPC       float64 `json:"ipc"`
		Machine   string  `json:"machine"`
		Retired   uint64  `json:"retired"`
		Scale     int     `json:"scale"`
	}
	errorData struct {
		Error string `json:"error"`
	}
	canceledData struct {
		Reason string `json:"reason"`
	}
)

// marshal encodes an event payload. The payloads are plain structs and
// a JobResult, which always encode, except a result holding a NaN or
// infinite speedup: that done event carries empty data.
func marshal(v any) []byte {
	raw, _ := json.Marshal(v)
	return raw
}

// appendFrame appends one event as a Server-Sent-Events frame. Event
// data is JSON, which never contains raw newlines, so a single data:
// line suffices.
func appendFrame(b []byte, typ string, seq uint64, data []byte) []byte {
	b = append(b, "event: "...)
	b = append(b, typ...)
	b = append(b, "\nid: "...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, "\ndata: "...)
	b = append(b, data...)
	return append(b, "\n\n"...)
}

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

// Job is one submitted sweep: identity, scheduling state, and the event
// history subscribers stream. A job that reaches a terminal state keeps
// only what its view and its history need: the execution state (spec,
// resolved cells, cancel hook, subscribers, finish hook) is dropped at
// the terminal event. All mutable state is guarded by mu.
type Job struct {
	ID     string
	Tenant string
	Class  Class

	// What running the job needs: the parsed spec and the resolved
	// cells, cfgs[0] being the reference machine. Read without mu by
	// the job's run, the only path that finishes a running job; nil
	// once the job is terminal.
	spec    *exper.SweepSpec
	sampled *sample.Config
	benches []*workloads.Benchmark
	cfgs    []pipeline.Config

	mu       sync.Mutex
	state    State
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	cells    int // benchmarks × configs
	done     int
	cancel   context.CancelFunc // set while running

	// The durable history: its events as SSE frames, back to back, and
	// where each one starts. A terminal job's done frame carries its
	// result; View decodes it from there.
	seq    uint64
	log    []byte
	frames []frameMark
	// subs are the live streams; each receives every later frame.
	subs     map[chan []byte]bool
	terminal bool

	// onFinish, when set, runs once the job reaches a terminal state,
	// after mu is released (the server's history bound).
	onFinish func(*Job)
}

// frameMark locates one durable event's frame in a job's log.
type frameMark struct {
	seq uint64
	off int
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
		state:   StateQueued,
		created: time.Now(),
		cells:   len(benches) * len(cfgs),
	}
	j.emit(eventQueued, marshal(queuedData{
		Cells: j.cells, Class: class.String(), ID: id, Tenant: tenant,
	}), true)
	return j
}

// View snapshots the job for JSON rendering.
func (j *Job) View() JobView {
	j.mu.Lock()
	v := JobView{
		ID:      j.ID,
		Tenant:  j.Tenant,
		Class:   j.Class.String(),
		State:   j.state,
		Cells:   CellCount{Total: j.cells, Done: j.done},
		Created: j.created,
		Error:   j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	var last []byte
	if j.state == StateDone {
		last = j.log[j.frames[len(j.frames)-1].off:]
	}
	j.mu.Unlock()
	// A terminal job's log no longer changes, so its done frame is read
	// unlocked: the data line between "\ndata: " and the closing "\n\n".
	if last != nil {
		data := last[bytes.Index(last, []byte("\ndata: "))+len("\ndata: ") : len(last)-2]
		var res JobResult
		if json.Unmarshal(data, &res) == nil {
			v.Result = &res
		}
	}
	return v
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// emit appends (durable) or broadcasts (ephemeral) one event whose
// payload is already encoded.
func (j *Job) emit(typ string, data []byte, durable bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.emitLocked(typ, data, durable)
}

// emitLocked formats the event's frame once and hands it to every live
// stream. A slow subscriber whose buffer cannot take a durable event has
// its stream closed — it reconnects with Last-Event-ID rather than
// silently missing history; ephemeral events are simply dropped for it.
func (j *Job) emitLocked(typ string, data []byte, durable bool) {
	if j.terminal {
		return
	}
	j.seq++
	var frame []byte
	if durable {
		off := len(j.log)
		j.log = appendFrame(j.log, typ, j.seq, data)
		j.frames = append(j.frames, frameMark{seq: j.seq, off: off})
		frame = j.log[off:len(j.log):len(j.log)]
	} else {
		frame = appendFrame(nil, typ, j.seq, data)
	}
	for ch := range j.subs {
		select {
		case ch <- frame:
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
			close(ch)
		}
		j.subs = nil
	}
}

// subscribe registers a live event stream: the durable history after
// seq `after` (0 = from the beginning) as one run of frames, plus a
// channel of the frames of subsequent events. The channel is closed by
// the emitter at the terminal event (or immediately when the job is
// already terminal); the caller must call unsubscribe when it stops
// reading early. Neither the backlog nor a received frame may be
// modified.
func (j *Job) subscribe(after uint64) ([]byte, chan []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	i := sort.Search(len(j.frames), func(i int) bool { return j.frames[i].seq > after })
	var backlog []byte
	if i < len(j.frames) {
		backlog = j.log[j.frames[i].off:len(j.log):len(j.log)]
	}
	// Room for a burst of cell and progress frames while the handler
	// writes to a slow client, before a durable event closes the stream.
	ch := make(chan []byte, 256)
	if j.terminal {
		close(ch)
		return backlog, ch
	}
	if j.subs == nil {
		j.subs = map[chan []byte]bool{}
	}
	j.subs[ch] = true
	return backlog, ch
}

// unsubscribe detaches an abandoned stream. Closing is the emitter's
// job; a channel already closed at the terminal event is simply gone
// from the map.
func (j *Job) unsubscribe(ch chan []byte) {
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
	j.emitLocked(eventStart, marshal(startData{Cells: j.cells}), true)
	return true
}

// cellDone records one completed cell and emits its progress event.
func (j *Job) cellDone(benchmark, machine string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done++
	j.emitLocked(eventCell, marshal(cellData{
		Benchmark: benchmark, Done: j.done, Machine: machine, Total: j.cells,
	}), true)
}

// finishDone marks the job done, emitting the terminal done event with
// the result payload.
func (j *Job) finishDone(res *JobResult) {
	j.finish(StateDone, "", eventDone, marshal(res))
}

// finishFailed marks the job failed with err's message.
func (j *Job) finishFailed(err error) {
	j.finish(StateFailed, err.Error(), eventError, marshal(errorData{Error: err.Error()}))
}

// finishCanceled marks the job canceled (client DELETE, drain, or a
// canceled run context), with a human-readable reason.
func (j *Job) finishCanceled(reason string) {
	j.finish(StateCanceled, reason, eventCanceled, marshal(canceledData{Reason: reason}))
}

// finish moves the job to its terminal state and emits the terminal
// event, unless it is already terminal; it then drops the execution
// state and runs onFinish. A job canceled while queued never runs, so
// the release is here rather than at the end of a run.
func (j *Job) finish(state State, errMsg, typ string, data []byte) {
	j.mu.Lock()
	if j.terminal {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.finished = time.Now()
	j.errMsg = errMsg
	j.emitLocked(typ, data, true)
	// The history is complete: keep it without append's spare capacity.
	j.log = slices.Clone(j.log)
	j.frames = slices.Clone(j.frames)
	hook := j.onFinish
	j.spec, j.sampled, j.benches, j.cfgs = nil, nil, nil, nil
	j.cancel, j.onFinish = nil, nil
	j.mu.Unlock()
	if hook != nil {
		hook(j)
	}
}
