package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exper"
	"repro/internal/fault"
	"repro/internal/sample"
)

// Defaults for Config's zero values.
const (
	// DefaultMaxJobs is the default concurrent-job cap. Jobs fan their
	// cells out over the engine's own worker pool, so a small number of
	// concurrent jobs already saturates the simulator.
	DefaultMaxJobs = 2
	// DefaultTenantJobs is the default per-tenant running-job cap.
	DefaultTenantJobs = 1
	// DefaultQueueDepth is the default per-class wait-queue cap.
	DefaultQueueDepth = 64
)

// Config tunes a Server. The zero value gets the defaults above.
type Config struct {
	// MaxJobs bounds concurrently running jobs (not simulations — the
	// engine's worker pool bounds those).
	MaxJobs int
	// TenantJobs bounds running jobs per tenant.
	TenantJobs int
	// QueueDepth bounds each SLO class's wait queue.
	QueueDepth int
	// Logf, when set, receives operational log lines (listen address,
	// job lifecycle, drain progress).
	Logf func(format string, args ...any)
}

// jobHistory is how many finished (done, failed or canceled) jobs the
// server keeps per tenant; past it the tenant's oldest finished job is
// dropped, and a GET or an event subscription on it answers 404. A
// finished job of a few benchmarks and machines keeps about 7 KB (its
// events, table and cells), so the bound holds a tenant's history to
// about 56 MB where it used to grow with every job ever run. A client
// that reads its jobs back after a batch must read within the last
// jobHistory of them: perfbench's traced serve-mixed pass, which reads
// back every job of its run, plans 30 per second of -seconds plus 20
// per client (one tenant each), so it stays inside the bound up to
// -seconds 272.
const jobHistory = 8192

// watchKey routes engine progress telemetry to the jobs running that
// cell: the config content hash plus the benchmark name.
type watchKey struct {
	cfg   string
	bench string
}

// Server is the multi-tenant sweep service: an HTTP handler (Handler),
// a job registry, and a bounded SLO-class scheduler, all executing
// through one shared exper.Runner so identical cells dedupe across
// clients. Build with New; serve with ListenAndServe or mount
// Handler() yourself and call Shutdown for graceful drain.
type Server struct {
	engine *exper.Runner
	cfg    Config
	sched  *sched

	// baseCtx parents every job's run context; baseCancel is the
	// last-resort kill switch at the end of Shutdown.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// execute runs one job's sweep; tests stub it.
	execute func(context.Context, *Job) (*exper.SweepResult, error)

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string            // job IDs in submission order (may name dropped jobs)
	finished map[string][]string // per tenant: finished job IDs, oldest first
	history  int                 // finished jobs kept per tenant (jobHistory)
	watch    map[watchKey]map[*Job]bool
	draining bool

	nextID atomic.Uint64
	start  time.Time
}

// New builds a Server over engine. Attach the engine's store and set
// its budgets before calling; the server only adds an observer for SSE
// interval telemetry, at the engine's progress granularity.
func New(engine *exper.Runner, cfg Config) *Server {
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = DefaultMaxJobs
	}
	if cfg.TenantJobs <= 0 {
		cfg.TenantJobs = DefaultTenantJobs
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		engine:     engine,
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*Job{},
		finished:   map[string][]string{},
		history:    jobHistory,
		watch:      map[watchKey]map[*Job]bool{},
		start:      time.Now(),
	}
	s.execute = s.runSweep
	s.sched = newSched(cfg.MaxJobs, cfg.TenantJobs, cfg.QueueDepth, s.runJob, s.evictJob)
	engine.Observe(s.routeProgress)
	return s
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// ListenAndServe serves on addr until ctx is canceled (SIGINT/SIGTERM
// in the CLI), then drains gracefully for up to drainTimeout: admission
// stops, queued jobs are canceled, running jobs finish — or, past the
// timeout, abort through context cancellation. It returns nil after a
// clean drain.
func (s *Server) ListenAndServe(ctx context.Context, addr string, drainTimeout time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.cfg.Logf("serve: listening on %s", ln.Addr())
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.cfg.Logf("serve: draining (up to %s)", drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	s.Shutdown(dctx)
	_ = hs.Shutdown(dctx)
	s.cfg.Logf("serve: drained")
	return nil
}

// Shutdown drains the service: no new submissions (503), queued jobs
// canceled, running jobs drained — forcibly via context cancellation
// once ctx expires. Safe to call once; ListenAndServe calls it for you.
func (s *Server) Shutdown(ctx context.Context) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.sched.drain(ctx, s.cancelRunning)
	s.baseCancel()
}

// cancelRunning cancels every running job's context (drain deadline).
func (s *Server) cancelRunning() {
	s.mu.Lock()
	var cancels []context.CancelFunc
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == StateRunning && j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// evictJob cancels a job the drain pulled out of a wait queue.
func (s *Server) evictJob(j *Job) {
	j.finishCanceled("server draining before the job started")
}

// runJob executes one dispatched job (called on a scheduler goroutine).
// It is a containment boundary: a panic anywhere in job execution —
// engine layers re-panicking, result rendering, a stubbed execute —
// fails this job and returns its scheduler slot; the process and every
// other tenant's jobs keep running.
func (s *Server) runJob(j *Job) {
	defer s.containJobPanic(j)
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if !j.begin(cancel) {
		return // canceled while queued
	}
	s.cfg.Logf("serve: job %s start (%s, tenant %s, %d cells)", j.ID, j.Class, j.Tenant, j.totalCells())
	s.watchCells(j)
	defer s.unwatchCells(j)
	res, err := s.executeSafe(ctx, j)
	switch {
	case err == nil:
		j.finishDone(renderResult(res))
		s.cfg.Logf("serve: job %s done", j.ID)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.finishCanceled(err.Error())
		s.cfg.Logf("serve: job %s canceled: %v", j.ID, err)
	default:
		j.finishFailed(err)
		s.cfg.Logf("serve: job %s failed: %v", j.ID, err)
	}
}

// containJobPanic is runJob's last-resort recover (deferred directly,
// so recover works): anything that escaped the inner boundaries fails
// the job with a stack-carrying error. finish* on an already-terminal
// job is a no-op, so double-finishing here is safe.
func (s *Server) containJobPanic(j *Job) {
	v := recover()
	if v == nil {
		return
	}
	pe, ok := v.(*fault.PanicError)
	if !ok {
		pe = &fault.PanicError{Op: "serve: job " + j.ID, Value: v, Stack: string(debug.Stack())}
	}
	s.cfg.Logf("serve: job %s recovered panic: %v\n%s", j.ID, pe.Value, pe.Stack)
	j.finishFailed(pe)
}

// executeSafe runs the job's sweep behind a panic-containment boundary
// and the serve.job fault point (keyed "tenant/jobID", so chaos runs
// can break one tenant's job and watch the neighbors stay healthy).
func (s *Server) executeSafe(ctx context.Context, j *Job) (res *exper.SweepResult, err error) {
	defer fault.CatchPanic(&err, "serve: job "+j.ID)
	if err := fault.InjectCtx(ctx, "serve.job", j.Tenant+"/"+j.ID); err != nil {
		return nil, err
	}
	return s.execute(ctx, j)
}

// runSweep executes j's cells over the shared engine's fan-out,
// emitting one cell event per completion. Identical cells across
// concurrent jobs collapse in the engine's singleflight (and read
// through the persistent store), so a job costs one simulation per
// unique cell process-wide.
func (s *Server) runSweep(ctx context.Context, j *Job) (*exper.SweepResult, error) {
	cells, err := s.engine.Matrix(ctx, j.benches, j.cfgs, j.spec.Scale, j.sampled, func(bi, ci int) {
		j.cellDone(j.benches[bi].Name, j.cfgs[ci].Name)
	})
	if err != nil {
		return nil, err
	}
	return &exper.SweepResult{Spec: j.spec, Benches: j.benches, Cells: cells}, nil
}

// renderResult formats a finished sweep as its JobResult payload.
func renderResult(sr *exper.SweepResult) *JobResult {
	var buf bytes.Buffer
	_ = sr.WriteTable(&buf)
	out := &JobResult{
		Table:      buf.String(),
		Benchmarks: make([]string, len(sr.Benches)),
		Variants:   make([]string, len(sr.Spec.Variants)),
		Speedups:   make([][]float64, len(sr.Benches)),
	}
	for bi, b := range sr.Benches {
		out.Benchmarks[bi] = b.Name
		out.Speedups[bi] = make([]float64, len(sr.Spec.Variants))
		for vi := range sr.Spec.Variants {
			out.Speedups[bi][vi] = sr.Speedup(bi, vi)
		}
	}
	for vi, v := range sr.Spec.Variants {
		out.Variants[vi] = v.Label
	}
	return out
}

// watchCells routes engine interval telemetry for j's cells to j.
func (s *Server) watchCells(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range j.benches {
		for i := range j.cfgs {
			k := watchKey{cfg: j.cfgs[i].Key(), bench: b.Name}
			m := s.watch[k]
			if m == nil {
				m = map[*Job]bool{}
				s.watch[k] = m
			}
			m[j] = true
		}
	}
}

func (s *Server) unwatchCells(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range j.benches {
		for i := range j.cfgs {
			k := watchKey{cfg: j.cfgs[i].Key(), bench: b.Name}
			if m := s.watch[k]; m != nil {
				delete(m, j)
				if len(m) == 0 {
					delete(s.watch, k)
				}
			}
		}
	}
}

// routeProgress fans one engine telemetry interval out to the jobs
// whose sweeps contain that cell, as ephemeral SSE progress events.
func (s *Server) routeProgress(p exper.Progress) {
	k := watchKey{cfg: p.ConfigKey, bench: p.Benchmark}
	s.mu.Lock()
	var jobs []*Job
	for j := range s.watch[k] {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	if len(jobs) == 0 {
		return
	}
	data := map[string]any{
		"benchmark": p.Benchmark,
		"machine":   p.Machine,
		"scale":     p.Scale,
		"cycle":     p.Interval.EndCycle(),
		"retired":   p.Interval.Retired,
		"ipc":       p.Interval.IPC(),
	}
	for _, j := range jobs {
		j.emit("progress", data, false)
	}
}

// submitRequest is the POST /v1/sweeps body: the tenant/SLO envelope
// around a standard exper sweep spec.
type submitRequest struct {
	Tenant  string          `json:"tenant,omitempty"`
	SLO     string          `json:"slo,omitempty"`
	Sampled bool            `json:"sampled,omitempty"`
	Spec    json.RawMessage `json:"spec"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req submitRequest
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	class, err := ParseClass(req.SLO)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Spec) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("serve: request has no sweep spec"))
		return
	}
	spec, err := exper.ParseSpec(req.Spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	benches, cfgs, err := spec.Resolve()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var sc *sample.Config
	if req.Sampled {
		c := sample.DefaultConfig()
		sc = &c
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	id := fmt.Sprintf("j%06d", s.nextID.Add(1))
	j := newJob(id, tenant, class, spec, sc, benches, cfgs)
	j.onFinish = s.jobFinished

	// Register before admission so the scheduler can dispatch the job
	// the instant it is admitted; a rejected submission is unregistered
	// again (the client never learned its ID).
	s.mu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()

	if err := s.sched.submit(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, id)
		for i, x := range s.order {
			if x == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		var shed *shedError
		switch {
		case errors.As(err, &shed):
			w.Header().Set("Retry-After", strconv.Itoa(shed.RetryAfter))
			writeJSON(w, http.StatusTooManyRequests, map[string]any{
				"error": err.Error(), "retry_after_s": shed.RetryAfter,
			})
		case errors.Is(err, errDraining):
			httpError(w, http.StatusServiceUnavailable, err)
		default:
			httpError(w, http.StatusInternalServerError, err)
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+id)
	writeJSON(w, http.StatusAccepted, j.View())
}

// jobFinished records j as its tenant's newest finished job and drops
// the tenant's oldest finished jobs past the history bound.
func (s *Server) jobFinished(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jobs[j.ID] != j {
		return // never registered, or its submission was rejected
	}
	q := append(s.finished[j.Tenant], j.ID)
	for len(q) > s.history {
		delete(s.jobs, q[0])
		q = q[1:]
	}
	s.finished[j.Tenant] = q
	// order keeps dropped IDs until they outnumber the live ones; then
	// it is compacted, so its length stays within twice the registry's.
	if len(s.order) > 2*len(s.jobs) {
		live := s.order[:0]
		for _, id := range s.order {
			if s.jobs[id] != nil {
				live = append(live, id)
			}
		}
		clear(s.order[len(live):])
		s.order = live
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	s.mu.Lock()
	ids := make([]string, len(s.order))
	copy(ids, s.order)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j := s.jobs[id]; j != nil && (tenant == "" || j.Tenant == tenant) {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.View()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

// job looks a registered job up by the request's {id} path value,
// writing the 404 itself when absent.
func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no job %q", id))
	}
	return j
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	// A queued job leaves its wait queue; a running one is aborted
	// through its context. Either way the terminal event is canceled.
	if s.sched.remove(j) {
		j.finishCanceled("canceled by client before start")
	} else {
		j.mu.Lock()
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, errors.New("serve: response writer cannot stream"))
		return
	}
	var after uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		after, _ = strconv.ParseUint(v, 10, 64)
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	backlog, ch := j.subscribe(after)
	defer j.unsubscribe(ch)
	for _, ev := range backlog {
		writeEvent(w, ev)
	}
	flusher.Flush()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return // terminal event delivered (or stream dropped)
			}
			writeEvent(w, ev)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeEvent renders one SSE frame. Event data is JSON, which never
// contains raw newlines, so a single data: line suffices.
func writeEvent(w http.ResponseWriter, ev Event) {
	fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, ev.Seq, ev.Data)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Metrics is the GET /metrics payload: the engine's Stats snapshot
// (one simulation per unique cell ever, when a store is attached),
// scheduler queue depths per SLO class, job-state counts, and the
// total of load-shed (429) submissions.
type Metrics struct {
	Engine        exper.Stats    `json:"engine"`
	Queues        map[string]int `json:"queues"`
	Running       int            `json:"running"`
	Jobs          map[string]int `json:"jobs"`
	Shed          uint64         `json:"shed"`
	UptimeSeconds float64        `json:"uptime_s"`
}

// MetricsSnapshot assembles the current Metrics (also used by tests).
func (s *Server) MetricsSnapshot() Metrics {
	queues, running, shed := s.sched.depths()
	m := Metrics{
		Engine:        s.engine.Stats(),
		Queues:        queues,
		Running:       running,
		Jobs:          map[string]int{},
		Shed:          shed,
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		m.Jobs[string(j.State())]++
	}
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}

// writeJSON writes v as an indented JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
