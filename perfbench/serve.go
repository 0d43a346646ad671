package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/exper"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/workloads"
)

// The serve-mixed universe: 8 built-ins covering all four behaviour
// classes at one small absolute scale (their traces total about
// 11 MiB, far inside the trace budget), so little timing-pass work is
// done per job.
var serveBenches = []string{"bzp", "g721e", "gap", "mcf", "msa", "tst", "twf", "g721d"}

const (
	serveScale = 2
	// hotConfigs is the size of the repeated config set: cells over
	// it are simulated once, then served from memory or deduped.
	hotConfigs = 6
	// pSampled is the share of sampled jobs.
	pSampled = 0.8
	// Per variant column of a job: the chance it is store-resident
	// (written to the store during set-up, read through once) or new
	// (never seen, simulated); otherwise it repeats a hot config. The
	// reference column always repeats, and a sampled job's first
	// variant is always new, so job cost has one broad mode (sampled
	// jobs) beside a small cheap one (exact jobs) and the median sits
	// inside the broad one. New columns occur only in sampled jobs:
	// the engine keeps every exact result it computes, and an exact
	// result keeps its whole pipeline.Session (about 0.3 MB)
	// reachable, so a stream of new exact cells would grow the heap
	// without bound.
	pStoreExact   = 0.15
	pStoreSampled = 0.08
	pNewSampled   = 0.30
	// prefillRate is how many jobs per second of the timed region
	// set-up prefills the store cells of, per client: about twice what
	// one client finishes on a 2-core host. A client that runs out of
	// jobs before the deadline ends the timed region for all of them
	// (see drive).
	prefillRate = 60
	// serveSetupReps is how many times serve-mixed sets up; each
	// repetition writes every store-resident cell.
	serveSetupReps = 10
	// digestJobs is how many leading jobs per client the committed
	// output digest covers; their tables are also checked against a
	// storeless engine that simulates every cell again.
	digestJobs = 20
)

// knob is one of the paper's sensitivity axes (Figures 10-12 and the
// MBC ablation) as a sweep-spec field path and its values. Every
// combination is a valid machine; none changes the instruction stream.
type knob struct {
	path string
	vals []int
}

var sensitivityKnobs = []knob{
	{"Opt.DepDepth", []int{0, 1, 3}},
	{"OptStages", []int{0, 2, 4}},
	{"FeedbackDelay", []int{0, 1, 5, 10}},
	{"Opt.MBCEntries", []int{32, 64, 128}},
}

// gridSize is the number of distinct knob combinations.
func gridSize() int {
	n := 1
	for _, k := range sensitivityKnobs {
		n *= len(k.vals)
	}
	return n
}

// gridVariant returns the idx-th knob combination as a variant.
func gridVariant(label string, idx int) exper.VariantSpec {
	set := map[string]any{}
	for _, k := range sensitivityKnobs {
		set[k.path] = k.vals[idx%len(k.vals)]
		idx /= len(k.vals)
	}
	return exper.VariantSpec{Label: label, Set: set}
}

// serveMachines is the number of distinct serve-mixed machines: the
// sensitivity knobs times 256 register-file sizes (512..1532 entries,
// ample for every MBC size).
func serveMachines() int { return gridSize() * 256 }

// serveVariant returns machine idx of the serve-mixed grid.
func serveVariant(label string, idx int) exper.VariantSpec {
	v := gridVariant(label, idx%gridSize())
	v.Set["PRegs"] = 512 + 4*(idx/gridSize())
	return v
}

// cell kinds.
const (
	kindRepeat = iota
	kindStore
	kindNew
)

// job is one seeded sweep submission of one client.
type job struct {
	client, index int
	sampled       bool
	spec          exper.SweepSpec
	kinds         []int // per variant
}

// planJobs generates n jobs for each of par clients from the seed, so
// set-up can prefill exactly the store cells the run will read. Every
// store-resident and new column takes the next unused machine of the
// grid, so no two of them share a machine.
func planJobs(seed uint64, par, n int) ([][]job, error) {
	jobs := make([][]job, par)
	next := hotConfigs
	for i := 0; i < n; i++ {
		for c := 0; c < par; c++ {
			jobs[c] = append(jobs[c], genJob(seed, c, i, &next))
		}
	}
	if next > serveMachines() {
		return nil, fmt.Errorf("serve-mixed: %d jobs per client need %d machines, the grid has %d", n, next, serveMachines())
	}
	return jobs, nil
}

// genJob derives job index of client c from the seed; its store and
// new columns take machines from *next on.
func genJob(seed uint64, c, index int, next *int) job {
	rng := newRNG(seed, uint64(1000+c)<<32|uint64(index))
	nb := 1 + rng.IntN(3)
	nv := 2 + rng.IntN(3)
	j := job{client: c, index: index, sampled: rng.Float64() < pSampled}
	perm := rng.Perm(len(serveBenches))
	for _, i := range perm[:nb] {
		j.spec.Benchmarks = append(j.spec.Benchmarks, serveBenches[i])
	}
	j.spec.Title = fmt.Sprintf("client %d job %d", c, index)
	j.spec.Scale = serveScale
	j.spec.PerBenchmark = true
	j.spec.Reference = &exper.VariantSpec{Label: "baseline", Baseline: true}
	pStore, pNew := pStoreExact, 0.0
	if j.sampled {
		pStore, pNew = pStoreSampled, pNewSampled
	}
	for v := 0; v < nv; v++ {
		label := fmt.Sprintf("v%d", v+1)
		kind := kindRepeat
		switch x := rng.Float64(); {
		case j.sampled && v == 0:
			kind = kindNew
		case x < pStore:
			kind = kindStore
		case x < pStore+pNew:
			kind = kindNew
		}
		machine := rng.IntN(hotConfigs)
		if kind != kindRepeat {
			machine = *next
			*next++
		}
		j.kinds = append(j.kinds, kind)
		j.spec.Variants = append(j.spec.Variants, serveVariant(label, machine))
	}
	return j
}

// cellCount returns (repeat, store, new) cell counts of j, the
// reference column counted as repeat.
func (j job) cellCount() [3]int {
	var n [3]int
	nb := len(j.spec.Benchmarks)
	n[kindRepeat] += nb
	for _, k := range j.kinds {
		n[k] += nb
	}
	return n
}

// served is one finished job as the client saw it.
type served struct {
	job
	id       string
	table    string
	latency  time.Duration
	received time.Time // terminal event arrival
}

// serveRun is one server instance with its store and clients' results.
type serveRun struct {
	srv     *serve.Server
	ts      *httptest.Server
	engine  *exper.Runner
	st      *store.Store
	dir     string
	jobs    []*served
	refused int
	failed  int
	elapsed time.Duration
	steal   float64 // host CPU steal share over the timed region
	stats   exper.Stats
	shed    uint64
	counts  map[string]uint64 // instructions each cell of a benchmark covers
}

// stop drains the server; the store stays until remove.
func (s *serveRun) stop() {
	if s.ts != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		s.srv.Shutdown(ctx)
		cancel()
		s.ts.Close()
		s.ts = nil
	}
}

func (s *serveRun) remove() {
	s.stop()
	os.RemoveAll(s.dir)
}

// entry is one store-resident result, kept encoded: the set-ups
// write it many times, and encoded bytes cost the collector nothing
// to scan during the timed region.
type entry struct {
	key store.Key
	val json.RawMessage
}

// storeCells computes the results of the store-resident cells of every
// planned job, once per run, through a separate engine: they stand in
// for what an earlier process left in the store.
func storeCells(ctx context.Context, o opts, jobs [][]job) ([]entry, error) {
	pre := exper.NewRunner(o.par)
	sc := sample.DefaultConfig().Normalize()
	var out []entry
	var errs []error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, cj := range jobs {
		for _, j := range cj {
			spec, err := parseSpec(&j.spec)
			if err != nil {
				return nil, err
			}
			bs, cfgs, err := spec.Resolve()
			if err != nil {
				return nil, err
			}
			for vi, k := range j.kinds {
				if k != kindStore {
					continue
				}
				for _, b := range bs {
					cfg := cfgs[vi+1]
					wg.Add(1)
					go func() {
						defer wg.Done()
						var e entry
						var res any
						var err error
						wk := workloadKey(b, serveScale)
						if j.sampled {
							e.key = store.SampledKey(cfg.Key(), b.Name, serveScale, sc.Key(), wk)
							res, err = pre.RunSampled(ctx, cfg, b, serveScale, sc)
						} else {
							e.key = store.ExactKey(cfg.Key(), b.Name, serveScale, wk)
							res, err = pre.Run(ctx, cfg, b, serveScale)
						}
						if err == nil {
							e.val, err = json.Marshal(res)
						}
						mu.Lock()
						defer mu.Unlock()
						if err != nil {
							errs = append(errs, err)
							return
						}
						out = append(out, e)
					}()
				}
			}
		}
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// serveSetup assembles the universe, opens a fresh store, writes the
// store-resident cells into it and starts the server on loopback.
func serveSetup(o opts, cells []entry, tr *tracer) (*serveRun, error) {
	benches, err := benchByName(serveBenches)
	if err != nil {
		return nil, err
	}
	assemble(benches, serveScales(), tr)
	st, dir, err := openStore(o, "store")
	if err != nil {
		return nil, err
	}
	run := &serveRun{st: st, dir: dir}
	errs := make([]error, o.par)
	var wg sync.WaitGroup
	for w := 0; w < o.par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(cells); i += o.par {
				if err := st.Put(cells[i].key, cells[i].val); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		run.remove()
		return nil, fmt.Errorf("prefill: %w", err)
	}
	run.engine = exper.NewRunner(o.par)
	run.engine.SetStore(st)
	run.srv = serve.New(run.engine, serve.Config{})
	run.ts = httptest.NewServer(run.srv.Handler())
	return run, nil
}

// serveMixed runs nproc closed-loop clients against an in-process
// server: each posts a seeded job, streams its events to the terminal
// one and posts the next, with no think time.
func serveMixed(ctx context.Context, o opts, t *tally, tr *tracer) (map[string]metric, error) {
	phase := o.seconds
	if tr != nil {
		phase = o.seconds / 2
	}
	jobs, err := planJobs(o.seed, o.par, int(phase*prefillRate)+digestJobs)
	if err != nil {
		return nil, err
	}
	cells, err := storeCells(ctx, o, jobs)
	if err != nil {
		return nil, err
	}
	var run *serveRun
	setupS, err := timeSetup(serveSetupReps, func() error {
		var err error
		run, err = serveSetup(o, cells, nil)
		return err
	}, func() { run.remove() })
	if err != nil {
		if run != nil {
			run.remove()
		}
		return nil, err
	}
	defer run.remove()
	shares := designShares(jobs)
	fmt.Fprintf(os.Stderr, "perfbench: serve-mixed: %d clients, %d store-resident cells; design cell shares: %.0f%% repeated, %.0f%% store-resident, %.0f%% new\n",
		o.par, len(cells), 100*shares[kindRepeat], 100*shares[kindStore], 100*shares[kindNew])
	counts := instCounts(mustBenches(), serveScales(), tr)
	run.counts = counts
	heap := drive(ctx, o, run, phase, jobs, nil)
	run.stop()
	e2e := run.metrics(setupS, heap)
	if err := checkServed(ctx, o, run, t); err != nil {
		return nil, err
	}
	if tr == nil {
		return e2e, nil
	}
	run.remove()
	*run = serveRun{} // the traced pass must not measure this server's heap

	m := map[string]metric{}
	gc := readGC()
	c0 := userSeconds()
	trun, err := serveSetup(o, cells, tr)
	if err != nil {
		return nil, err
	}
	defer trun.remove()
	tracedSetup := userSeconds() - c0
	trun.counts = counts
	heap = drive(ctx, o, trun, phase, jobs, tr)
	overheadMetrics(e2e, trun.metrics(tracedSetup, heap), m)
	if err := serveLayers(ctx, trun, tr, m); err != nil {
		return nil, err
	}
	trun.stop()
	if err := checkServed(ctx, o, trun, t); err != nil {
		return nil, err
	}
	gcMetricsSince(gc, m)
	m["emu.ffwd_ns_per_inst"] = metric{ffwdNsPerInst(tr, counts), "ns"}
	m["asm.assemble_ms"] = metric{sumMs(tr.byName("asm.Program")), "ms"}
	return m, nil
}

func mustBenches() []*workloads.Benchmark {
	bs, err := benchByName(serveBenches)
	if err != nil {
		panic(err) // serveBenches names built-ins
	}
	return bs
}

func serveScales() []int {
	s := make([]int, len(serveBenches))
	for i := range s {
		s[i] = serveScale
	}
	return s
}

// designShares is the share of each cell kind over the planned jobs.
func designShares(jobs [][]job) [3]float64 {
	var n [3]int
	for _, cj := range jobs {
		for _, j := range cj {
			k := j.cellCount()
			for x := range n {
				n[x] += k[x]
			}
		}
	}
	total := float64(n[0] + n[1] + n[2])
	return [3]float64{float64(n[0]) / total, float64(n[1]) / total, float64(n[2]) / total}
}

// drive runs the closed-loop clients for seconds and returns the peak
// heap over that region. Jobs past the planned ones would read their
// store columns as misses, so when a client has run all of its jobs
// every client stops after its current one: the region ends early but
// stays under full contention and keeps the same job mix.
func drive(ctx context.Context, o opts, run *serveRun, seconds float64, jobs [][]job, tr *tracer) float64 {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * o.par}}
	defer client.CloseIdleConnections()
	var mu sync.Mutex
	runtime.GC()
	h := startHeap()
	host := readHostCPU()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	stop := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for c := 0; c < o.par; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i == len(jobs[c]) {
					once.Do(func() {
						fmt.Fprintf(os.Stderr, "perfbench: serve-mixed: client %d ran all %d planned jobs after %.1f s; the timed region ends there\n",
							c, i, time.Since(start).Seconds())
						close(stop)
					})
					return
				}
				j := jobs[c][i]
				sv, refused, err := submit(ctx, client, run.ts.URL, j, c, tr)
				mu.Lock()
				switch {
				case refused:
					run.refused++
				case err != nil:
					run.failed++
					fmt.Fprintf(os.Stderr, "perfbench: job %d/%d: %v\n", c, i, err)
				default:
					run.jobs = append(run.jobs, sv)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	run.elapsed = time.Since(start)
	run.steal = host.stealShare()
	peak := h.end()
	run.stats = run.engine.Stats()
	run.shed = run.srv.MetricsSnapshot().Shed
	return peak
}

// submit posts one job and streams its events to the terminal one.
func submit(ctx context.Context, client *http.Client, base string, j job, c int, tr *tracer) (*served, bool, error) {
	class := "critical"
	if c%2 == 1 {
		class = "batch"
	}
	body, err := json.Marshal(map[string]any{
		"tenant": fmt.Sprintf("tenant-%d", c), "slo": class, "sampled": j.sampled, "spec": j.spec,
	})
	if err != nil {
		return nil, false, err
	}
	cell := fmt.Sprintf("job %d/%d", c, j.index)
	root := tr.begin("job", cell, nil)
	defer root.end()
	t0 := time.Now()
	ps := tr.begin("serve.POST", cell, root)
	resp, err := client.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		ps.end()
		return nil, false, err
	}
	var view serve.JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	ps.end()
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		return nil, true, nil
	}
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return nil, false, fmt.Errorf("POST: status %d: %v", resp.StatusCode, err)
	}
	ss := tr.begin("serve.events", cell, root)
	defer ss.end()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+view.ID+"/events", nil)
	if err != nil {
		return nil, false, err
	}
	resp, err = client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	typ, data, err := terminalEvent(resp.Body)
	received := time.Now()
	if err != nil {
		return nil, false, err
	}
	if typ != "done" {
		return nil, false, fmt.Errorf("job %s ended %s: %s", view.ID, typ, data)
	}
	var res serve.JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, false, err
	}
	return &served{job: j, id: view.ID, table: res.Table, latency: received.Sub(t0), received: received}, false, nil
}

// terminalEvent reads an SSE stream up to its done, error or canceled
// event and returns that event's type and data.
func terminalEvent(r io.Reader) (string, []byte, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var typ string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			if typ == "done" || typ == "error" || typ == "canceled" {
				return typ, []byte(line[len("data: "):]), nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", nil, err
	}
	return "", nil, errors.New("event stream ended before a terminal event")
}

// metrics are the end-to-end metrics of one driven server. Every wall
// time of the timed region is scaled by 1 - (host steal share over the
// region): the time the region would have taken had no other guest
// taken the host's processors (see stealShare).
func (s *serveRun) metrics(setup, heap float64) map[string]metric {
	scale := 1 - s.steal
	lat := make([]float64, len(s.jobs))
	var insts uint64
	for i, j := range s.jobs {
		lat[i] = scale * float64(j.latency) / float64(time.Millisecond)
		for _, b := range j.spec.Benchmarks {
			insts += s.counts[b] * uint64(1+len(j.spec.Variants))
		}
	}
	secs := scale * s.elapsed.Seconds()
	fmt.Fprintf(os.Stderr, "perfbench: serve-mixed: %d jobs in %.2f s of wall time, host CPU steal %.1f%% of the CPU time wanted; unscaled p50 %.2f ms\n",
		len(s.jobs), s.elapsed.Seconds(), 100*s.steal, median(lat)/scale)
	return map[string]metric{
		"setup_s":      {setup, "s"},
		"insts_per_s":  {float64(insts) / secs, "1/s"},
		"jobs_per_s":   {float64(len(s.jobs)) / secs, "1/s"},
		"job_p50_ms":   {median(lat), "ms"},
		"job_p99_ms":   {quantile(lat, 0.99), "ms"},
		"heap_peak_mb": {heap, "MB"},
	}
}

// checkServed compares every served table with the table an
// in-process Runner.Sweep (or SweepSampled) of the same spec prints on
// a fresh engine reading the run's store, and the leading jobs of each
// client also with a fresh storeless engine that simulates every cell
// again; those leading tables make the committed default-seed digest.
func checkServed(ctx context.Context, o opts, run *serveRun, t *tally) error {
	t.add(len(run.jobs)+run.refused+run.failed, run.refused+run.failed)
	if run.refused+run.failed > 0 {
		t.fail(0, "%d jobs refused, %d failed", run.refused, run.failed)
	}
	resilience(run.stats, t, nil)
	st, err := store.Open(run.dir)
	if err != nil {
		return err
	}
	warm := exper.NewRunner(o.par)
	warm.SetStore(st)
	cold := exper.NewRunner(o.par)
	lead := make([][]string, o.par)
	for c := range lead {
		lead[c] = make([]string, digestJobs)
	}
	for _, sv := range run.jobs {
		want, err := sweepTable(ctx, warm, sv.job)
		if err != nil || want != sv.table {
			t.fail(1, "job %d/%d: served table differs from Runner.Sweep over the store (%v)", sv.client, sv.index, err)
			continue
		}
		if sv.index < digestJobs {
			if want, err = sweepTable(ctx, cold, sv.job); err != nil || want != sv.table {
				t.fail(1, "job %d/%d: served table differs from a storeless Runner.Sweep (%v)", sv.client, sv.index, err)
			}
			lead[sv.client][sv.index] = sv.table
		}
	}
	setDigest(t, "serve-mixed", false, digest(lead))
	return nil
}

// sweepTable renders j's spec through the engine's own sweep call.
func sweepTable(ctx context.Context, r *exper.Runner, j job) (string, error) {
	spec, err := parseSpec(&j.spec)
	if err != nil {
		return "", err
	}
	var res *exper.SweepResult
	if j.sampled {
		res, err = r.SweepSampled(ctx, spec, sample.DefaultConfig())
	} else {
		res, err = r.Sweep(ctx, spec)
	}
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	err = res.WriteTable(&buf)
	return buf.String(), err
}

// serveLayers derives the per-layer metrics of a traced server run:
// job timelines from GET /v1/jobs/{id}, and each job's cells re-run
// through the engine's public calls (now answered from its memory),
// with a direct store.Get of every store-resident cell and
// SweepResult.WriteTable of the reassembled result, which must match
// the served table.
func serveLayers(ctx context.Context, run *serveRun, tr *tracer, m map[string]metric) error {
	st := run.stats
	var (
		runMs, lagMs, overhead []float64
		wait                   = map[string][]float64{}
		distinct               = map[string]bool{}
		sampledBenches         = map[string]bool{}
		mismatches             int
	)
	for _, sv := range run.jobs {
		resp, err := http.Get(run.ts.URL + "/v1/jobs/" + sv.id)
		if err != nil {
			return err
		}
		var v serve.JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if v.Started == nil || v.Finished == nil {
			return fmt.Errorf("job %s has no start or finish time", sv.id)
		}
		runMs = append(runMs, ms(v.Finished.Sub(*v.Started)))
		lagMs = append(lagMs, ms(sv.received.Sub(*v.Finished)))
		wait[v.Class] = append(wait[v.Class], ms(v.Started.Sub(v.Created)))

		spec, err := parseSpec(&sv.spec)
		if err != nil {
			return err
		}
		benches, cfgs, err := spec.Resolve()
		if err != nil {
			return err
		}
		res := &exper.SweepResult{Spec: spec, Benches: benches, Cells: make([][]*pipeline.Result, len(benches))}
		for bi, b := range benches {
			res.Cells[bi] = make([]*pipeline.Result, len(cfgs))
			for ci, cfg := range cfgs {
				id := fmt.Sprintf("%s %s/%s", sv.id, b.Name, cfg.Name)
				wk := workloadKey(b, serveScale)
				distinct[fmt.Sprint(sv.sampled, cfg.Key(), b.Name)] = true
				es := tr.begin("exper.Run", id, nil)
				var out *pipeline.Result
				if sv.sampled {
					sampledBenches[b.Name] = true
					var sr *sample.Result
					sr, err = run.engine.RunSampled(ctx, cfg, b, serveScale, sample.DefaultConfig())
					if err == nil {
						out = sr.Estimate()
					}
				} else {
					out, err = run.engine.Run(ctx, cfg, b, serveScale)
				}
				es.end()
				if err != nil {
					return err
				}
				res.Cells[bi][ci] = out
				d := es.dur()
				if ci > 0 && sv.kinds[ci-1] == kindStore {
					gs := tr.begin("store.Get", id, nil)
					if sv.sampled {
						var sr sample.Result
						sc := sample.DefaultConfig().Normalize()
						err = run.st.Get(store.SampledKey(cfg.Key(), b.Name, serveScale, sc.Key(), wk), &sr)
					} else {
						var r pipeline.Result
						err = run.st.Get(store.ExactKey(cfg.Key(), b.Name, serveScale, wk), &r)
					}
					gs.end()
					if err != nil {
						return fmt.Errorf("store-resident cell %s: %w", id, err)
					}
				}
				overhead = append(overhead, ms(d))
			}
		}
		var buf bytes.Buffer
		ws := tr.begin("exper.WriteTable", sv.id, nil)
		err = res.WriteTable(&buf)
		ws.end()
		if err != nil {
			return err
		}
		if buf.String() != sv.table {
			mismatches++
		}
	}
	if mismatches > 0 {
		return fmt.Errorf("%d reassembled tables differ from the served ones", mismatches)
	}
	cellMs := spanMs(tr.byName("exper.Run"))
	getMs := spanMs(tr.byName("store.Get"))
	m["exper.cell_ms_p50"] = metric{median(cellMs), "ms"}
	m["exper.cell_ms_p99"] = metric{quantile(cellMs, 0.99), "ms"}
	m["exper.overhead_ms"] = metric{median(overhead), "ms"}
	m["exper.write_table_ms"] = metric{median(spanMs(tr.byName("exper.WriteTable"))), "ms"}
	m["exper.sims_per_unique_cell"] = metric{float64(st.Simulations) / float64(len(distinct)), "ratio"}
	m["exper.mem_hits"] = metric{float64(st.MemHits), "count"}
	m["exper.store_hits"] = metric{float64(st.StoreHits), "count"}
	m["emu.records_per_workload"] = metric{float64(st.TraceRecords) / float64(len(serveBenches)), "ratio"}
	m["emu.trace_mb"] = metric{mib(st.TraceBytes), "MiB"}
	m["sample.plan_builds_per_regime"] = metric{float64(st.PlanBuilds+st.PlanStoreHits) / float64(max(len(sampledBenches), 1)), "ratio"}
	resilience(st, &tally{}, m) // checkServed counts these as failures
	m["store.get_ms_p50"] = metric{median(getMs), "ms"}
	m["store.get_ms_p99"] = metric{quantile(getMs, 0.99), "ms"}
	if info, err := run.st.Stat(); err == nil {
		m["store.bytes_written"] = metric{float64(info.Bytes), "B"}
	}
	submitMs := spanMs(tr.byName("serve.POST"))
	m["serve.submit_ms_p50"] = metric{median(submitMs), "ms"}
	m["serve.run_ms_p50"] = metric{median(runMs), "ms"}
	m["serve.stream_lag_ms_p50"] = metric{median(lagMs), "ms"}
	m["serve.queue_wait_ms_p99.critical"] = metric{quantile(wait["critical"], 0.99), "ms"}
	m["serve.queue_wait_ms_p99.batch"] = metric{quantile(wait["batch"], 0.99), "ms"}
	m["serve.shed"] = metric{float64(run.shed), "count"}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
