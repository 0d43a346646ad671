// Command perfbench is the repository benchmark: it runs one named
// workload against the simulator stack, checks that every simulated
// result is correct, and prints its metrics as one JSON line.
//
//	perfbench -workload sweep-exact -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it prints the end-to-end metrics of an untraced run.
// With -trace 1 it prints the per-layer metrics of a traced run (spans
// around calls into each layer's public functions, written to the
// output directory) and the tracing overhead. See README.md.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/exper"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opts are the command-line inputs shared by every workload.
type opts struct {
	seed    uint64
	seconds float64
	out     string // this run's directory for its stores
	// par is nproc: the engine parallelism of every workload and the
	// client count of serve-mixed. The sweeps are timed in user CPU
	// time, which then adds up all processors: on a shared host one
	// processor can run a third slower than another for minutes, and a
	// single simulation thread would measure whichever one it landed on.
	par int
}

// tally counts operations (cells or jobs) and how they ended.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int // failed, refused (429/503) or failed the output check
	notes     []string
}

func (t *tally) add(attempted, failed int) {
	t.mu.Lock()
	t.attempted += attempted
	t.failed += failed
	t.mu.Unlock()
}

// fail records n failed operations with the reason.
func (t *tally) fail(n int, format string, args ...any) {
	t.mu.Lock()
	t.failed += n
	if len(t.notes) < 20 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// workload runs one named workload and returns its metrics: the
// end-to-end set when tr is nil, the per-layer set otherwise.
type workload func(ctx context.Context, o opts, t *tally, tr *tracer) (map[string]metric, error)

var registry = map[string]workload{
	"sweep-exact":   sweepExact,
	"sweep-sampled": sweepSampled,
	"serve-mixed":   serveMixed,
}

func main() {
	name := flag.String("workload", "", "workload name: sweep-exact, sweep-sampled or serve-mixed")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 20, "length of the timed region in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	out := flag.String("out", "perfbench-out", "directory for stores and spans")
	flag.Parse()
	run, ok := registry[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: -workload sweep-exact|sweep-sampled|serve-mixed -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	rep, err := runWorkload(*name, run, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// runWorkload runs one workload in a scratch directory under out,
// removed on return, and assembles the report.
func runWorkload(name string, run workload, seed uint64, seconds float64, traced bool, out string) (*report, error) {
	o := opts{seed: seed, seconds: seconds, out: filepath.Join(out, fmt.Sprintf("%s-%d", name, os.Getpid())), par: runtime.NumCPU()}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.out)
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	t := &tally{}
	m, err := run(context.Background(), o, t, tr)
	if err != nil {
		return nil, err
	}
	if err := checkDigests(seed, t); err != nil {
		return nil, err
	}
	for _, n := range t.notes {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", n)
	}
	if tr != nil {
		path := filepath.Join(out, "spans-"+name+".json")
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", tr.len(), path)
		m["failed_ratio"] = metric{float64(t.failed) / float64(max(t.attempted, 1)), "ratio"}
		if err := completeLayers(m); err != nil {
			return nil, err
		}
	}
	rep := &report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
	if rep.Attempted < 1 {
		rep.Attempted, rep.Failed, rep.Correct = 1, 1, false
	}
	return rep, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// userSeconds is the user CPU time the process has used, all threads
// together: the time its own code ran. A guest kernel with steal-time
// accounting leaves out the time the hypervisor gave the processors to
// other guests. Kernel time (page faults, file writes, fsync) is left
// out too: on a virtual machine each of those traps to the host, and
// on a shared 2-core one the system time of the same 1000 fsynced
// store writes varied from 1.1 to 2.1 s with the host's load.
func userSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()) / 1e9
}

// hostCPU is a reading of the host's CPU time counters (/proc/stat):
// time the processors ran guest code, and time the hypervisor gave them
// to other guests while this guest wanted to run (steal).
type hostCPU struct{ busy, steal float64 }

func readHostCPU() hostCPU {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var v [8]float64
	for i := range v {
		v[i], _ = strconv.ParseFloat(f[i+1], 64)
	}
	return hostCPU{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stealShare is the share of the CPU time this guest wanted since h
// that the hypervisor gave to other guests: a wall-time region that
// kept the processors busy took 1/(1 - share) times as long as it
// would have on processors of its own. 0 where the counters are not
// available.
func (h hostCPU) stealShare() float64 {
	now := readHostCPU()
	busy, steal := now.busy-h.busy, now.steal-h.steal
	if busy+steal <= 0 {
		return 0
	}
	return steal / (busy + steal)
}

// timeSetup runs setup n times and returns the median of their user
// CPU times in seconds; the caller keeps the state the last repetition
// built. undo, if not nil, releases a repetition's state before the
// next one starts, outside the timed part.
func timeSetup(n int, setup func() error, undo func()) (float64, error) {
	ds := make([]float64, 0, n)
	runtime.GC()
	for i := 0; i < n; i++ {
		if i > 0 && undo != nil {
			undo()
		}
		c0 := userSeconds()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, userSeconds()-c0)
	}
	return median(ds), nil
}

// median returns the middle value of xs (mean of the middle two).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// heapSampler tracks the peak in-use Go heap (live and not yet swept
// objects) over a timed region by polling runtime/metrics.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeap() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops sampling and returns the peak in MB.
func (h *heapSampler) end() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / 1e6
}

// gcWindow measures the Go runtime's GC work over a region.
type gcWindow struct{ cycles, gcCPU, allCPU float64 }

var gcMetrics = []string{"/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readGC() gcWindow {
	s := make([]metrics.Sample, len(gcMetrics))
	for i, n := range gcMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return gcWindow{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

// gcMetricsSince reports GC cycles and GC's share of CPU since w.
func gcMetricsSince(w gcWindow, m map[string]metric) {
	now := readGC()
	share := 0.0
	if d := now.allCPU - w.allCPU; d > 0 {
		share = (now.gcCPU - w.gcCPU) / d
	}
	m["go.gc_cpu_share"] = metric{share, "ratio"}
	m["go.gc_cycles"] = metric{now.cycles - w.cycles, "count"}
}

// resilience reports the engine's failure counters and counts any
// nonzero one as a failed check: on a healthy run they are all zero.
func resilience(st exper.Stats, t *tally, m map[string]metric) {
	if m != nil {
		m["exper.panics_recovered"] = metric{float64(st.PanicsRecovered), "count"}
		m["store.retries"] = metric{float64(st.StoreRetries), "count"}
		m["store.degraded"] = metric{float64(st.StoreDegraded), "count"}
	}
	if n := st.PanicsRecovered + st.StoreRetries + st.StoreDegraded + st.WatchdogKills; n > 0 {
		t.fail(1, "engine resilience counters nonzero: %+v", st)
	}
}

// digest hashes values in order through their JSON encoding.
func digest(vals ...any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range vals {
		if err := enc.Encode(v); err != nil {
			panic(err) // results are plain data; encoding cannot fail
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// perLayer lists every per-layer metric a traced run prints, with its
// unit. A workload that does not exercise a layer reports 0 for it.
var perLayer = []struct{ name, unit string }{
	{"exper.cell_ms_p50", "ms"},
	{"exper.cell_ms_p99", "ms"},
	{"exper.overhead_ms", "ms"},
	{"exper.sims_per_unique_cell", "ratio"},
	{"exper.mem_hits", "count"},
	{"exper.store_hits", "count"},
	{"exper.write_table_ms", "ms"},
	{"exper.panics_recovered", "count"},
	{"emu.record_ms", "ms"},
	{"emu.trace_mb", "MiB"},
	{"emu.records_per_workload", "ratio"},
	{"emu.ffwd_ns_per_inst", "ns"},
	{"pipeline.replay_ns_per_inst", "ns"},
	{"pipeline.live_ns_per_inst", "ns"},
	{"pipeline.ns_per_cycle", "ns"},
	{"pipeline.sim_cycles", "count"},
	{"pipeline.retired", "count"},
	{"sample.plan_build_ms", "ms"},
	{"sample.plan_mb", "MiB"},
	{"sample.plan_builds_per_regime", "ratio"},
	{"sample.windows_ms", "ms"},
	{"sample.detailed_share", "ratio"},
	{"store.put_ms_p50", "ms"},
	{"store.put_ms_p99", "ms"},
	{"store.bytes_written", "B"},
	{"store.get_ms_p50", "ms"},
	{"store.get_ms_p99", "ms"},
	{"store.retries", "count"},
	{"store.degraded", "count"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.stream_lag_ms_p50", "ms"},
	{"serve.queue_wait_ms_p99.critical", "ms"},
	{"serve.queue_wait_ms_p99.batch", "ms"},
	{"serve.shed", "count"},
	{"scenario.generate_ms", "ms"},
	{"asm.assemble_ms", "ms"},
	{"go.gc_cpu_share", "ratio"},
	{"go.gc_cycles", "count"},
	{"failed_ratio", "ratio"},
	{"trace_overhead.setup_s", "s"},
	{"trace_overhead.insts_per_s", "1/s"},
	{"trace_overhead.jobs_per_s", "1/s"},
	{"trace_overhead.job_p50_ms", "ms"},
	{"trace_overhead.job_p99_ms", "ms"},
	{"trace_overhead.heap_peak_mb", "MB"},
}

// completeLayers fills the per-layer metrics a workload did not
// measure with 0 and checks that it measured no others.
func completeLayers(m map[string]metric) error {
	known := map[string]bool{}
	for _, l := range perLayer {
		known[l.name] = true
		if _, ok := m[l.name]; !ok {
			m[l.name] = metric{0, l.unit}
		}
	}
	for name := range m {
		if !known[name] {
			return fmt.Errorf("per-layer metric %q is not in the per-layer list", name)
		}
	}
	return nil
}
