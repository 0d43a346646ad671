package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	"repro/internal/emu"
	"repro/internal/exper"
	"repro/internal/pipeline"
	"repro/internal/store"
	"repro/internal/workloads"
)

// paperVariants are the paper's sensitivity points beside the default
// machine: Figure 10's dependence depths, Figure 11's optimizer
// latencies, Figure 12's feedback delays and the MBC ablation.
func paperVariants() []exper.VariantSpec {
	return []exper.VariantSpec{
		{Label: "default"},
		{Label: "depth1", Set: map[string]any{"Opt.DepDepth": 1}},
		{Label: "depth3", Set: map[string]any{"Opt.DepDepth": 3}},
		{Label: "depth3mem1", Set: map[string]any{"Opt.DepDepth": 3, "Opt.ChainedMem": 1}},
		{Label: "optlat0", Set: map[string]any{"OptStages": 0}},
		{Label: "optlat4", Set: map[string]any{"OptStages": 4}},
		{Label: "fbdelay0", Set: map[string]any{"FeedbackDelay": 0}},
		{Label: "fbdelay5", Set: map[string]any{"FeedbackDelay": 5}},
		{Label: "fbdelay10", Set: map[string]any{"FeedbackDelay": 10}},
		{Label: "mbc32", Set: map[string]any{"Opt.MBCEntries": 32}},
		{Label: "mbc64", Set: map[string]any{"Opt.MBCEntries": 64}},
	}
}

// pickVariants returns the named paper variants in a seeded order. The
// machine set is fixed so that a sweep's cost does not depend on the
// seed; the seed orders the columns and so the engine's cell order.
func pickVariants(rng *rand.Rand, labels ...string) []exper.VariantSpec {
	all := map[string]exper.VariantSpec{}
	for _, v := range paperVariants() {
		all[v.Label] = v
	}
	out := make([]exper.VariantSpec, len(labels))
	for i, l := range labels {
		out[i] = all[l]
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// newRNG derives an independent stream from the run seed.
func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// parseSpec round-trips spec through its JSON form, so the benchmark
// exercises the same validation a user's sweep file gets.
func parseSpec(spec *exper.SweepSpec) (*exper.SweepSpec, error) {
	data, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return exper.ParseSpec(data)
}

// benchByName resolves built-in benchmark names.
func benchByName(names []string) ([]*workloads.Benchmark, error) {
	out := make([]*workloads.Benchmark, len(names))
	for i, n := range names {
		b, ok := workloads.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", n)
		}
		out[i] = b
	}
	return out, nil
}

// assemble generates and assembles a fresh copy of each benchmark's
// program at its scale — the set-up work every new process pays on the
// first Benchmark.Program call — and warms the registry copies the
// engine uses. With a tracer, each assembly is one asm.Program span.
func assemble(benches []*workloads.Benchmark, scales []int, tr *tracer) {
	for i, b := range benches {
		s := tr.begin("asm.Program", b.Name, nil)
		workloads.New(b.Name, b.Suite, b.Class, b.Notes, b.DefaultScale, b.Source).Program(scales[i])
		s.end()
		b.Program(scales[i])
	}
}

// openStore opens a fresh store in a new directory under the run's
// output directory; the caller removes dir when done.
func openStore(o opts, name string) (*store.Store, string, error) {
	dir, err := os.MkdirTemp(o.out, name+"-")
	if err != nil {
		return nil, "", err
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return st, dir, nil
}

// workloadKey mirrors the engine's store-key workload hash: the first
// 8 bytes of the SHA-256 of the benchmark's source at scale.
func workloadKey(b *workloads.Benchmark, scale int) string {
	sum := sha256.Sum256([]byte(b.Source(scale)))
	return hex.EncodeToString(sum[:8])
}

// instCounts runs each program to HALT on the architectural emulator:
// the reference instruction counts every simulated result must match.
// With a tracer each run is one emu.ffwd span.
func instCounts(benches []*workloads.Benchmark, scales []int, tr *tracer) map[string]uint64 {
	out := make(map[string]uint64, len(benches))
	for i, b := range benches {
		s := tr.begin("emu.ffwd", b.Name, nil)
		m := emu.New(b.Program(scales[i]))
		for !m.Halted() {
			m.Run(1 << 20)
		}
		s.end()
		out[b.Name] = m.InstCount()
	}
	return out
}

// ffwdNsPerInst is the emulator's fast-forward cost from emu.ffwd spans.
func ffwdNsPerInst(tr *tracer, counts map[string]uint64) float64 {
	var ns, n float64
	for _, s := range tr.byName("emu.ffwd") {
		ns += float64(s.dur())
		n += float64(counts[s.Cell])
	}
	if n == 0 {
		return 0
	}
	return ns / n
}

// sameResult reports whether two results carry identical simulated
// statistics (compared through their JSON form).
func sameResult(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && string(x) == string(y)
}

// cellRef is one (benchmark, config) cell of a sweep.
type cellRef struct {
	idx    int // position in the cell list
	bi, ci int
	b      *workloads.Benchmark
	cfg    pipeline.Config
	scale  int
}

func (c cellRef) id() string { return c.b.Name + "/" + c.cfg.Name }

// eachCell runs fn over every cell on par workers, benchmark-major
// like the engine's sweep enumeration, and waits for all of them.
func eachCell(cells []cellRef, par int, fn func(cellRef)) {
	ch := make(chan cellRef)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range ch {
				fn(c)
			}
		}()
	}
	for _, c := range cells {
		ch <- c
	}
	close(ch)
	wg.Wait()
}

// rounds repeats round until the timed region has lasted seconds,
// running it at least min times. Each round starts from a collected
// heap so rounds do not inherit each other's garbage.
func rounds(seconds float64, min int, round func(i int) error) error {
	start := time.Now()
	for i := 0; i < min || time.Since(start).Seconds() < seconds; i++ {
		if err := round(i); err != nil {
			return err
		}
	}
	return nil
}

// mib converts bytes to MiB.
func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// sweepRounds collects the per-round measurements of a sweep workload;
// metrics turns them into its end-to-end metrics. A sweep call (one
// round) is the workload's job. The sweeps are CPU-bound, so a round
// is timed in user CPU seconds, summed over all processors (see
// userSeconds and opts.par).
type sweepRounds struct {
	secs  []float64 // user CPU time of each round
	rates []float64 // simulated instructions per second of each round
	peaks []float64 // peak heap MB of each round
}

func (r *sweepRounds) add(secs float64, insts uint64, peak float64) {
	r.secs = append(r.secs, secs)
	r.rates = append(r.rates, float64(insts)/secs)
	r.peaks = append(r.peaks, peak)
	fmt.Fprintf(os.Stderr, "perfbench: round %d: %.3f user CPU-s, %.4g insts per user CPU-s, heap peak %.1f MB\n", len(r.secs), secs, float64(insts)/secs, peak)
}

func (r *sweepRounds) metrics(setup float64) map[string]metric {
	var total float64
	for _, s := range r.secs {
		total += s
	}
	return map[string]metric{
		"setup_s":      {setup, "s"},
		"insts_per_s":  {median(r.rates), "1/s"},
		"jobs_per_s":   {float64(len(r.secs)) / total, "1/s"},
		"job_p50_ms":   {1000 * median(r.secs), "ms"},
		"job_p99_ms":   {1000 * quantile(r.secs, 0.99), "ms"},
		"heap_peak_mb": {median(r.peaks), "MB"},
	}
}

// overheadMetrics reports traced minus untraced for each end-to-end
// metric.
func overheadMetrics(untraced, traced, out map[string]metric) {
	for name, u := range untraced {
		out["trace_overhead."+name] = metric{traced[name].Value - u.Value, u.Unit}
	}
}
