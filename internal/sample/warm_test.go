package sample

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/memo"
	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

// warmPrograms is every built-in at scale 1 plus every scenario family
// under several seeds.
func warmPrograms(t *testing.T) []*emu.Program {
	t.Helper()
	var out []*emu.Program
	for _, b := range workloads.All() {
		out = append(out, b.Program(1))
	}
	for _, seed := range []uint64{1, 2, 5} {
		for _, fam := range scenario.FamilyNames() {
			spec := &scenario.Spec{Seed: seed, Scenarios: []scenario.ScenarioSpec{{Family: fam}}}
			scens, err := spec.Generate()
			if err != nil {
				t.Fatal(err)
			}
			p, err := asm.Assemble(fmt.Sprintf("%s-s%d", scens[0].Name, seed), scens[0].Source(1))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
		}
	}
	return out
}

// warmConfigs is two machines sharing the default front-end geometry
// and one with a geometry of its own.
func warmConfigs() []pipeline.Config {
	other := pipeline.DefaultConfig()
	other.Name = "other-front-end"
	other.BPred.IndexBits, other.BPred.HistoryBits = 12, 12
	other.Caches.L1D.SizeB = 8 << 10
	return []pipeline.Config{pipeline.DefaultConfig(), pipeline.DefaultConfig().Baseline(), other}
}

// estimateAll runs every (program, config) pair on plans, all pairs at
// once, and returns each Result's JSON encoding.
func estimateAll(t *testing.T, progs []*emu.Program, plans []*Plan, sc Config) [][]byte {
	t.Helper()
	cfgs := warmConfigs()
	out := make([][]byte, len(progs)*len(cfgs))
	errs := make([]error, len(out))
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := i / len(cfgs)
			r, err := RunPlanned(context.Background(), cfgs[i%len(cfgs)], progs[p], sc, plans[p])
			if err == nil {
				out[i], err = json.Marshal(r)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSharedWarmingMatchesPrivate is the shared-warming equivalence
// gate: every built-in and every scenario family under several seeds,
// estimated on two front-end geometries at once, must give JSON-byte-
// identical Results whether every window warms privately or machines
// of one geometry share recorded warming — both on the round that
// records it and on a round that only resumes it.
func TestSharedWarmingMatchesPrivate(t *testing.T) {
	progs := warmPrograms(t)
	sc := Config{Warmup: 50, Window: 100, TargetWindows: 6, Workers: 2}
	build := func() []*Plan {
		plans := make([]*Plan, len(progs))
		for i, p := range progs {
			plan, err := BuildPlan(context.Background(), p, sc, 0)
			if err != nil {
				t.Fatal(err)
			}
			plans[i] = plan
		}
		return plans
	}

	privateWarming.Store(true)
	private := estimateAll(t, progs, build(), sc)
	privateWarming.Store(false)
	plans := build()
	before := Warming()
	shared := estimateAll(t, progs, plans, sc)
	mid := Warming()
	again := estimateAll(t, progs, plans, sc)
	after := Warming()

	if mid.Builds == before.Builds {
		t.Fatal("no window warmed: the test exercises nothing")
	}
	if mid.Hits == before.Hits {
		t.Error("machines of one geometry never shared warming on the recording round")
	}
	if after.Builds != mid.Builds {
		t.Errorf("the second round warmed %d windows again; it should only resume recorded warming", after.Builds-mid.Builds)
	}
	cfgs := warmConfigs()
	for i := range private {
		label := fmt.Sprintf("%s on %s", progs[i/len(cfgs)].Name, cfgs[i%len(cfgs)].Name)
		for round, got := range [][]byte{shared[i], again[i]} {
			if !bytes.Equal(got, private[i]) {
				t.Errorf("%s: shared round %d differs from private warming:\nprivate %s\nshared  %s", label, round+1, private[i], got)
			}
		}
	}
}

// warmedWindow returns gcc's plan and the index of a functionally
// warmed window in it.
func warmedWindow(t *testing.T) (*emu.Program, *Plan, int) {
	t.Helper()
	p := prog(t, "gcc").Program(1)
	plan, err := BuildPlan(context.Background(), p, DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range plan.Windows {
		if w.WarmFrom < w.Start {
			return p, plan, i
		}
	}
	t.Fatal("gcc: no functionally warmed window in the plan")
	return nil, nil, 0
}

// sameWarm compares a warmer/machine pair against the reference.
func sameWarm(w *pipeline.Warmer, m *emu.Machine, rw *pipeline.Warmer, rm *emu.Machine) bool {
	return reflect.DeepEqual(w.Delta(), rw.Delta()) && m.InstCount() == rm.InstCount() &&
		m.PC == rm.PC && m.Regs() == rm.Regs() && m.Mem.Equal(rm.Mem)
}

// TestWarmMemoCollapsesConcurrentRequests: many machines of one
// geometry asking for one window at once warm it once; every one gets
// the state private warming gives.
func TestWarmMemoCollapsesConcurrentRequests(t *testing.T) {
	p, plan, idx := warmedWindow(t)
	cfg := pipeline.DefaultConfig()
	rw, rm, err := warmPrivate(context.Background(), cfg, p, plan.Windows[idx])
	if err != nil || rm == nil {
		t.Fatalf("private warming: %v", err)
	}
	wm := memo.New[warmKey, *warmStart](nil, nil)
	before := Warming()
	const n = 8
	var wg sync.WaitGroup
	ok := make([]bool, n)
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, m, err := warm(context.Background(), wm, cfg, p, plan.Windows[idx], idx)
			ok[g] = err == nil && m != nil && sameWarm(w, m, rw, rm)
		}()
	}
	wg.Wait()
	for g, good := range ok {
		if !good {
			t.Errorf("caller %d got warm state unlike private warming", g)
		}
	}
	after := Warming()
	if b, h := after.Builds-before.Builds, after.Hits-before.Hits; b != 1 || h != n-1 {
		t.Errorf("%d concurrent callers: %d warmings, %d reuses; want 1 and %d", n, b, h, n-1)
	}
}

// TestWarmLeaderFailureHandsOff: a leader whose context is canceled,
// or whose warming panics, vacates the slot instead of poisoning it —
// the next caller warms the window itself and gets the right state.
func TestWarmLeaderFailureHandsOff(t *testing.T) {
	p, plan, idx := warmedWindow(t)
	cfg := pipeline.DefaultConfig()
	pw := plan.Windows[idx]
	rw, rm, err := warmPrivate(context.Background(), cfg, p, pw)
	if err != nil || rm == nil {
		t.Fatalf("private warming: %v", err)
	}
	wm := memo.New[warmKey, *warmStart](nil, nil)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := warm(canceled, wm, cfg, p, pw, idx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled leader: err %v, want context.Canceled", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("warming from a nil checkpoint did not panic")
			}
		}()
		broken := pw
		broken.Ck = nil
		warm(context.Background(), wm, cfg, p, broken, idx)
	}()
	if n := wm.Len(); n != 0 {
		t.Fatalf("failed leaders left %d slots behind", n)
	}
	w, m, err := warm(context.Background(), wm, cfg, p, pw, idx)
	if err != nil || m == nil || !sameWarm(w, m, rw, rm) {
		t.Fatalf("the caller after failed leaders: err %v, state matches private warming: %v", err, m != nil && sameWarm(w, m, rw, rm))
	}
	w, m, err = warm(context.Background(), wm, cfg, p, pw, idx)
	if err != nil || m == nil || !sameWarm(w, m, rw, rm) {
		t.Fatal("resuming the recorded warming differs from private warming")
	}
}

// TestPlanCheckpointsSharePages: consecutive checkpoints of a plan share
// the pages the program did not write between them, so Bytes — which
// counts a shared page once — is well below the sum of the images; a
// plan decoded from its encoding shares them too.
func TestPlanCheckpointsSharePages(t *testing.T) {
	p := prog(t, "mcf").Program(1)
	plan, err := BuildPlan(context.Background(), p, DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Windows) < 2 {
		t.Fatal("mcf: too few windows to share anything")
	}
	var sum uint64
	for _, w := range plan.Windows {
		sum += uint64(w.Ck.Mem.PageCount()) * 4096
	}
	data, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Plan
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	built, dec := plan.Bytes(), decoded.Bytes()
	t.Logf("%d windows: images %d KiB, built plan %d KiB, decoded plan %d KiB", len(plan.Windows), sum>>10, built>>10, dec>>10)
	if built*2 > sum {
		t.Errorf("built plan charges %d bytes for %d bytes of images: checkpoints do not share pages", built, sum)
	}
	if dec*2 > sum {
		t.Errorf("decoded plan charges %d bytes for %d bytes of images: decoding does not share pages", dec, sum)
	}
}
