package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// capture redirects stdout around fn.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", ferr, out)
	}
	return out
}

func TestListCommand(t *testing.T) {
	out := capture(t, func() error { return run(context.Background(), []string{"list"}) })
	for _, want := range []string{"mcf", "untst", "SPECint", "mediabench"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestRunCommand(t *testing.T) {
	out := capture(t, func() error { return run(context.Background(), []string{"run", "-scale", "1", "art"}) })
	for _, want := range []string{"baseline:", "optimized:", "speedup:", "exec early"} {
		if !strings.Contains(out, want) {
			t.Errorf("run output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCommandUnknownBenchmark(t *testing.T) {
	if err := run(context.Background(), []string{"run", "bogus"}); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

func TestRunCommandMissingArg(t *testing.T) {
	if err := run(context.Background(), []string{"run"}); err == nil {
		t.Error("expected usage error")
	}
}

func TestSweepCommand(t *testing.T) {
	spec := `{
		"title": "CLI sweep probe",
		"benchmarks": ["mcf", "untst"],
		"per_benchmark": true,
		"variants": [
			{"label": "opt"},
			{"label": "mbc32", "set": {"Opt.MBCEntries": 32}}
		]
	}`
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out := capture(t, func() error { return run(context.Background(), []string{"sweep", "-scale", "1", path}) })
	for _, want := range []string{"CLI sweep probe", "opt", "mbc32", "mcf", "untst"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestSweepCommandBadSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"variants": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"sweep", path}); err == nil {
		t.Error("expected error for spec without variants")
	}
	if err := run(context.Background(), []string{"sweep"}); err == nil {
		t.Error("expected usage error for missing spec path")
	}
	if err := run(context.Background(), []string{"sweep", filepath.Join(t.TempDir(), "absent.json")}); err == nil {
		t.Error("expected error for missing spec file")
	}
}

func TestUnknownCommand(t *testing.T) {
	if err := run(context.Background(), []string{"frobnicate"}); err == nil {
		t.Error("expected error for unknown command")
	}
}

func TestNoArgsPrintsUsage(t *testing.T) {
	if err := run(context.Background(), nil); err != nil {
		t.Errorf("bare invocation should print usage, got %v", err)
	}
}

func TestExperimentCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment commands take seconds each")
	}
	cases := []struct{ cmd, want string }{
		{"table1", "Table 1"},
		{"figure6", "Figure 6"},
		{"table3", "Table 3"},
		{"figure9", "Figure 9"},
		{"dead", "dead destination values"},
		{"verify", "all 22 benchmarks verified"},
	}
	for _, c := range cases {
		t.Run(c.cmd, func(t *testing.T) {
			out := capture(t, func() error { return run(context.Background(), []string{c.cmd, "-scale", "1"}) })
			if !strings.Contains(out, c.want) {
				t.Errorf("%s output missing %q:\n%.200s", c.cmd, c.want, out)
			}
		})
	}
}

func TestTimeoutFlagAbortsSweep(t *testing.T) {
	// A 1ms budget cannot complete a default-scale sweep; the command
	// must surface a deadline error rather than hang or panic.
	spec := `{"benchmarks": ["mcf", "untst"], "variants": [{"label": "opt"}]}`
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := run(context.Background(), []string{"sweep", "-timeout", "1ms", path})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("sweep under 1ms timeout returned %v, want deadline error", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timed-out sweep took %v to return", elapsed)
	}
}

func TestCanceledContextAbortsExperiment(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, []string{"figure6", "-scale", "1"}); !errors.Is(err, context.Canceled) {
		t.Errorf("figure6 under canceled ctx returned %v, want error wrapping context.Canceled", err)
	}
}

func TestGenerousTimeoutStillCompletes(t *testing.T) {
	out := capture(t, func() error {
		return run(context.Background(), []string{"run", "-scale", "1", "-timeout", "5m", "art"})
	})
	if !strings.Contains(out, "speedup:") {
		t.Errorf("run with generous timeout lost output:\n%s", out)
	}
}

func TestListVerboseShowsInstCounts(t *testing.T) {
	out := capture(t, func() error { return run(context.Background(), []string{"list", "-v", "-scale", "1"}) })
	for _, want := range []string{"insts", "mcf", "untst"} {
		if !strings.Contains(out, want) {
			t.Errorf("list -v output missing %q:\n%s", want, out)
		}
	}
	// mcf at scale 1 executes 5300 dynamic instructions; the verbose
	// listing must carry the emulator-computed count.
	if !strings.Contains(out, "5300") {
		t.Errorf("list -v missing mcf's instruction count:\n%s", out)
	}
}

func TestRunSampledCommand(t *testing.T) {
	out := capture(t, func() error {
		return run(context.Background(), []string{"run", "-scale", "1", "-sample", "tst"})
	})
	for _, want := range []string{"sampled:", "baseline:", "optimized:", "speedup:", "windows", "95% CI"} {
		if !strings.Contains(out, want) {
			t.Errorf("run -sample output missing %q:\n%s", want, out)
		}
	}
}

func TestSampleCheckCommand(t *testing.T) {
	out := capture(t, func() error {
		return run(context.Background(), []string{"sample-check", "-scale", "1", "mgd", "tst"})
	})
	for _, want := range []string{"Sample check", "mgd", "tst", "wall time", "within 5.0% of exact"} {
		if !strings.Contains(out, want) {
			t.Errorf("sample-check output missing %q:\n%s", want, out)
		}
	}
}

func TestSampleCheckUnknownBenchmark(t *testing.T) {
	if err := run(context.Background(), []string{"sample-check", "bogus"}); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

func TestSampleCheckImpossibleTolerance(t *testing.T) {
	// A zero tolerance must fail on any benchmark where the estimator is
	// not exact — mgd at scale 1 samples (it is long enough), so some
	// error is guaranteed.
	if err := run(context.Background(), []string{"sample-check", "-scale", "1", "-tolerance", "0", "mgd"}); err == nil {
		t.Error("expected tolerance-violation error at 0% tolerance")
	}
}

func TestSweepSampledCommand(t *testing.T) {
	spec := `{"title": "sampled CLI sweep", "benchmarks": ["tst"], "per_benchmark": true, "variants": [{"label": "opt"}]}`
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out := capture(t, func() error {
		return run(context.Background(), []string{"sweep", "-scale", "1", "-sample", path})
	})
	for _, want := range []string{"sampled CLI sweep", "tst"} {
		if !strings.Contains(out, want) {
			t.Errorf("sampled sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestSampledFigure6Command(t *testing.T) {
	out := capture(t, func() error {
		return run(context.Background(), []string{"figure6", "-scale", "1", "-sample"})
	})
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "mcf") {
		t.Errorf("figure6 -sample output malformed:\n%.300s", out)
	}
}

func TestBadSampleRegimeRejected(t *testing.T) {
	err := run(context.Background(), []string{"run", "-scale", "1",
		"-sample-period", "100", "-sample-warmup", "200", "-sample-window", "300", "tst"})
	if err == nil {
		t.Error("expected error for overlapping sample windows")
	}
}

// captureAll redirects both stdout and stderr around fn, returning them
// separately — the store tests read cache statistics off stderr.
func captureAll(t *testing.T, fn func() error) (stdout, stderr string) {
	t.Helper()
	var serr string
	sout := capture(t, func() error {
		oldErr := os.Stderr
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stderr = w
		done := make(chan string)
		go func() {
			buf := make([]byte, 0, 1<<16)
			tmp := make([]byte, 4096)
			for {
				n, err := r.Read(tmp)
				buf = append(buf, tmp[:n]...)
				if err != nil {
					break
				}
			}
			done <- string(buf)
		}()
		ferr := fn()
		w.Close()
		os.Stderr = oldErr
		serr = <-done
		return ferr
	})
	return sout, serr
}

func TestStoreFlagWarmRerun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	spec := `{"benchmarks": ["tst"], "per_benchmark": true, "variants": [{"label": "opt"}]}`
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"sweep", "-scale", "1", "-store", dir, "-v", path}

	cold, coldErr := captureAll(t, func() error { return run(context.Background(), args) })
	warm, warmErr := captureAll(t, func() error { return run(context.Background(), args) })

	if cold != warm {
		t.Errorf("warm rerun output differs from cold run:\n--- cold\n%s--- warm\n%s", cold, warm)
	}
	if !strings.Contains(coldErr, "engine: 2 simulations") {
		t.Errorf("cold -v stats missing simulations:\n%s", coldErr)
	}
	if !strings.Contains(warmErr, "engine: 0 simulations") || !strings.Contains(warmErr, "2 store hits") {
		t.Errorf("warm -v stats should show zero simulations and store hits:\n%s", warmErr)
	}
}

func TestStoreEnvVar(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	t.Setenv("CONTOPT_STORE", dir)
	capture(t, func() error { return run(context.Background(), []string{"run", "-scale", "1", "tst"}) })
	out := capture(t, func() error { return run(context.Background(), []string{"store", "stat"}) })
	if !strings.Contains(out, "2 exact") {
		t.Errorf("CONTOPT_STORE run did not populate the store:\n%s", out)
	}
}

func TestStoreSubcommand(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	capture(t, func() error { return run(context.Background(), []string{"run", "-scale", "1", "-store", dir, "tst"}) })

	ls := capture(t, func() error { return run(context.Background(), []string{"store", "-store", dir, "ls"}) })
	for _, want := range []string{"exact", "tst", "ok"} {
		if !strings.Contains(ls, want) {
			t.Errorf("store ls missing %q:\n%s", want, ls)
		}
	}
	// An exact run stores its two results and nothing else: only
	// InstCount writes counts.
	stat := capture(t, func() error { return run(context.Background(), []string{"store", "-store", dir, "stat"}) })
	if !strings.Contains(stat, "2 entries") || !strings.Contains(stat, "2 exact") || !strings.Contains(stat, "0 counts") {
		t.Errorf("store stat: %s", stat)
	}
	vout := capture(t, func() error { return run(context.Background(), []string{"store", "-store", dir, "verify"}) })
	if !strings.Contains(vout, "2 entries verified, 0 corrupt") {
		t.Errorf("store verify: %s", vout)
	}

	// Corrupt one entry: verify must fail, gc must clean it up.
	var entry string
	filepath.WalkDir(filepath.Join(dir, "entries"), func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && entry == "" {
			entry = p
		}
		return nil
	})
	if entry == "" {
		t.Fatal("no entry files found")
	}
	if err := os.WriteFile(entry, []byte("scribble"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"store", "-store", dir, "verify"}); err == nil {
		t.Error("verify accepted a corrupt entry")
	}
	gc := capture(t, func() error { return run(context.Background(), []string{"store", "-store", dir, "gc"}) })
	if !strings.Contains(gc, "removed 1 corrupt") {
		t.Errorf("store gc: %s", gc)
	}
	if err := run(context.Background(), []string{"store", "-store", dir, "verify"}); err != nil {
		t.Errorf("verify after gc: %v", err)
	}
}

func TestServeCommandDrainsOnContextEnd(t *testing.T) {
	// -timeout stands in for SIGINT/SIGTERM: the service must come up,
	// log its bound address, and exit cleanly (nil) through the graceful
	// drain path when the command context ends.
	start := time.Now()
	_, stderr := captureAll(t, func() error {
		return run(context.Background(), []string{"serve", "-addr", "127.0.0.1:0", "-timeout", "300ms", "-drain", "5s"})
	})
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("serve took %v to drain", elapsed)
	}
	for _, want := range []string{"serve: listening on 127.0.0.1:", "serve: draining", "serve: drained"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("serve log missing %q:\n%s", want, stderr)
		}
	}
}

func TestStoreSubcommandErrors(t *testing.T) {
	if err := run(context.Background(), []string{"store", "ls"}); err == nil {
		t.Error("store without a directory should fail")
	}
	dir := t.TempDir()
	if err := run(context.Background(), []string{"store", "-store", dir, "frobnicate"}); err == nil {
		t.Error("unknown store action should fail")
	}
	if err := run(context.Background(), []string{"store", "-store", dir}); err == nil {
		t.Error("store without an action should fail")
	}
}

// shardSpecFile writes the small sweep spec the shard CLI tests share:
// 2 benchmarks x 2 variants = 4 cells.
func shardSpecFile(t *testing.T) string {
	t.Helper()
	spec := `{
		"benchmarks": ["mcf", "untst"],
		"per_benchmark": true,
		"variants": [
			{"label": "opt"},
			{"label": "mbc32", "set": {"Opt.MBCEntries": 32}}
		]
	}`
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSweepShardAndMerge(t *testing.T) {
	path := shardSpecFile(t)
	dir := filepath.Join(t.TempDir(), "store")

	single := capture(t, func() error {
		return run(context.Background(), []string{"sweep", "-scale", "1", path})
	})

	for i := 0; i < 2; i++ {
		sh := capture(t, func() error {
			return run(context.Background(), []string{
				"sweep", "-scale", "1", "-store", dir, "-shard", strconv.Itoa(i) + "/2", path})
		})
		if !strings.Contains(sh, "simulated and persisted 3 of 6 cells") {
			t.Errorf("shard %d/2 report: %s", i, sh)
		}
	}

	merged, mergedErr := captureAll(t, func() error {
		return run(context.Background(), []string{
			"sweep", "-scale", "1", "-store", dir, "-merge", "-v", path})
	})
	if merged != single {
		t.Errorf("merged table differs from single-process sweep:\n--- single\n%s--- merged\n%s", single, merged)
	}
	// The acceptance property at CLI scope: merge assembles the table
	// from the store alone.
	if !strings.Contains(mergedErr, "engine: 0 simulations") {
		t.Errorf("merge ran simulations:\n%s", mergedErr)
	}
}

func TestSweepMergeMissingCells(t *testing.T) {
	path := shardSpecFile(t)
	dir := filepath.Join(t.TempDir(), "store")

	// Only half the cells exist: merge must refuse and name the rest.
	capture(t, func() error {
		return run(context.Background(), []string{
			"sweep", "-scale", "1", "-store", dir, "-shard", "0/2", path})
	})
	var mergeErr error
	_, stderr := captureAll(t, func() error {
		mergeErr = run(context.Background(), []string{
			"sweep", "-scale", "1", "-store", dir, "-merge", path})
		return nil
	})
	if mergeErr == nil {
		t.Fatal("merge with missing cells should fail")
	}
	if !strings.Contains(mergeErr.Error(), "3 of the sweep's cells") {
		t.Errorf("merge error: %v", mergeErr)
	}
	if strings.Count(stderr, "missing:") != 3 {
		t.Errorf("merge stderr should name the 3 missing cells:\n%s", stderr)
	}
}

func TestSweepShardFlagErrors(t *testing.T) {
	path := shardSpecFile(t)
	dir := t.TempDir()
	cases := [][]string{
		{"sweep", "-store", dir, "-shard", "0/2", "-merge", path}, // mutually exclusive
		{"sweep", "-shard", "0/2", path},                          // shard needs a store
		{"sweep", "-merge", path},                                 // merge needs a store
		{"sweep", "-store", dir, "-shard", "2/2", path},           // index out of range
		{"sweep", "-store", dir, "-shard", "nope", path},          // malformed
	}
	for _, args := range cases {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("%v should fail", args)
		}
	}
}

func TestStoreLsPlans(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	spec := `{"benchmarks": ["tst"], "per_benchmark": true, "variants": [{"label": "opt"}]}`
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	capture(t, func() error {
		return run(context.Background(), []string{"sweep", "-scale", "1", "-store", dir, "-sample", path})
	})

	ls := capture(t, func() error {
		return run(context.Background(), []string{"store", "-store", dir, "ls", "-plans"})
	})
	lines := strings.Split(strings.TrimSpace(ls), "\n")
	if len(lines) != 2 { // header + the one plan
		t.Fatalf("store ls -plans should list exactly the plan entries:\n%s", ls)
	}
	if !strings.Contains(lines[1], "plan") || !strings.Contains(lines[1], "tst") {
		t.Errorf("store ls -plans row: %s", lines[1])
	}

	stat := capture(t, func() error {
		return run(context.Background(), []string{"store", "-store", dir, "stat"})
	})
	if !strings.Contains(stat, "1 plans") {
		t.Errorf("store stat should count the plan entry: %s", stat)
	}
	vout := capture(t, func() error {
		return run(context.Background(), []string{"store", "-store", dir, "verify"})
	})
	if !strings.Contains(vout, "0 corrupt") {
		t.Errorf("store verify after a sampled run: %s", vout)
	}
}
