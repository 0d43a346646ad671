package harness

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/exper"
	"repro/internal/pipeline"
)

// smallOpts runs every experiment at scale 1 so the whole file stays
// fast.
func smallOpts() Options { return Options{Scale: 1} }

// bg is the context for tests that do not probe cancellation.
var bg = context.Background()

// parseSpeedups extracts all float columns from a suite-speedup table.
func parseSpeedups(t *testing.T, out string) map[string][]float64 {
	t.Helper()
	rows := map[string][]float64{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			continue
		}
		var vals []float64
		for _, f := range fields[1:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				vals = nil
				break
			}
			vals = append(vals, v)
		}
		if vals != nil {
			rows[fields[0]] = vals
		}
	}
	return rows
}

func TestGeomean(t *testing.T) {
	if g := exper.Geomean(nil); g != 0 {
		t.Errorf("exper.Geomean(nil) = %v", g)
	}
	if g := exper.Geomean([]float64{2, 8}); g != 4 {
		t.Errorf("exper.Geomean(2,8) = %v, want 4", g)
	}
	if g := exper.Geomean([]float64{1, 1, 1}); g != 1 {
		t.Errorf("exper.Geomean(1,1,1) = %v", g)
	}
}

func TestTable1ListsAllBenchmarks(t *testing.T) {
	var buf bytes.Buffer
	if err := smallOpts().Table1(bg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"bzp", "mcf", "untst", "mgd", "g721d"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table1 output missing %q", name)
		}
	}
	if !strings.Contains(out, "SPECint") || !strings.Contains(out, "mediabench") {
		t.Error("Table1 output missing suite names")
	}
}

func TestFigure6ShapeHolds(t *testing.T) {
	var buf bytes.Buffer
	if err := smallOpts().Figure6(bg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// 22 benchmarks + 3 avg rows.
	lines := strings.Count(out, "\n")
	if lines < 25 {
		t.Errorf("Figure6 printed %d lines, want >= 26", lines)
	}
	// Extract the three avg rows.
	avgs := map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[1] == "avg" {
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				t.Fatalf("bad avg row %q", line)
			}
			avgs[f[0]] = v
		}
	}
	if len(avgs) != 3 {
		t.Fatalf("found %d avg rows, want 3\n%s", len(avgs), out)
	}
	// The paper's headline shapes: every suite gains on average, and
	// mediabench gains the most.
	for s, v := range avgs {
		if v < 1.0 || v > 1.6 {
			t.Errorf("%s avg speedup %.3f outside sane band", s, v)
		}
	}
	if !(avgs["mediabench"] > avgs["SPECint"] && avgs["mediabench"] > avgs["SPECfp"]) {
		t.Errorf("mediabench should show the largest improvement: %v", avgs)
	}
}

func TestFigure6DataStructured(t *testing.T) {
	data, err := smallOpts().Figure6Data(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 22 {
		t.Fatalf("Figure6Data returned %d points, want 22", len(data))
	}
	for _, d := range data {
		if d.Speedup <= 0 {
			t.Errorf("%s: nonpositive speedup %v", d.Name, d.Speedup)
		}
		if d.Base == nil || d.Opt == nil {
			t.Fatalf("%s: missing raw results", d.Name)
		}
		if d.Base.Retired != d.Opt.Retired {
			t.Errorf("%s: baseline and optimized retired different counts", d.Name)
		}
	}
	// Suite order is SPECint, SPECfp, mediabench.
	if data[0].Suite != "SPECint" || data[21].Suite != "mediabench" {
		t.Errorf("suite ordering wrong: first=%s last=%s", data[0].Suite, data[21].Suite)
	}
}

func TestTable3ShapeHolds(t *testing.T) {
	var buf bytes.Buffer
	if err := smallOpts().Table3(bg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	pcts := map[string][]float64{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 5 && (f[0] == "SPECint" || f[0] == "SPECfp" || f[0] == "mediabench" || f[0] == "avg") {
			var vals []float64
			for _, s := range f[1:] {
				v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
				if err != nil {
					t.Fatalf("bad row %q", line)
				}
				vals = append(vals, v)
			}
			pcts[f[0]] = vals
		}
	}
	if len(pcts) != 4 {
		t.Fatalf("parsed %d rows, want 4\n%s", len(pcts), out)
	}
	// Column 0: exec early — mediabench highest (paper: 33.5 > 28.6 > 20).
	if !(pcts["mediabench"][0] > pcts["SPECint"][0]) {
		t.Errorf("mediabench should execute the most early: %v", pcts)
	}
	// Column 3: lds removed — mediabench highest (paper: 47.2).
	if !(pcts["mediabench"][3] > pcts["SPECint"][3] && pcts["mediabench"][3] > pcts["SPECfp"][3]) {
		t.Errorf("mediabench should remove the most loads: %v", pcts)
	}
	// A large share of memory addresses generate in the optimizer.
	if pcts["avg"][2] < 40 {
		t.Errorf("avg addr-gen %.1f%% implausibly low", pcts["avg"][2])
	}
}

func TestTable3DataStructured(t *testing.T) {
	rows, err := smallOpts().Table3Data(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Table3Data returned %d rows, want 4 (3 suites + avg)", len(rows))
	}
	if rows[3].Name != "avg" {
		t.Errorf("last row should be avg, got %q", rows[3].Name)
	}
	for _, r := range rows {
		for name, v := range map[string]float64{
			"ExecEarly": r.ExecEarly, "MispredRecovered": r.MispredRecovered,
			"AddrGen": r.AddrGen, "LoadsRemoved": r.LoadsRemoved,
		} {
			if v < 0 || v > 100 {
				t.Errorf("%s.%s = %v out of percentage range", r.Name, name, v)
			}
		}
	}
}

func TestFigure8ExecBoundGainsMost(t *testing.T) {
	var buf bytes.Buffer
	if err := smallOpts().Figure8(bg, &buf); err != nil {
		t.Fatal(err)
	}
	rows := parseSpeedups(t, buf.String())
	if len(rows) < 3 {
		t.Fatalf("missing suite rows:\n%s", buf.String())
	}
	// Columns: fetch-bound, fetch-bound+opt, opt, exec-bound, exec-bound+opt.
	for suite, v := range rows {
		if len(v) != 5 {
			t.Fatalf("%s row has %d columns", suite, len(v))
		}
		// Optimization on the exec-bound machine must beat the plain
		// exec-bound machine (§5.3's headline).
		if v[4] <= v[3] {
			t.Errorf("%s: exec-bound+opt (%.3f) should beat exec-bound (%.3f)", suite, v[4], v[3])
		}
		// Adding opt to a fetch-bound machine helps less (relatively)
		// than adding it to the exec-bound machine.
		fbGain := v[1] / v[0]
		ebGain := v[4] / v[3]
		if ebGain < fbGain-0.02 {
			t.Errorf("%s: exec-bound gain %.3f should be >= fetch-bound gain %.3f", suite, ebGain, fbGain)
		}
	}
}

func TestFigure9FeedbackAloneWeaker(t *testing.T) {
	var buf bytes.Buffer
	if err := smallOpts().Figure9(bg, &buf); err != nil {
		t.Fatal(err)
	}
	rows := parseSpeedups(t, buf.String())
	for suite, v := range rows {
		if len(v) != 2 {
			t.Fatalf("%s row has %d columns", suite, len(v))
		}
		if v[1] < v[0] {
			t.Errorf("%s: feedback+opt (%.3f) should be >= feedback alone (%.3f)", suite, v[1], v[0])
		}
	}
}

func TestFigure10DepthHelpsMediabench(t *testing.T) {
	var buf bytes.Buffer
	if err := smallOpts().Figure10(bg, &buf); err != nil {
		t.Fatal(err)
	}
	rows := parseSpeedups(t, buf.String())
	mb := rows["mediabench"]
	if len(mb) != 4 {
		t.Fatalf("mediabench row: %v", mb)
	}
	// The paper's §6.2: depth 3 raises mediabench markedly.
	if mb[2] < mb[0] {
		t.Errorf("depth 3 (%.3f) should not lose to depth 0 (%.3f)", mb[2], mb[0])
	}
}

func TestFigure11LatencyDegradesGracefully(t *testing.T) {
	var buf bytes.Buffer
	if err := smallOpts().Figure11(bg, &buf); err != nil {
		t.Fatal(err)
	}
	rows := parseSpeedups(t, buf.String())
	for suite, v := range rows {
		if len(v) != 3 {
			t.Fatalf("%s row: %v", suite, v)
		}
		// Zero extra stages is at least as good as four.
		if v[0] < v[2]-0.02 {
			t.Errorf("%s: 0-stage (%.3f) should be >= 4-stage (%.3f)", suite, v[0], v[2])
		}
		// Even at 4 extra stages the speedup stays in a sane band
		// (paper: still 1.04-1.10 on average).
		if v[2] < 0.85 {
			t.Errorf("%s: 4-stage speedup %.3f collapsed", suite, v[2])
		}
	}
}

func TestFigure12FeedbackDelayFlat(t *testing.T) {
	var buf bytes.Buffer
	if err := smallOpts().Figure12(bg, &buf); err != nil {
		t.Fatal(err)
	}
	rows := parseSpeedups(t, buf.String())
	for suite, v := range rows {
		if len(v) != 4 {
			t.Fatalf("%s row: %v", suite, v)
		}
		// The paper's §6.4 headline: "no change in the overall
		// performance resulting from additional delay."
		min, max := v[0], v[0]
		for _, x := range v {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		if max-min > 0.05 {
			t.Errorf("%s: feedback delay sensitivity %.3f..%.3f should be flat", suite, min, max)
		}
	}
}

func TestMBCSweepMonotoneForMediabench(t *testing.T) {
	var buf bytes.Buffer
	if err := smallOpts().MBCSweep(bg, &buf); err != nil {
		t.Fatal(err)
	}
	rows := parseSpeedups(t, buf.String())
	mb := rows["mediabench"]
	if len(mb) != 4 {
		t.Fatalf("mediabench row: %v", mb)
	}
	if mb[3] < mb[0]-0.02 {
		t.Errorf("256-entry MBC (%.3f) should not lose to 32-entry (%.3f)", mb[3], mb[0])
	}
}

func TestPolicySweepRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := smallOpts().PolicySweep(bg, &buf); err != nil {
		t.Fatal(err)
	}
	rows := parseSpeedups(t, buf.String())
	for suite, v := range rows {
		if len(v) != 4 {
			t.Fatalf("%s row: %v", suite, v)
		}
		// §3.2: the two store policies show "little difference".
		if diff := v[0] - v[1]; diff < -0.1 || diff > 0.25 {
			t.Errorf("%s: store-policy gap %.3f larger than the paper suggests", suite, diff)
		}
	}
}

func TestDiscreteSweepContinuousWins(t *testing.T) {
	var buf bytes.Buffer
	if err := smallOpts().DiscreteSweep(bg, &buf); err != nil {
		t.Fatal(err)
	}
	rows := parseSpeedups(t, buf.String())
	for suite, v := range rows {
		if len(v) != 4 {
			t.Fatalf("%s row: %v", suite, v)
		}
		// Continuous (col 0) must beat every discrete trace size: the
		// whole point of §3.4's contrast.
		for i := 1; i < 4; i++ {
			if v[i] > v[0]+0.01 {
				t.Errorf("%s: discrete col %d (%.3f) beats continuous (%.3f)", suite, i, v[i], v[0])
			}
		}
	}
}

func TestDeadValuesOptimizationIncreasesDeadFraction(t *testing.T) {
	var buf bytes.Buffer
	if err := smallOpts().DeadValues(bg, &buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		baseDead, err1 := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		optDead, err2 := strconv.ParseFloat(strings.TrimSuffix(f[2], "%"), 64)
		if err1 != nil || err2 != nil {
			continue
		}
		if optDead <= baseDead {
			t.Errorf("%s: optimized dead fraction (%.1f%%) should exceed baseline (%.1f%%)",
				f[0], optDead, baseDead)
		}
		if optDead < 5 {
			t.Errorf("%s: optimized dead fraction %.1f%% implausibly low for §2.3", f[0], optDead)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.engine() == nil {
		t.Error("nil Engine should yield a private engine")
	}
	eng := exper.NewRunner(1)
	o.Engine = eng
	if o.engine() != eng {
		t.Error("explicit Engine ignored")
	}
}

// TestArtifactsShareOneSimulationPerTriple renders Table1 + Figure6 +
// Table3 on one shared engine and asserts that each unique (config,
// benchmark, scale) triple is simulated exactly once: Figure6 needs the
// 22-benchmark baseline and default machines (44 simulations), and
// Table3's 22 default-machine runs must all come from the cache.
func TestArtifactsShareOneSimulationPerTriple(t *testing.T) {
	eng := exper.NewRunner(0)
	o := Options{Scale: 1, Engine: eng}
	var buf bytes.Buffer
	if err := o.Table1(bg, &buf); err != nil {
		t.Fatal(err)
	}
	if err := o.Figure6(bg, &buf); err != nil {
		t.Fatal(err)
	}
	if err := o.Table3(bg, &buf); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Simulations != 44 {
		t.Errorf("ran %d simulations, want 44 (22 benchmarks x {baseline, default})", st.Simulations)
	}
	if st.MemHits != 22 {
		t.Errorf("cache hits = %d, want 22 (Table3 reuses Figure6's default-machine runs)", st.MemHits)
	}

	// A fourth artifact over the same configs is formatting only.
	if err := o.Table3(bg, &buf); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Simulations != 44 {
		t.Errorf("re-rendering Table3 ran new simulations: %d", st.Simulations)
	}
}

func TestSuiteSpeedupsFormatting(t *testing.T) {
	var buf bytes.Buffer
	o := smallOpts()
	def := pipeline.DefaultConfig()
	err := o.suiteSpeedups(bg, &buf, "Title Line", def.Baseline(), []namedConfig{{"only", def}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "Title Line") {
		t.Error("missing title")
	}
	for _, s := range []string{"SPECint", "SPECfp", "mediabench"} {
		if !strings.Contains(out, s) {
			t.Errorf("missing suite %s:\n%s", s, out)
		}
	}
}

func ExampleOptions_usage() {
	// Typical use: run the headline experiment at reduced scale.
	o := Options{Scale: 1}
	var buf bytes.Buffer
	if err := o.Figure6(bg, &buf); err != nil {
		fmt.Println("error:", err)
	}
	fmt.Println(strings.SplitN(buf.String(), "\n", 2)[0])
	// Output: Figure 6 — Speedup of continuous optimization over baseline
}
