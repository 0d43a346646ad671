package pipeline_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pipeline"
)

// timingDigestFile pins the cycle-exact timing of the exact sweep: one
// line per (benchmark, machine) run, "bench machine traceSHA resultSHA".
const timingDigestFile = "timing_digest.txt"

// timingBenches are the built-ins the exact perfbench sweep runs: every
// behaviour class of the suite.
var timingBenches = []string{"bzp", "g721e", "gap", "eqk", "art", "msa", "twf", "g721d"}

// timingMachines are the baseline and default machines plus the extreme
// points of the Figure 10, 11 and 12 sweeps.
func timingMachines() []pipeline.Config {
	def := pipeline.DefaultConfig()
	mk := func(name string, edit func(*pipeline.Config)) pipeline.Config {
		c := def
		c.Name = name
		edit(&c)
		return c
	}
	return []pipeline.Config{
		def.Baseline(),
		def,
		mk("depth1", func(c *pipeline.Config) { c.Opt.DepDepth = 1 }),
		mk("depth3", func(c *pipeline.Config) { c.Opt.DepDepth = 3 }),
		mk("optlat0", func(c *pipeline.Config) { c.OptStages = 0 }),
		mk("optlat4", func(c *pipeline.Config) { c.OptStages = 4 }),
		mk("fbdelay0", func(c *pipeline.Config) { c.FeedbackDelay = 0 }),
		mk("fbdelay10", func(c *pipeline.Config) { c.FeedbackDelay = 10 }),
	}
}

// TestTimingDigest runs every timing bench on every timing machine at
// scale 1 and compares a hash of each run's per-retirement trace log and
// of its Result JSON against testdata. The trace log records every
// instruction's rename, completion and retire cycle, so any change to
// when any instruction issues, completes or retires — not just to the
// rounded speedups the harness goldens compare — fails here. A failure
// prints the full current digest file.
func TestTimingDigest(t *testing.T) {
	want := readTimingDigest(t)
	var got strings.Builder
	for _, name := range timingBenches {
		prog := benchProgram(t, name).Program(1)
		for _, cfg := range timingMachines() {
			s, err := pipeline.New(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			trace := sha256.New()
			w := bufio.NewWriter(trace)
			s.SetTraceWriter(w)
			res, err := s.Run(context.Background(), pipeline.RunOpts{})
			if err != nil {
				t.Fatalf("%s on %s: %v", name, cfg.Name, err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			resSum := sha256.Sum256(js)
			line := fmt.Sprintf("%s %s %s %s", name, cfg.Name,
				hex.EncodeToString(trace.Sum(nil)), hex.EncodeToString(resSum[:]))
			fmt.Fprintln(&got, line)
			key := name + " " + cfg.Name
			if w, ok := want[key]; !ok {
				t.Errorf("%s: no digest in testdata", key)
			} else if w != line {
				t.Errorf("%s: timing drifted\n got %s\nwant %s", key, line, w)
			}
		}
	}
	if t.Failed() {
		t.Logf("current %s:\n%s", timingDigestFile, got.String())
	}
}

func readTimingDigest(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", timingDigestFile))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Fatalf("malformed digest line %q", line)
		}
		out[f[0]+" "+f[1]] = line
	}
	return out
}
