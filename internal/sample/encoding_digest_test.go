package sample

import (
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

// encodingDigestFile pins the JSON encodings of sampled results and of
// the exact-run records sampling is built from: one line per (benchmark,
// machine), "bench machine sampledSHA estimateSHA exactSHA intervalsSHA".
const encodingDigestFile = "encoding_digest.txt"

// encodingBenches are TestTimingDigest's built-ins (internal/pipeline):
// every behaviour class of the suite.
var encodingBenches = []string{"bzp", "g721e", "gap", "eqk", "art", "msa", "twf", "g721d"}

// encodingRunOpts makes an exact run encode every optional part of a
// pipeline.Result: an interval series and a measured window.
var encodingRunOpts = pipeline.RunOpts{Interval: 20000, WarmupRetired: 10000}

// TestEncodingDigest runs each built-in at its default scale on the
// baseline and default machines and compares SHA-256 hashes of the JSON
// of the sample.Result under DefaultConfig, of its Estimate, of an
// exact run under encodingRunOpts (Intervals and Measured set) and of
// the interval records its observer received against testdata. Stored
// results are these encodings, so a change to any of them — a reordered
// or renamed field, a counter summed differently — fails here. A failure
// prints the full current digest file.
func TestEncodingDigest(t *testing.T) {
	want := readEncodingDigest(t)
	ctx := context.Background()
	def := pipeline.DefaultConfig()
	sum := func(v any) string {
		js, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(js)
		return hex.EncodeToString(h[:])
	}
	var got strings.Builder
	for _, name := range encodingBenches {
		p := prog(t, name).Program(0)
		for _, cfg := range []pipeline.Config{def.Baseline(), def} {
			sr, err := Run(ctx, cfg, p, DefaultConfig())
			if err != nil {
				t.Fatalf("%s on %s: %v", name, cfg.Name, err)
			}
			if sr.ExactFallback || len(sr.Windows) < 2 {
				t.Fatalf("%s on %s: sampled run encodes no window series", name, cfg.Name)
			}
			s, err := pipeline.New(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			var observed []pipeline.IntervalStats
			opts := encodingRunOpts
			opts.Observer = func(iv pipeline.IntervalStats) { observed = append(observed, iv) }
			er, err := s.Run(ctx, opts)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, cfg.Name, err)
			}
			if er.Measured == nil || len(er.Intervals) < 2 {
				t.Fatalf("%s on %s: exact run encodes no measured window or interval series", name, cfg.Name)
			}
			line := fmt.Sprintf("%s %s %s %s %s %s", name, cfg.Name,
				sum(sr), sum(sr.Estimate()), sum(er), sum(observed))
			fmt.Fprintln(&got, line)
			key := name + " " + cfg.Name
			if w, ok := want[key]; !ok {
				t.Errorf("%s: no digest in testdata", key)
			} else if w != line {
				t.Errorf("%s: encoding drifted\n got %s\nwant %s", key, line, w)
			}
		}
	}
	if t.Failed() {
		t.Logf("current %s:\n%s", encodingDigestFile, got.String())
	}
}

func readEncodingDigest(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", encodingDigestFile))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) != 6 {
			t.Fatalf("malformed digest line %q", line)
		}
		out[f[0]+" "+f[1]] = line
	}
	return out
}
