package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// defaultSeed is the seed whose seed-dependent output digests are
// committed in digests.json.
const defaultSeed = 1

//go:embed digests.json
var committedDigests []byte

// A digest part is one named group of outputs. Its digest must be the
// same in every round of a run, and equal the committed one: at every
// seed when its inputs do not depend on the seed, at the default seed
// otherwise.
type digestPart struct {
	value     string
	everySeed bool
}

var (
	digestMu sync.Mutex
	digests  = map[string]digestPart{}
)

// setDigest records the digest of the part named key.
func setDigest(t *tally, key string, everySeed bool, d string) {
	digestMu.Lock()
	defer digestMu.Unlock()
	if old, ok := digests[key]; ok && old.value != d {
		t.fail(1, "%s: output digest changed between rounds: %s then %s", key, old.value, d)
		return
	}
	digests[key] = digestPart{d, everySeed}
}

// checkDigests compares every recorded digest that applies at seed
// with the committed one. After a deliberate model change, copy the
// digest a mismatch prints into digests.json.
func checkDigests(seed uint64, t *tally) error {
	want := map[string]string{}
	if err := json.Unmarshal(committedDigests, &want); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	digestMu.Lock()
	defer digestMu.Unlock()
	if len(digests) == 0 {
		t.fail(1, "no output digest was recorded")
	}
	for key, p := range digests {
		if !p.everySeed && seed != defaultSeed {
			continue
		}
		if p.value != want[key] {
			t.fail(1, "%s: output digest %q differs from the committed %q", key, p.value, want[key])
		}
	}
	return nil
}

// keyedCell is one simulated result with the cell it belongs to.
type keyedCell struct {
	Bench, Machine string
	Scale          int
	Result         any
}

// cellDigest hashes cells in (benchmark, machine, scale) order, so the
// digest does not depend on the order the engine ran them in.
func cellDigest(cells []keyedCell) string {
	s := append([]keyedCell(nil), cells...)
	sort.Slice(s, func(i, j int) bool {
		a, b := s[i], s[j]
		if a.Bench != b.Bench {
			return a.Bench < b.Bench
		}
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		return a.Scale < b.Scale
	})
	return digest(s)
}
