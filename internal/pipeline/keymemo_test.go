package pipeline

import (
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// randomConfig returns DefaultConfig with a few of its numeric and
// boolean fields, nested ones included, set to random values, and a
// random Name.
func randomConfig(rng *rand.Rand) Config {
	c := DefaultConfig()
	var leaves []reflect.Value
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Bool:
			leaves = append(leaves, v)
		}
	}
	walk(reflect.ValueOf(&c).Elem())
	for n := rng.IntN(4); n >= 0; n-- {
		switch v := leaves[rng.IntN(len(leaves))]; v.Kind() {
		case reflect.Bool:
			v.SetBool(rng.IntN(2) == 1)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(int64(rng.IntN(64)))
		default:
			v.SetUint(uint64(rng.IntN(64)))
		}
	}
	c.Name = []string{"", "a", "default+opt"}[rng.IntN(3)]
	return c
}

// TestKeyMemoMatchesHash: memoized keys are byte-identical to the
// rendered SHA-256 key, for random configs requested concurrently from
// several goroutines (run it under -race), ignore Name, and the memo
// holds at most keySlots entries however many distinct configs it sees.
func TestKeyMemoMatchesHash(t *testing.T) {
	const goroutines, perG = 4, 4000
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Goroutines share their seeds pairwise, so the same
			// configs are requested concurrently.
			rng := rand.New(rand.NewPCG(uint64(g/2), 7))
			for i := 0; i < perG; i++ {
				c := randomConfig(rng)
				got := c.Key()
				named := c
				named.Name = ""
				if want := named.hashKey(); got != want {
					errs <- "Key() = " + got + ", want " + want
					return
				}
				if again := c.Key(); again != got {
					errs <- "repeated Key() = " + again + ", first " + got
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	// The memo does not grow with distinct configs: after the
	// configs above, ~27 K more distinct ones (as many machines as a
	// serve-mixed run draws) leave at most keySlots entries, and the
	// live heap grows by no more than those entries.
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	c := DefaultConfig()
	for i := 0; i < 27000; i++ {
		c.MaxInsts = uint64(i) + 1
		c.Key()
	}
	grown := int64(heap()) - int64(before)
	n := 0
	for i := range keyMemo.slots {
		if keyMemo.slots[i].Load() != nil {
			n++
		}
	}
	if n > keySlots {
		t.Fatalf("memo holds %d entries, table has %d slots", n, keySlots)
	}
	if bound := int64(keySlots) * int64(unsafe.Sizeof(keyEntry{})+64); grown > bound {
		t.Errorf("live heap grew %d B over 27000 distinct configs; a full memo holds at most %d", grown, bound)
	}
}
