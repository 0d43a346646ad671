package regfile

import (
	"reflect"
	"testing"
)

// TestResetEqualsNew: a used file reset to any size — smaller or larger
// than it was — is indistinguishable from a fresh one of that size.
func TestResetEqualsNew(t *testing.T) {
	for _, sizes := range [][2]int{{512, 300}, {300, 512}, {64, 64}} {
		f := New(sizes[0])
		var held []PReg
		for i := 0; i < sizes[0]/2; i++ {
			p := f.Alloc()
			f.Write(p, uint64(i)*7)
			f.AddRef(p)
			held = append(held, p)
		}
		for _, p := range held[:len(held)/2] {
			f.Release(p)
		}
		f.Reset(sizes[1])
		if want := New(sizes[1]); !reflect.DeepEqual(f, want) {
			t.Errorf("Reset(%d) after New(%d) differs from New(%d)", sizes[1], sizes[0], sizes[1])
		}
		if msg := f.CheckInvariants(); msg != "" {
			t.Errorf("reset file inconsistent: %s", msg)
		}
	}
}
