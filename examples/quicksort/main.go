// Quicksort: the paper's §5.2 analysis of mcf's sort_basket, replayed.
//
// The paper traces mcf's outsized speedup to quicksort: "once the array
// being passed to quicksort is small enough that it does not thrash the
// MBC, all array accesses are eliminated, and the simple instructions
// dependent on these load operations are executed in the optimizer."
//
// This example runs the registry's mcf kernel (an iterative quicksort
// over an MBC-resident array) against a variant whose array is four
// times larger than the Memory Bypass Cache, showing the residency
// effect directly.
//
// Run: go run ./examples/quicksort
package main

import (
	"context"
	"fmt"
	"log"

	contopt "repro"
)

func main() {
	// The registry mcf kernel: 64-element sorts, MBC-resident.
	small, err := contopt.BenchmarkByName("mcf")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("mcf / sort_basket (array fits the 128-entry MBC):")
	report(small.Program(20))

	// The same machine with the MBC shrunk to 16 entries: partitions
	// thrash it and the elimination story collapses.
	fmt.Println("\nsame kernel, MBC shrunk to 16 entries (thrashing):")
	tiny := contopt.DefaultConfig()
	tiny.Opt.MBCEntries = 16
	prog := small.Program(20)
	base := mustRun(contopt.BaselineConfig(), prog)
	opt := mustRun(tiny, prog)
	line(base, opt)
}

func report(prog *contopt.Program) {
	base := mustRun(contopt.BaselineConfig(), prog)
	opt := mustRun(contopt.DefaultConfig(), prog)
	line(base, opt)
}

func mustRun(cfg contopt.Config, prog *contopt.Program) *contopt.Result {
	r, err := contopt.RunProgram(context.Background(), cfg, prog)
	if err != nil {
		log.Fatal(err)
	}
	return r
}

func line(base, opt *contopt.Result) {
	fmt.Printf("  baseline %d cycles, optimized %d cycles -> speedup %.3f\n",
		base.Cycles, opt.Cycles, opt.SpeedupOver(base))
	fmt.Printf("  loads removed %.1f%%  exec early %.1f%%  mispredicts recovered %.1f%%\n",
		opt.PctLoadsRemoved(), opt.PctEarlyExecuted(), opt.PctMispredRecovered())
	fmt.Printf("  MBC hits %d, stale (squashed) forwards %d\n",
		opt.Opt.MBCHits, opt.Opt.MBCStale)
}
