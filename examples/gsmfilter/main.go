// GSM filter: the paper's §5.2 analysis of untoast, replayed.
//
// "The function Short_term_synthesis_filtering ... uses two 8-entry
// arrays. The loop iterations vary from 13 to 120 ... Because the arrays
// are small enough to fit in the MBC, after the first iteration, all of
// the array accesses for this function are eliminated, and many of the
// simple instructions involved in the computation are performed in the
// optimizer."
//
// This example runs the untst kernel and prints the per-mechanism
// breakdown, then disables store forwarding's substrate (the MBC) via a
// 1-entry table to show the whole effect disappear.
//
// Run: go run ./examples/gsmfilter
package main

import (
	"context"
	"fmt"
	"log"

	contopt "repro"
)

func main() {
	b, err := contopt.BenchmarkByName("untst")
	if err != nil {
		log.Fatal(err)
	}
	prog := b.Program(10)
	base := mustRun(contopt.BaselineConfig(), prog)

	fmt.Println("untoast / Short_term_synthesis_filtering (two 8-entry arrays):")
	opt := mustRun(contopt.DefaultConfig(), prog)
	show(base, opt)

	fmt.Println("\nwith a 1-entry MBC (RLE/SF effectively disabled):")
	crippled := contopt.DefaultConfig()
	crippled.Opt.MBCEntries = 1
	show(base, mustRun(crippled, prog))

	fmt.Println("\nvalue feedback alone (no symbolic optimization):")
	feedback := contopt.DefaultConfig()
	feedback.Opt.Mode = contopt.ModeFeedbackOnly
	show(base, mustRun(feedback, prog))
}

func mustRun(cfg contopt.Config, prog *contopt.Program) *contopt.Result {
	r, err := contopt.RunProgram(context.Background(), cfg, prog)
	if err != nil {
		log.Fatal(err)
	}
	return r
}

func show(base, opt *contopt.Result) {
	fmt.Printf("  speedup %.3f  (baseline %d cycles, this config %d)\n",
		opt.SpeedupOver(base), base.Cycles, opt.Cycles)
	fmt.Printf("  loads removed %.1f%%  exec early %.1f%%  addr gen %.1f%%\n",
		opt.PctLoadsRemoved(), opt.PctEarlyExecuted(), opt.PctAddrGen())
	fmt.Printf("  strength-reduced multiplies %d  feedback conversions %d\n",
		opt.Opt.StrengthReduced, opt.Opt.FeedbackApplied)
}
