// Sensitivity: a miniature of the paper's §6 studies on one benchmark.
//
// Sweeps the optimizer's extra pipeline stages (Figure 11) and the value
// feedback transmission delay (Figure 12) over the msa kernel, printing
// speedup against the shared baseline. The full-suite versions are
// `contopt figure11` and `contopt figure12`.
//
// Run: go run ./examples/sensitivity
package main

import (
	"context"
	"fmt"
	"log"

	contopt "repro"
)

func main() {
	b, err := contopt.BenchmarkByName("msa")
	if err != nil {
		log.Fatal(err)
	}
	prog := b.Program(40)
	base := mustRun(contopt.BaselineConfig(), prog)
	fmt.Printf("msa baseline: %d cycles\n\n", base.Cycles)

	fmt.Println("optimizer latency (extra rename stages) — Figure 11:")
	for _, stages := range []uint64{0, 2, 4, 8} {
		cfg := contopt.DefaultConfig()
		cfg.OptStages = stages
		r := mustRun(cfg, prog)
		fmt.Printf("  +%d stages: speedup %.3f\n", stages, r.SpeedupOver(base))
	}

	fmt.Println("\nvalue feedback transmission delay — Figure 12:")
	for _, delay := range []uint64{0, 1, 5, 10, 50} {
		cfg := contopt.DefaultConfig()
		cfg.FeedbackDelay = delay
		r := mustRun(cfg, prog)
		fmt.Printf("  %2d cycles: speedup %.3f\n", delay, r.SpeedupOver(base))
	}

	fmt.Println("\nper-bundle dependence depth — Figure 10:")
	for _, depth := range []int{0, 1, 3} {
		cfg := contopt.DefaultConfig()
		cfg.Opt.DepDepth = depth
		r := mustRun(cfg, prog)
		fmt.Printf("  depth %d: speedup %.3f\n", depth, r.SpeedupOver(base))
	}
}

func mustRun(cfg contopt.Config, prog *contopt.Program) *contopt.Result {
	r, err := contopt.RunProgram(context.Background(), cfg, prog)
	if err != nil {
		log.Fatal(err)
	}
	return r
}
