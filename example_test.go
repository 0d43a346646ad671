package contopt_test

import (
	"context"
	"fmt"
	"log"
	"time"

	contopt "repro"
)

// ExampleAssemble shows the CO64 assembly dialect: labels, register
// aliases, displacement addressing and data directives.
func ExampleAssemble() {
	prog, err := contopt.Assemble("triangle", `
start:
    ldi params -> r1
    ldq [r1] -> r2       ; n
    ldi 0 -> r3
loop:
    add r3, r2 -> r3     ; sum += n
    sub r2, 1 -> r2
    bne r2, loop
    stq r3 -> [r1+8]
    halt
.org 0x20000
.data params
.quad 10, 0
`)
	if err != nil {
		log.Fatal(err)
	}
	m := contopt.Emulate(prog, 0)
	fmt.Println("triangle(10) =", m.Mem.Load64(0x20008))
	// Output: triangle(10) = 55
}

// ExampleRunProgram compares the baseline machine against the continuously
// optimized one on the same program.
func ExampleRunProgram() {
	prog, err := contopt.Assemble("demo", `
start:
    ldi params -> r1
    ldq [r1] -> r2
loop:
    sub r2, 1 -> r2
    bne r2, loop
    halt
.org 0x20000
.data params
.quad 500
`)
	if err != nil {
		log.Fatal(err)
	}
	base, err := contopt.RunProgram(context.Background(), contopt.BaselineConfig(), prog)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := contopt.RunProgram(context.Background(), contopt.DefaultConfig(), prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retired %d instructions on both machines: %v\n",
		base.Retired, base.Retired == opt.Retired)
	// The decrement executes at rename every iteration; its adjacent
	// branch hits the single-addition bundle limit (§6.2), so half the
	// two-instruction loop body runs in the optimizer.
	fmt.Printf("the optimizer executed %.0f%% of the stream at rename\n",
		opt.PctEarlyExecuted())
	// Output:
	// retired 1003 instructions on both machines: true
	// the optimizer executed 50% of the stream at rename
}

// ExampleRunBenchmark runs a registry workload at a reduced scale.
func ExampleRunBenchmark() {
	res, err := contopt.RunBenchmark(context.Background(), "untst", 1, contopt.DefaultConfig(), contopt.RunOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("loads removed above half:", res.PctLoadsRemoved() > 50)
	// Output: loads removed above half: true
}

// ExampleNewSession shows the context-aware session API: a timeout
// guards the simulation, and interval telemetry streams IPC-over-time
// while it runs.
func ExampleNewSession() {
	prog, err := contopt.Assemble("spin", `
start:
    ldi params -> r1
    ldq [r1] -> r2
loop:
    sub r2, 1 -> r2
    bne r2, loop
    halt
.org 0x20000
.data params
.quad 40000
`)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := contopt.NewSession(contopt.DefaultConfig(), prog)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	intervals := 0
	res, err := sess.Run(ctx, contopt.RunOpts{
		Interval: 10000,
		Observer: func(iv contopt.IntervalStats) { intervals++ },
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("finished: %v, observed a time series: %v\n",
		res.Truncated == contopt.TruncNone, intervals >= 2 && len(res.Intervals) == intervals)
	// Output: finished: true, observed a time series: true
}

// ExampleRunOpts_maxCycles truncates a run after a cycle budget — the
// building block for fixed-horizon studies.
func ExampleRunOpts_maxCycles() {
	prog, err := contopt.Assemble("bounded", `
start:
    ldi params -> r1
    ldq [r1] -> r2
loop:
    sub r2, 1 -> r2
    bne r2, loop
    halt
.org 0x20000
.data params
.quad 100000
`)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := contopt.NewSession(contopt.DefaultConfig(), prog)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sess.Run(context.Background(), contopt.RunOpts{MaxCycles: 5000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stopped by %q at cycle %d\n", res.Truncated, res.Cycles)
	// Output: stopped by "max-cycles" at cycle 5000
}
