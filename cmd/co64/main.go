// Command co64 is a standalone front end for the CO64 toolchain used by
// the reproduction: it assembles, disassembles, emulates, and
// cycle-simulates CO64 assembly files.
//
// Usage:
//
//	co64 run <file.s> [flags]     emulate architecturally, dump registers
//	co64 sim <file.s> [flags]     cycle-simulate on baseline + optimized
//	co64 fmt <file.s>             assemble then pretty-print (disassemble)
//	co64 trace <file.s> [flags]   optimized-machine retirement trace
//
// Flags:
//
//	-max N      instruction limit for run/trace (0 = to completion)
//	-regs       with run: print all non-zero registers
//
// SIGINT and SIGTERM cancel the command's context: emulation and
// simulation abort promptly (exit status 130) instead of running a
// runaway program to completion.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/pipeline"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "co64:", err)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("co64", flag.ContinueOnError)
	max := fs.Uint64("max", 0, "instruction limit (0 = to completion)")
	regs := fs.Bool("regs", false, "print all non-zero registers")
	if len(args) < 1 {
		usage()
		return nil
	}
	cmd := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) != 1 {
		return fmt.Errorf("usage: co64 %s <file.s>", cmd)
	}
	src, err := os.ReadFile(rest[0])
	if err != nil {
		return err
	}
	prog, err := asm.Assemble(rest[0], string(src))
	if err != nil {
		return err
	}

	switch cmd {
	case "run":
		return emulate(ctx, prog, *max, *regs)
	case "sim":
		return simulate(ctx, prog)
	case "fmt":
		fmt.Print(asm.Format(prog))
		return nil
	case "trace":
		cfg := pipeline.DefaultConfig()
		cfg.MaxInsts = *max
		s, err := pipeline.New(cfg, prog)
		if err != nil {
			return err
		}
		s.SetTraceWriter(os.Stdout)
		_, err = s.Run(ctx, pipeline.RunOpts{})
		return err
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// emuChunk bounds how many instructions the emulator runs between
// cancellation checks: large enough to stay off the hot path, small
// enough that Ctrl-C lands within milliseconds.
const emuChunk = 1 << 20

func emulate(ctx context.Context, prog *emu.Program, max uint64, allRegs bool) error {
	m := emu.New(prog)
	var n uint64
	for !m.Halted() && (max == 0 || n < max) {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("after %d instructions: %w", n, err)
		}
		chunk := uint64(emuChunk)
		if max > 0 && max-n < chunk {
			chunk = max - n
		}
		n += m.Run(chunk)
	}
	fmt.Printf("executed %d instructions, halted=%v\n", n, m.Halted())
	if allRegs {
		for r := 0; r < isa.NumRegs; r++ {
			if v := m.Reg(isa.Reg(r)); v != 0 {
				fmt.Printf("  %-4s = %#x (%d)\n", isa.Reg(r), v, int64(v))
			}
		}
	}
	if addr, ok := prog.Symbol("result"); ok {
		fmt.Printf("result @ %#x = %d\n", addr, m.Mem.Load64(addr))
	}
	return nil
}

// simulate runs prog on both machines through context-aware sessions,
// so sim is as interruptible as trace.
func simulate(ctx context.Context, prog *emu.Program) error {
	sim := func(cfg pipeline.Config) (*pipeline.Result, error) {
		s, err := pipeline.New(cfg, prog)
		if err != nil {
			return nil, err
		}
		return s.Run(ctx, pipeline.RunOpts{})
	}
	base, err := sim(pipeline.DefaultConfig().Baseline())
	if err != nil {
		return err
	}
	opt, err := sim(pipeline.DefaultConfig())
	if err != nil {
		return err
	}
	fmt.Printf("baseline:  %d cycles, IPC %.3f\n", base.Cycles, base.IPC())
	fmt.Printf("optimized: %d cycles, IPC %.3f (speedup %.3f)\n",
		opt.Cycles, opt.IPC(), opt.SpeedupOver(base))
	fmt.Printf("early %.1f%%  addr-gen %.1f%%  loads removed %.1f%%  mispred recovered %.1f%%\n",
		opt.PctEarlyExecuted(), opt.PctAddrGen(), opt.PctLoadsRemoved(), opt.PctMispredRecovered())
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: co64 <run|sim|fmt|trace> <file.s> [flags]
  run    emulate architecturally (-max N, -regs)
  sim    cycle-simulate on baseline and optimized machines
  fmt    assemble and pretty-print
  trace  per-retirement trace on the optimized machine (-max N)`)
}
