package pipeline

import (
	"context"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/regfile"
)

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	base := cfg.Baseline()
	if err := base.Validate(); err != nil {
		t.Errorf("baseline config invalid: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutate := []struct {
		name string
		fn   func(*Config)
		want string
	}{
		{"zero fetch", func(c *Config) { c.FetchWidth = 0 }, "FetchWidth"},
		{"zero retire", func(c *Config) { c.RetireWidth = 0 }, "RetireWidth"},
		{"tiny window", func(c *Config) { c.WindowSize = 1 }, "WindowSize"},
		{"zero sched", func(c *Config) { c.SchedEntries = 0 }, "SchedEntries"},
		{"no alus", func(c *Config) { c.NumSimpleALU = 0 }, "execution units"},
		{"no fp", func(c *Config) { c.NumFPALU = 0 }, "complex/FP"},
		{"no regread", func(c *Config) { c.RegReadLat = 0 }, "RegReadLat"},
		{"small regfile", func(c *Config) { c.PRegs = 100 }, "PRegs"},
	}
	for _, m := range mutate {
		t.Run(m.name, func(t *testing.T) {
			cfg := DefaultConfig()
			m.fn(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !strings.Contains(err.Error(), m.want) {
				t.Errorf("error %q does not mention %q", err, m.want)
			}
		})
	}
}

// TestValidateBoundsAllocation: every field a session sizes something
// from is capped, and the error names the field by its sweep-spec path.
// Each value below once parsed and resolved, and would have had one
// session allocate gigabytes or more.
func TestValidateBoundsAllocation(t *testing.T) {
	const huge = 1 << 40
	mutate := []struct {
		name string
		fn   func(*Config)
		want string
	}{
		{"memory latency", func(c *Config) { c.Caches.MemLatency = huge }, "Caches.MemLatency"},
		{"feedback delay", func(c *Config) { c.FeedbackDelay = huge }, "FeedbackDelay"},
		{"L2 latency", func(c *Config) { c.Caches.L2.Latency = MaxLatency + 1 }, "Caches.L2.Latency"},
		{"front-end depth", func(c *Config) { c.FrontLat = MaxLatency + 1 }, "FrontLat"},
		{"register read", func(c *Config) { c.RegReadLat = huge }, "RegReadLat"},
		{"redirect", func(c *Config) { c.RedirectLat = huge }, "RedirectLat"},
		{"register file", func(c *Config) { c.PRegs = regfile.MaxRegs + 1 }, "PRegs"},
		{"window", func(c *Config) { c.WindowSize = huge }, "WindowSize"},
		{"schedulers", func(c *Config) { c.SchedEntries = huge }, "SchedEntries"},
		{"schedulers past window", func(c *Config) { c.SchedEntries = c.WindowSize + 1 }, "SchedEntries"},
		{"negative MBC", func(c *Config) { c.Opt.MBCEntries = -huge }, "Opt.MBCEntries"},
		{"in-flight ops", func(c *Config) { c.FetchWidth, c.FrontLat = 64, MaxLatency }, "FetchWidth"},
		{"L2 size", func(c *Config) { c.Caches.L2.SizeB = huge }, "Caches.L2.SizeB"},
		{"L1D ways", func(c *Config) { c.Caches.L1D.Assoc = huge }, "Caches.L1D.Assoc"},
		{"L1I geometry", func(c *Config) { c.Caches.L1I.SizeB = 3 << 10 }, "Caches.L1I.SizeB"},
		{"BTB", func(c *Config) { c.BPred.BTBEntries = huge }, "BPred.BTBEntries"},
		{"RAS", func(c *Config) { c.BPred.RASEntries = huge }, "BPred.RASEntries"},
	}
	for _, m := range mutate {
		t.Run(m.name, func(t *testing.T) {
			cfg := DefaultConfig()
			m.fn(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !strings.Contains(err.Error(), m.want) {
				t.Errorf("error %q does not name %q", err, m.want)
			}
		})
	}
	// Every cap is inclusive: a machine at each one is valid.
	cfg := DefaultConfig()
	cfg.RegReadLat, cfg.FeedbackDelay, cfg.RedirectLat = MaxLatency, MaxLatency, MaxLatency
	cfg.Caches.MemLatency = MaxLatency
	cfg.PRegs = regfile.MaxRegs
	cfg.SchedEntries = cfg.WindowSize
	if err := cfg.Validate(); err != nil {
		t.Errorf("a machine at the caps is rejected: %v", err)
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	prog, err := asm.Assemble("p", "start:\n halt\n")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.FetchWidth = -1
	s, err := New(cfg, prog)
	if err == nil || !strings.Contains(err.Error(), "FetchWidth") {
		t.Errorf("New should report the invalid field, got session=%v err=%v", s, err)
	}
}

func TestZeroConfigFallsBackToDefault(t *testing.T) {
	prog, err := asm.Assemble("p", "start:\n ldi 3 -> r1\n halt\n")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retired != 2 {
		t.Errorf("retired %d under zero config", res.Retired)
	}
}

func TestWithModeAndBaselineHelpers(t *testing.T) {
	cfg := DefaultConfig().WithMode(core.ModeFeedbackOnly)
	if cfg.Opt.Mode != core.ModeFeedbackOnly {
		t.Error("WithMode did not switch mode")
	}
	b := DefaultConfig().Baseline()
	if b.Opt.Mode != core.ModeBaseline || b.Name != "baseline" {
		t.Errorf("Baseline() = %+v", b)
	}
	// Machine-model variants used by Figure 8 must remain valid.
	fb := DefaultConfig()
	fb.SchedEntries *= 2
	if err := fb.Validate(); err != nil {
		t.Error(err)
	}
	eb := DefaultConfig()
	eb.FetchWidth *= 2
	if err := eb.Validate(); err != nil {
		t.Error(err)
	}
}
