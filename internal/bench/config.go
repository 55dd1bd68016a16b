package bench

import (
	"fmt"
	"runtime"
)

// Scale selects how closely an experiment matches the paper's input sizes.
type Scale string

// The available scales.
const (
	// ScaleTiny runs in unit-test time (used by the testing.B wrappers).
	ScaleTiny Scale = "tiny"
	// ScaleSmall is the default: seconds per experiment, shapes intact.
	ScaleSmall Scale = "small"
	// ScalePaper uses the paper's input sizes where memory allows.
	ScalePaper Scale = "paper"
)

// Config parameterizes an experiment run.
type Config struct {
	Scale   Scale
	Threads int // 0 means GOMAXPROCS
	Reps    int // 0 means the scale's default (the paper uses 5)
	Seed    uint64
}

// DefaultConfig returns the small-scale configuration.
func DefaultConfig() Config { return Config{Scale: ScaleSmall, Seed: 42} }

func (c Config) valid() error {
	switch c.Scale {
	case ScaleTiny, ScaleSmall, ScalePaper:
		return nil
	}
	return fmt.Errorf("bench: unknown scale %q (want tiny, small or paper)", c.Scale)
}

func (c Config) reps() int {
	if c.Reps > 0 {
		return c.Reps
	}
	switch c.Scale {
	case ScaleTiny:
		return 1
	case ScalePaper:
		return 5
	default:
		return 3
	}
}

func (c Config) threads() int {
	if c.Threads > 0 {
		return c.Threads
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) seed() uint64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return 42
}

// gridSizes returns the row counts of the micro-benchmark grids
// (the paper sweeps 2^12 .. 2^24).
func (c Config) gridSizes() []int {
	switch c.Scale {
	case ScaleTiny:
		return []int{1 << 10, 1 << 12}
	case ScalePaper:
		return []int{1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24}
	default:
		return []int{1 << 12, 1 << 14, 1 << 16, 1 << 18}
	}
}

// gridKeys returns the key-column counts of the grids (the paper uses 1-4).
func (c Config) gridKeys() []int {
	if c.Scale == ScaleTiny {
		return []int{1, 2}
	}
	return []int{1, 2, 3, 4}
}

// counterRows returns the input size for the counter experiments (Tables
// II/III and Figure 10; the paper uses 2^24).
func (c Config) counterRows() int {
	switch c.Scale {
	case ScaleTiny:
		return 1 << 12
	case ScalePaper:
		return 1 << 24
	default:
		return 1 << 17
	}
}

// fig12Sizes returns the Figure 12 row counts (the paper sweeps 10M..100M
// in 10M increments).
func (c Config) fig12Sizes() []int {
	switch c.Scale {
	case ScaleTiny:
		return []int{20_000, 40_000}
	case ScalePaper:
		out := make([]int, 10)
		for i := range out {
			out[i] = (i + 1) * 10_000_000
		}
		return out
	default:
		out := make([]int, 5)
		for i := range out {
			out[i] = (i + 1) * 1_000_000
		}
		return out
	}
}

// sfDivisor scales down the TPC-DS cardinalities of Figures 13/14.
func (c Config) sfDivisor() int {
	switch c.Scale {
	case ScaleTiny:
		return 2000
	case ScalePaper:
		return 1
	default:
		return 100
	}
}

// fig10Samples returns how many cumulative snapshots Figure 10 plots.
func (c Config) fig10Samples() int {
	if c.Scale == ScaleTiny {
		return 10
	}
	return 20
}
