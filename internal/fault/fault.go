// Package fault injects transmission errors into bus bursts so the rest of
// the stack - DDR4 write-CRC retry in the controller, decode-failure
// detection in the codecs, and the MiL degradation ladder in the policy -
// can be exercised and measured. The injector is deterministic: the same
// Config (including Seed) applied to the same sequence of bursts produces
// the same corruption, bit for bit, so fault experiments are reproducible.
//
// Three error processes are modeled, composable in one Config:
//
//   - random: every driven bit-time flips independently with probability
//     BER (the additive-noise floor of a DDR4 link);
//   - burst: with probability BurstRate per transfer, one pin takes a run
//     of BurstLen consecutive flipped beats (supply droop, crosstalk);
//   - stuck: the pins in StuckPins are driven to StuckVal for the whole
//     transfer (a failed driver or a solder defect), every transfer.
//
// A disabled (zero-value) Config is a guaranteed no-op: Corrupt touches
// nothing and the simulator's results are bit-identical to a build without
// the fault layer.
package fault

import (
	"fmt"
	"math"
	"math/rand"

	"mil/internal/bitblock"
)

// Config parameterizes one injector. The zero value disables injection.
type Config struct {
	// BER is the independent flip probability per driven bit-time, in
	// [0, 1). Typical DDR4 links run below 1e-12; interesting simulator
	// territory is 1e-6..1e-3.
	BER float64
	// BurstRate is the per-transfer probability of one correlated error
	// event, in [0, 1).
	BurstRate float64
	// BurstLen is the length in beats of a correlated error run (>= 1
	// when BurstRate > 0; 0 selects the default of 4).
	BurstLen int
	// StuckPins lists bus pins stuck at StuckVal (empty = none).
	StuckPins []int
	// StuckVal is the level stuck pins are read at.
	StuckVal bool
	// Seed selects the deterministic corruption stream. Two injectors
	// with equal configs corrupt identically.
	Seed uint64
}

// Enabled reports whether the config injects any errors at all.
func (c *Config) Enabled() bool {
	return c.BER > 0 || c.BurstRate > 0 || len(c.StuckPins) > 0
}

// Validate reports configuration errors with enough context to fix them.
func (c *Config) Validate() error {
	switch {
	case c.BER < 0 || c.BER >= 1 || math.IsNaN(c.BER):
		return fmt.Errorf("fault: BER %v outside [0, 1)", c.BER)
	case c.BurstRate < 0 || c.BurstRate >= 1 || math.IsNaN(c.BurstRate):
		return fmt.Errorf("fault: burst rate %v outside [0, 1)", c.BurstRate)
	case c.BurstRate > 0 && c.BurstLen < 0:
		return fmt.Errorf("fault: burst length %d < 0", c.BurstLen)
	}
	for _, p := range c.StuckPins {
		if p < 0 || p >= 128 {
			return fmt.Errorf("fault: stuck pin %d outside [0, 128)", p)
		}
	}
	return nil
}

// burstLen returns the correlated-run length with the default applied.
func (c *Config) burstLen() int {
	if c.BurstLen <= 0 {
		return 4
	}
	return c.BurstLen
}

// WithSeed returns a copy of the config re-seeded for a sub-stream (one
// injector per channel, each with its own deterministic stream).
func (c Config) WithSeed(seed uint64) Config {
	c.Seed = seed
	return c
}

// Injector corrupts bursts according to one Config. It is stateful (one
// PRNG stream) and, like the rest of the simulator, not safe for
// concurrent use. A nil *Injector is valid and injects nothing.
type Injector struct {
	cfg Config
	rng *rand.Rand

	flips       int64
	burstEvents int64
	transfers   int64
}

// New validates cfg and returns an injector, or nil when cfg is disabled
// (so callers can gate on inj.Enabled() without a config lookup).
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(mixSeed(cfg.Seed)))}, nil
}

// MustNew is New for configs already validated.
func MustNew(cfg Config) *Injector {
	inj, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return inj
}

// mixSeed spreads a user seed over the PRNG state space (seed 0 must not
// collapse onto rand's default stream in a recognizable way).
func mixSeed(s uint64) int64 {
	z := s + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

// Enabled reports whether this injector injects anything. Safe on nil.
func (inj *Injector) Enabled() bool { return inj != nil && inj.cfg.Enabled() }

// Flips returns the total bit flips injected so far. Safe on nil.
func (inj *Injector) Flips() int64 {
	if inj == nil {
		return 0
	}
	return inj.flips
}

// Corrupt applies all configured error processes to one burst in place and
// returns the number of bit-times whose value changed. Only driven pins
// are affected: a parked pin carries no data to corrupt. Safe on nil (a
// no-op returning 0).
func (inj *Injector) Corrupt(bu *bitblock.Burst) int {
	if !inj.Enabled() {
		return 0
	}
	inj.transfers++
	changed := 0

	// Random bit errors: geometric skip-sampling over the beat-major bit
	// grid, so the cost scales with the number of errors, not bus size.
	if p := inj.cfg.BER; p > 0 {
		total := bu.Beats * bu.Width
		for i := inj.geometric(p); i < total; i += 1 + inj.geometric(p) {
			beat, pin := i/bu.Width, i%bu.Width
			if !bu.Driven(pin) {
				continue
			}
			bu.SetBit(beat, pin, !bu.Bit(beat, pin))
			changed++
		}
	}

	// Correlated burst: a run of flipped beats on one driven pin.
	if inj.cfg.BurstRate > 0 && inj.rng.Float64() < inj.cfg.BurstRate {
		if pin, ok := inj.pickDriven(bu); ok {
			inj.burstEvents++
			n := inj.cfg.burstLen()
			start := 0
			if bu.Beats > n {
				start = inj.rng.Intn(bu.Beats - n + 1)
			}
			for b := start; b < start+n && b < bu.Beats; b++ {
				bu.SetBit(b, pin, !bu.Bit(b, pin))
				changed++
			}
		}
	}

	// Stuck lanes: force the level on every beat of each stuck driven pin.
	for _, pin := range inj.cfg.StuckPins {
		if pin >= bu.Width || !bu.Driven(pin) {
			continue
		}
		for b := 0; b < bu.Beats; b++ {
			if bu.Bit(b, pin) != inj.cfg.StuckVal {
				bu.SetBit(b, pin, inj.cfg.StuckVal)
				changed++
			}
		}
	}

	inj.flips += int64(changed)
	return changed
}

// geometric samples the number of Bernoulli(p) failures before the next
// success (the gap to the next flipped bit).
func (inj *Injector) geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	u := inj.rng.Float64()
	for u == 0 {
		u = inj.rng.Float64()
	}
	g := math.Log(u) / math.Log1p(-p)
	if g > 1<<30 {
		return 1 << 30
	}
	return int(g)
}

// pickDriven selects a uniformly random driven pin.
func (inj *Injector) pickDriven(bu *bitblock.Burst) (int, bool) {
	n := bu.DrivenPins()
	if n == 0 {
		return 0, false
	}
	k := inj.rng.Intn(n)
	for p := 0; p < bu.Width; p++ {
		if bu.Driven(p) {
			if k == 0 {
				return p, true
			}
			k--
		}
	}
	return 0, false
}

// CommandError rolls whether a command transfer of nbits command/address
// bits arrives corrupted (used for DDR4 CA parity): probability
// 1-(1-BER)^nbits. Correlated and stuck processes model the data bus, not
// the CA bus, so only BER contributes. Safe on nil.
func (inj *Injector) CommandError(nbits int) bool {
	if !inj.Enabled() || inj.cfg.BER <= 0 || nbits <= 0 {
		return false
	}
	p := -math.Expm1(float64(nbits) * math.Log1p(-inj.cfg.BER))
	return inj.rng.Float64() < p
}
