// Package milcore implements the paper's contribution: the MiL (More is
// Less) opportunistic coding framework of Section 4. The decision logic
// (Sections 4.2/5.1) inspects the memory controller's rdyX comparators at
// the moment a column command is scheduled and selects between the wide
// sparse code (3-LWC, burst length 16) when the data bus has room, and the
// low-overhead base code (MiLC, burst length 10) when other column commands
// would be delayed. The write optimization of Section 4.6 pre-encodes
// writes with both schemes and transmits whichever carries fewer zeros.
package milcore

import (
	"fmt"

	"mil/internal/bitblock"
	"mil/internal/code"
	"mil/internal/memctrl"
)

// DefaultLookahead is the look-ahead distance X the framework is evaluated
// at. The natural setting is 8 (the bus cycles a 3-LWC burst occupies, so
// no already-ready column command is postponed), but the paper's
// sensitivity study (Section 7.5.2, Figure 21) finds X=14 performs best
// because the comparators cannot see commands that become ready just after
// the window; this reproduction observes the same effect, so the evaluated
// default follows the sweep's winner. Figure 21 regenerates the whole
// trade-off curve.
const DefaultLookahead = 14

// Policy is the MiL decision logic. The zero value is not usable; call New.
type Policy struct {
	lookaheadX    int
	wide          code.Codec
	base          code.Codec
	writeOptimize bool
}

// Option configures a Policy.
type Option func(*Policy)

// WithLookahead overrides the look-ahead distance X (Figure 21's sweep).
func WithLookahead(x int) Option {
	return func(p *Policy) { p.lookaheadX = x }
}

// WithCodes overrides the wide/base codec pair (the framework accepts any
// deterministic-latency sparse codes, Section 4.3).
func WithCodes(wide, base code.Codec) Option {
	return func(p *Policy) { p.wide, p.base = wide, base }
}

// WithoutWriteOptimize disables the Section 4.6 write optimization, for
// ablation studies.
func WithoutWriteOptimize() Option {
	return func(p *Policy) { p.writeOptimize = false }
}

// New returns the paper's evaluated configuration: 3-LWC as the wide
// opportunistic code, MiLC as the base code, the DefaultLookahead window,
// and the write optimization on.
func New(opts ...Option) (*Policy, error) {
	p := &Policy{
		lookaheadX:    DefaultLookahead,
		wide:          code.LWC3{},
		base:          code.MiLC{},
		writeOptimize: true,
	}
	for _, o := range opts {
		o(p)
	}
	if p.lookaheadX < 0 {
		return nil, fmt.Errorf("milcore: look-ahead distance %d < 0", p.lookaheadX)
	}
	if p.wide == nil || p.base == nil {
		return nil, fmt.Errorf("milcore: nil codec")
	}
	if p.wide.Beats() < p.base.Beats() {
		return nil, fmt.Errorf("milcore: wide code %s (BL%d) shorter than base %s (BL%d)",
			p.wide.Name(), p.wide.Beats(), p.base.Name(), p.base.Beats())
	}
	return p, nil
}

// MustNew is New for static configurations that cannot fail.
func MustNew(opts ...Option) *Policy {
	p, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements memctrl.Policy.
func (p *Policy) Name() string { return "mil" }

// LookaheadX returns the configured look-ahead distance.
func (p *Policy) LookaheadX() int { return p.lookaheadX }

// Choose implements memctrl.Policy: the decision heuristic of Section 4.2.
// If any other column command becomes ready within the next X cycles
// (count > 1: the command being scheduled is itself ready now), the wide
// code would delay it, so the base code is used; otherwise the wide code's
// longer burst rides the idle cycles for free.
func (p *Policy) Choose(write bool, data *bitblock.Block, la memctrl.Lookahead) code.Codec {
	if la.ColumnReadyWithin(p.lookaheadX) > 1 {
		return p.base
	}
	if write && p.writeOptimize && data != nil {
		// Section 4.6: the controller holds the write data, so it compares
		// the schemes' zero counts ahead of time and picks the sparser
		// result. The shorter base burst wins ties. The comparison runs on
		// the codecs' arithmetic cost probes (Codec.CostZeros) - no burst is
		// materialized for the loser.
		if p.base.CostZeros(data) <= p.wide.CostZeros(data) {
			return p.base
		}
	}
	return p.wide
}

// Tiered generalizes the MiL decision logic to more than two codes,
// implementing Section 7.5.3's suggestion that an intermediate-length
// sparse code can recover efficiency the two-point design leaves on the
// table. Codes are ordered widest first; the widest code whose bus
// occupancy fits the current idle window (no other column command ready
// within its burst cycles) wins, and the narrowest code is the
// unconditional base.
type Tiered struct {
	codes []code.Codec // widest first; the last is the base
}

// NewTiered builds a tiered policy. codes must be in strictly decreasing
// burst-length order with at least two entries.
func NewTiered(codes ...code.Codec) (*Tiered, error) {
	if len(codes) < 2 {
		return nil, fmt.Errorf("milcore: tiered policy needs >= 2 codes, got %d", len(codes))
	}
	for i := 1; i < len(codes); i++ {
		if codes[i] == nil || codes[i-1] == nil {
			return nil, fmt.Errorf("milcore: nil codec")
		}
		if codes[i].Beats() >= codes[i-1].Beats() {
			return nil, fmt.Errorf("milcore: tiered codes must shrink: %s (BL%d) after %s (BL%d)",
				codes[i].Name(), codes[i].Beats(), codes[i-1].Name(), codes[i-1].Beats())
		}
	}
	return &Tiered{codes: codes}, nil
}

// Name implements memctrl.Policy.
func (p *Tiered) Name() string { return "mil-tiered" }

// Choose implements memctrl.Policy.
func (p *Tiered) Choose(write bool, data *bitblock.Block, la memctrl.Lookahead) code.Codec {
	chosen := p.codes[len(p.codes)-1]
	for _, c := range p.codes[:len(p.codes)-1] {
		if la.ColumnReadyWithin(c.Beats()/2) <= 1 {
			chosen = c
			break
		}
	}
	if write && data != nil {
		// The write optimization generalizes: among the codes no longer
		// than the chosen one, transmit the sparsest encoding. Candidates
		// are compared by cost probe, so only the winner ever encodes.
		best, bestZ := chosen, chosen.CostZeros(data)
		for _, c := range p.codes {
			if c.Beats() > chosen.Beats() || c == chosen {
				continue
			}
			if z := c.CostZeros(data); z < bestZ {
				best, bestZ = c, z
			}
		}
		chosen = best
	}
	return chosen
}

// Stretched pads a codec's burst with extra all-ones beats. It models the
// intermediate-length sparse codes of the fixed-burst-length sensitivity
// study (Section 7.5.1, Figure 20): timing-accurate for any burst length
// between the inner code's and 16, with the pad beats free on the wire.
type Stretched struct {
	Inner code.Codec
	Total int // burst beats on the bus
}

// NewStretched wraps inner to occupy total beats (even, >= inner's).
func NewStretched(inner code.Codec, total int) (Stretched, error) {
	if total < inner.Beats() || total%2 != 0 {
		return Stretched{}, fmt.Errorf("milcore: cannot stretch BL%d code to BL%d", inner.Beats(), total)
	}
	return Stretched{Inner: inner, Total: total}, nil
}

// Name implements code.Codec.
func (s Stretched) Name() string { return fmt.Sprintf("%s+bl%d", s.Inner.Name(), s.Total) }

// Beats implements code.Codec.
func (s Stretched) Beats() int { return s.Total }

// ExtraLatency implements code.Codec.
func (s Stretched) ExtraLatency() int { return s.Inner.ExtraLatency() }

// Encode implements code.Codec.
func (s Stretched) Encode(blk *bitblock.Block) *bitblock.Burst {
	bu := s.Inner.Encode(blk)
	bu.ExtendBeats(s.Total)
	return bu
}

// EncodeInto implements code.Codec: the inner encode lands in bu and the
// pad beats (driven pins idle high, free on a POD interface) are appended
// in place.
func (s Stretched) EncodeInto(blk *bitblock.Block, bu *bitblock.Burst) {
	s.Inner.EncodeInto(blk, bu)
	bu.ExtendBeats(s.Total)
}

// CostZeros implements code.Codec: pad beats drive every driven pin high,
// so the stretch adds no zeros over the inner code.
func (s Stretched) CostZeros(blk *bitblock.Block) int { return s.Inner.CostZeros(blk) }

// Decode implements code.Codec.
func (s Stretched) Decode(bu *bitblock.Burst) (bitblock.Block, error) {
	if bu == nil {
		return bitblock.Block{}, fmt.Errorf("milcore: %s decode of nil burst", s.Name())
	}
	if bu.Beats == s.Inner.Beats() {
		return s.Inner.Decode(bu)
	}
	if bu.Beats != s.Total {
		return bitblock.Block{}, fmt.Errorf("milcore: %s decode of %d-beat burst, want %d",
			s.Name(), bu.Beats, s.Total)
	}
	trunc := bitblock.NewBurst(bu.Width, s.Inner.Beats())
	for p := 0; p < bu.Width; p++ {
		trunc.SetDriven(p, bu.Driven(p))
	}
	for b := 0; b < s.Inner.Beats(); b++ {
		for p := 0; p < bu.Width; p++ {
			if bu.Driven(p) {
				trunc.SetBit(b, p, bu.Bit(b, p))
			}
		}
	}
	return s.Inner.Decode(trunc)
}
