package milcore

import (
	"fmt"

	"mil/internal/bitblock"
	"mil/internal/code"
	"mil/internal/memctrl"
	"mil/internal/obs"
)

// Degrader wraps the MiL policy with a graceful-degradation ladder for
// faulty links. The observation: the energy win of the wide sparse code is
// worthless if its long burst keeps getting NACKed and replayed - each
// replay costs a full burst of energy and bus time - and on a link with
// persistent errors the longest burst is also the most exposed (most
// bit-times on the wire). So on persistent failures the policy demotes:
//
//	level 0: full MiL (3-LWC / MiLC opportunistic mix)
//	level 1: MiLC only (BL10 - shorter exposure, still coded)
//	level 2: uncoded DBI (BL8 - minimum exposure, no coding gain)
//
// Demotion triggers when the failure count within a sliding window of
// bursts crosses a threshold; promotion back up requires a long run of
// consecutive clean bursts, so a marginal link settles at the deepest
// level it keeps failing at instead of oscillating. The controller feeds
// the burst outcome stream in via RecordBurst (memctrl.ReliabilityFeedback).
type Degrader struct {
	inner  memctrl.Policy
	ladder []code.Codec

	window  int // bursts per observation window
	demote  int // failures within a window that trigger demotion
	promote int // consecutive clean bursts that lift one level

	level    int
	bursts   int // bursts seen in the current window
	failures int // failures seen in the current window
	clean    int // consecutive clean bursts

	demotions  int64
	promotions int64

	// transitions, when attached via SetObs, counts ladder moves in either
	// direction. Nil is a no-op.
	transitions *obs.Counter
}

// SetObs attaches the observability layer. Nil-safe: a disabled Obs
// leaves the degrader on its zero-cost path.
func (d *Degrader) SetObs(o *obs.Obs) {
	if !o.Enabled() {
		return
	}
	d.transitions = o.Counter("degrade_transitions_total")
}

// DegraderOption configures a Degrader.
type DegraderOption func(*Degrader)

// WithDegradeWindow sets the observation window (bursts) and the failure
// count within it that triggers demotion.
func WithDegradeWindow(window, failures int) DegraderOption {
	return func(d *Degrader) { d.window, d.demote = window, failures }
}

// WithPromoteAfter sets the consecutive clean bursts required to climb one
// level back up.
func WithPromoteAfter(n int) DegraderOption {
	return func(d *Degrader) { d.promote = n }
}

// WithLadder overrides the demotion codecs, ordered most- to least-capable.
func WithLadder(codecs ...code.Codec) DegraderOption {
	return func(d *Degrader) { d.ladder = codecs }
}

// NewDegrader wraps inner (normally the MiL Policy) with the default
// ladder MiLC -> DBI and windows sized so a handful of failures demote
// quickly but promotion needs a sustained clean run.
func NewDegrader(inner memctrl.Policy, opts ...DegraderOption) (*Degrader, error) {
	d := &Degrader{
		inner:   inner,
		ladder:  []code.Codec{code.MiLC{}, code.DBI{}},
		window:  64,
		demote:  8,
		promote: 512,
	}
	for _, o := range opts {
		o(d)
	}
	switch {
	case inner == nil:
		return nil, fmt.Errorf("milcore: degrader wrapping nil policy")
	case len(d.ladder) == 0:
		return nil, fmt.Errorf("milcore: degrader with empty ladder")
	case d.window <= 0 || d.demote <= 0 || d.demote > d.window:
		return nil, fmt.Errorf("milcore: degrade window %d / threshold %d", d.window, d.demote)
	case d.promote <= 0:
		return nil, fmt.Errorf("milcore: promote-after %d <= 0", d.promote)
	}
	for _, c := range d.ladder {
		if c == nil {
			return nil, fmt.Errorf("milcore: nil codec in ladder")
		}
	}
	return d, nil
}

// MustNewDegrader is NewDegrader for static configurations.
func MustNewDegrader(inner memctrl.Policy, opts ...DegraderOption) *Degrader {
	d, err := NewDegrader(inner, opts...)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements memctrl.Policy.
func (d *Degrader) Name() string { return "mil-degrade" }

// Level returns the current ladder position (0 = full MiL).
func (d *Degrader) Level() int { return d.level }

// Demotions and Promotions return the lifetime ladder movements.
func (d *Degrader) Demotions() int64  { return d.demotions }
func (d *Degrader) Promotions() int64 { return d.promotions }

// Choose implements memctrl.Policy: at level 0 the inner MiL decision runs
// untouched; below it the level's ladder codec is forced.
func (d *Degrader) Choose(write bool, data *bitblock.Block, la memctrl.Lookahead) code.Codec {
	if d.level == 0 {
		return d.inner.Choose(write, data, la)
	}
	return d.ladder[d.level-1]
}

// RecordBurst implements memctrl.ReliabilityFeedback: the controller
// reports every data burst's outcome and the ladder state machine advances.
func (d *Degrader) RecordBurst(codec string, write, failed bool) {
	d.bursts++
	if failed {
		d.failures++
		d.clean = 0
		// Demote the moment the window's failure budget is blown - no
		// reason to finish observing a window that already failed it.
		if d.failures >= d.demote && d.level < len(d.ladder) {
			d.level++
			d.demotions++
			d.transitions.Inc()
			d.bursts, d.failures = 0, 0
		}
	} else {
		d.clean++
		if d.clean >= d.promote && d.level > 0 {
			d.level--
			d.promotions++
			d.transitions.Inc()
			d.clean = 0
			d.bursts, d.failures = 0, 0
		}
	}
	if d.bursts >= d.window {
		d.bursts, d.failures = 0, 0
	}
}
