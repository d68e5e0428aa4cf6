package milcore

import (
	"fmt"

	"mil/internal/bitblock"
	"mil/internal/code"
	"mil/internal/memctrl"
	"mil/internal/obs"
	"mil/internal/snap"
)

// Bandit is an epsilon-greedy multi-armed bandit over fixed codecs,
// the first consumer of the controller's per-epoch feedback channel
// (memctrl.EpochObserver). Where MiL *predicts* which code the schedule
// can afford, the bandit *measures* which code the data can afford: each
// epoch it plays one arm for every burst, while costing every arm
// counterfactually on each write via the near-free Codec.CostZeros
// probes, then re-picks the arm with the lowest estimated wire cost —
// discounted by the observed retry rate, so a code that keeps getting
// NACKed on a faulty link loses its seat even if its clean-link cost is
// lowest (the same observation that motivates the Degrader's ladder).
//
// Determinism: all state is per-run, the exploration PRNG is seeded from
// the run seed alone, and with a multi-channel System the one shared
// Bandit instance sees epochs in the channels' fixed tick order — so
// runs are bit-reproducible per seed regardless of sweep parallelism,
// and identical across both loop modes (the event core fires the same
// bursts on the same cycles as the steplock reference).
type Bandit struct {
	arms     []code.Codec
	epochLen int
	explore  int // explore on one epoch in `explore`, on average

	rng uint64 // splitmix64 state
	cur int    // arm currently played

	// Counterfactual write probes accumulated over the current epoch:
	// probeSum[i] is arm i's total CostZeros over probeN probed writes.
	probeN   int64
	probeSum []int64

	// est is each arm's cost estimate in milli-zeros per probed write,
	// an integer EWMA folded at epoch boundaries (integer arithmetic
	// keeps the policy bit-deterministic across platforms). estValid is
	// false until the first fold.
	est      []int64
	estValid bool
	// retry is each arm's observed retry penalty (same milli-units,
	// retryPenalty zeros-equivalents per failed transfer per burst),
	// folded only for the arm that actually played the epoch.
	retry []int64

	epochs   int64
	switches int64

	// switchObs, when attached via SetObs, counts arm switches. Nil is a
	// no-op.
	switchObs *obs.Counter
}

// retryPenalty converts one observed retry per burst into an equivalent
// wire cost (zeros per write): a replayed burst re-pays its full bus
// time and energy, which dwarfs any coding gain, so the penalty is set
// well above the densest arm's per-write cost (~a full 512-bit line).
const retryPenalty = 512

// BanditOption configures a Bandit.
type BanditOption func(*Bandit)

// WithBanditArms overrides the raced codecs (at least two).
func WithBanditArms(arms ...code.Codec) BanditOption {
	return func(b *Bandit) { b.arms = arms }
}

// WithBanditEpoch sets the epoch length in issued bursts.
func WithBanditEpoch(n int) BanditOption {
	return func(b *Bandit) { b.epochLen = n }
}

// WithBanditExplore sets the exploration rate: one epoch in n plays a
// uniformly random arm instead of the greedy choice.
func WithBanditExplore(n int) BanditOption {
	return func(b *Bandit) { b.explore = n }
}

// NewBandit builds the default arena — DBI (the baseline), MiLC, the
// BL14 hybrid, and CAFO-2 — seeded from the run seed. Arm 0 (DBI) plays
// until the first epoch's probes arrive.
func NewBandit(seed uint64, opts ...BanditOption) (*Bandit, error) {
	b := &Bandit{
		arms:     []code.Codec{code.DBI{}, code.MiLC{}, code.Hybrid{}, code.NewCAFO(2)},
		epochLen: 64,
		explore:  8,
		// Offset the stream from the workload's seed-derived streams so
		// seed 0 still explores on its own schedule.
		rng: seed ^ 0x6d696c2d62616e64,
	}
	for _, o := range opts {
		o(b)
	}
	switch {
	case len(b.arms) < 2:
		return nil, fmt.Errorf("milcore: bandit needs >= 2 arms, got %d", len(b.arms))
	case b.epochLen <= 0:
		return nil, fmt.Errorf("milcore: bandit epoch %d <= 0", b.epochLen)
	case b.explore <= 0:
		return nil, fmt.Errorf("milcore: bandit explore rate %d <= 0", b.explore)
	}
	for _, a := range b.arms {
		if a == nil {
			return nil, fmt.Errorf("milcore: nil codec in bandit arms")
		}
	}
	b.probeSum = make([]int64, len(b.arms))
	b.est = make([]int64, len(b.arms))
	b.retry = make([]int64, len(b.arms))
	return b, nil
}

// MustNewBandit is NewBandit for static configurations.
func MustNewBandit(seed uint64, opts ...BanditOption) *Bandit {
	b, err := NewBandit(seed, opts...)
	if err != nil {
		panic(err)
	}
	return b
}

// SetObs attaches the observability layer. Nil-safe: a disabled Obs
// leaves the bandit on its zero-cost path.
func (b *Bandit) SetObs(o *obs.Obs) {
	if !o.Enabled() {
		return
	}
	b.switchObs = o.Counter("bandit_switches_total")
}

// Name implements memctrl.Policy.
func (b *Bandit) Name() string { return "mil-bandit" }

// Current returns the index of the arm currently played.
func (b *Bandit) Current() int { return b.cur }

// Epochs and Switches return the lifetime feedback deliveries and arm
// changes.
func (b *Bandit) Epochs() int64   { return b.epochs }
func (b *Bandit) Switches() int64 { return b.switches }

// Choose implements memctrl.Policy: the epoch's arm plays every burst.
// Writes additionally cost every arm on the actual data (arithmetic
// probes — no burst is materialized), feeding the epoch's estimates.
func (b *Bandit) Choose(write bool, data *bitblock.Block, _ memctrl.Lookahead) code.Codec {
	if write && data != nil {
		for i, a := range b.arms {
			b.probeSum[i] += int64(a.CostZeros(data))
		}
		b.probeN++
	}
	return b.arms[b.cur]
}

// EpochLength implements memctrl.EpochObserver.
func (b *Bandit) EpochLength() int { return b.epochLen }

// ObserveEpoch implements memctrl.EpochObserver: fold the epoch's write
// probes into the per-arm cost EWMAs, charge the played arm for the
// epoch's observed retries, and pick the next arm (exploring one epoch
// in `explore`). Allocation-free, preserving the column path's
// zero-alloc discipline.
func (b *Bandit) ObserveEpoch(now int64, delta memctrl.EpochStats) {
	b.epochs++
	if b.probeN > 0 {
		for i := range b.arms {
			avg := b.probeSum[i] * 1000 / b.probeN
			if b.estValid {
				b.est[i] = (7*b.est[i] + avg) / 8
			} else {
				b.est[i] = avg
			}
			b.probeSum[i] = 0
		}
		b.probeN = 0
		b.estValid = true
	}
	if delta.Bursts > 0 {
		pen := delta.Retries * 1000 * retryPenalty / delta.Bursts
		b.retry[b.cur] = (7*b.retry[b.cur] + pen) / 8
	}
	next := b.cur
	if b.nextRand()%uint64(b.explore) == 0 {
		next = int(b.nextRand() % uint64(len(b.arms)))
	} else if b.estValid {
		next = 0
		for i := 1; i < len(b.arms); i++ {
			if b.est[i]+b.retry[i] < b.est[next]+b.retry[next] {
				next = i
			}
		}
	}
	if next != b.cur {
		b.cur = next
		b.switches++
		b.switchObs.Inc()
	}
}

// nextRand advances the exploration stream (splitmix64).
func (b *Bandit) nextRand() uint64 {
	b.rng += 0x9e3779b97f4a7c15
	x := b.rng
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Snapshot serializes the bandit's mutable state (arms and tuning are
// configuration); checkpoint/resume composes with mil-bandit the same
// way it does with mil-degrade.
func (b *Bandit) Snapshot(w *snap.Writer) {
	w.U64(b.rng)
	w.Int(b.cur)
	w.Bool(b.estValid)
	w.I64(b.probeN)
	w.I64s(b.probeSum)
	w.I64s(b.est)
	w.I64s(b.retry)
	w.I64(b.epochs)
	w.I64(b.switches)
}

// Restore implements snap.Snapshotter.
func (b *Bandit) Restore(r *snap.Reader) error {
	b.rng = r.U64()
	b.cur = r.Int()
	b.estValid = r.Bool()
	b.probeN = r.I64()
	probeSum := r.I64s()
	est := r.I64s()
	retry := r.I64s()
	b.epochs = r.I64()
	b.switches = r.I64()
	if err := r.Err(); err != nil {
		return err
	}
	if b.cur < 0 || b.cur >= len(b.arms) {
		return fmt.Errorf("milcore: snapshot bandit arm %d outside %d arms", b.cur, len(b.arms))
	}
	if len(probeSum) != len(b.arms) || len(est) != len(b.arms) || len(retry) != len(b.arms) {
		return fmt.Errorf("milcore: snapshot bandit has %d/%d/%d arm slots, config has %d",
			len(probeSum), len(est), len(retry), len(b.arms))
	}
	copy(b.probeSum, probeSum)
	copy(b.est, est)
	copy(b.retry, retry)
	return r.Err()
}
