package milcore

import (
	"fmt"
	"testing"

	"mil/internal/bitblock"
	"mil/internal/code"
	"mil/internal/memctrl"
)

// stubCodec is a fixed-cost arm for convergence tests: CostZeros returns
// a constant, so the probe path never touches Encode or EncodeInto (which
// panic to prove the probes really take the arithmetic shortcut).
type stubCodec struct {
	name string
	cost int
}

func (s stubCodec) Name() string                           { return s.name }
func (s stubCodec) Beats() int                             { return 8 }
func (s stubCodec) ExtraLatency() int                      { return 0 }
func (s stubCodec) CostZeros(*bitblock.Block) int          { return s.cost }
func (s stubCodec) Encode(*bitblock.Block) *bitblock.Burst { panic("probe must use CostZeros") }
func (s stubCodec) EncodeInto(*bitblock.Block, *bitblock.Burst) {
	panic("probe must use CostZeros")
}
func (s stubCodec) Decode(*bitblock.Burst) (bitblock.Block, error) {
	panic("probe must use CostZeros")
}

var _ code.Codec = stubCodec{}

// driveEpoch plays `bursts` write probes through Choose and closes the
// epoch with the given delta.
func driveEpoch(b *Bandit, bursts int64, delta memctrl.EpochStats) {
	var blk bitblock.Block
	for i := int64(0); i < bursts; i++ {
		b.Choose(true, &blk, nil)
	}
	delta.Bursts = bursts
	b.ObserveEpoch(int64(b.Epochs()+1)*1000, delta)
}

// decisionTrace runs a fixed feedback schedule and records the arm
// played after each epoch.
func decisionTrace(t *testing.T, seed uint64, epochs int) []int {
	t.Helper()
	b, err := NewBandit(seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, 0, epochs)
	var blk bitblock.Block
	for i := range blk {
		blk[i] = byte(i * 7) // mixed density, so arms cost differently
	}
	for e := 0; e < epochs; e++ {
		for i := 0; i < b.EpochLength(); i++ {
			b.Choose(true, &blk, nil)
		}
		b.ObserveEpoch(int64(e+1)*1000, memctrl.EpochStats{Bursts: int64(b.EpochLength())})
		out = append(out, b.Current())
	}
	return out
}

func TestBanditDeterministicPerSeed(t *testing.T) {
	a := decisionTrace(t, 42, 200)
	bTrace := decisionTrace(t, 42, 200)
	for i := range a {
		if a[i] != bTrace[i] {
			t.Fatalf("same seed diverged at epoch %d: arm %d vs %d", i, a[i], bTrace[i])
		}
	}
	// Different seeds explore on different schedules; over 200 epochs the
	// traces must not be identical (the greedy arm is, but exploration
	// isn't).
	other := decisionTrace(t, 43, 200)
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical 200-epoch decision traces")
	}
}

func TestBanditPicksLowestCostArm(t *testing.T) {
	b := MustNewBandit(7, WithBanditArms(
		stubCodec{"a", 300},
		stubCodec{"b", 120}, // lowest probe cost: the greedy pick
		stubCodec{"c", 250},
	), WithBanditEpoch(4))
	picks := map[int]int{}
	for e := 0; e < 400; e++ {
		driveEpoch(b, 4, memctrl.EpochStats{})
		picks[b.Current()]++
	}
	if b.Epochs() != 400 {
		t.Fatalf("bandit counted %d epochs, want 400", b.Epochs())
	}
	// Greedy epochs (7 in 8 on average) all pick arm 1; exploration may
	// visit the others. A clear majority on the cheapest arm is the
	// convergence property.
	if picks[1] < 300 {
		t.Errorf("cheapest arm played %d/400 epochs, want >= 300 (picks: %v)", picks[1], picks)
	}
}

func TestBanditRetryPenaltyEvictsArm(t *testing.T) {
	b := MustNewBandit(7, WithBanditArms(
		stubCodec{"faulty-cheap", 100},
		stubCodec{"clean-dear", 180},
	), WithBanditEpoch(4), WithBanditExplore(1000000))
	// Let it settle on the cheap arm first.
	for e := 0; e < 10; e++ {
		driveEpoch(b, 4, memctrl.EpochStats{})
	}
	if b.Current() != 0 {
		t.Fatalf("bandit settled on arm %d, want the cheap arm 0", b.Current())
	}
	// Now every epoch the cheap arm plays, it eats retries. One retry per
	// burst costs 512000 milli-zeros — far above the 80-milli-zero gap —
	// so the EWMA crosses over within a few epochs.
	for e := 0; e < 20 && b.Current() == 0; e++ {
		driveEpoch(b, 4, memctrl.EpochStats{Retries: 4})
	}
	if b.Current() != 1 {
		t.Fatal("retry storms on the cheap arm never evicted it")
	}
	if b.Switches() == 0 {
		t.Error("switch counter still zero after an observed arm change")
	}
}

func TestBanditValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []BanditOption
	}{
		{"one arm", []BanditOption{WithBanditArms(stubCodec{"a", 1})}},
		{"nil arm", []BanditOption{WithBanditArms(stubCodec{"a", 1}, nil)}},
		{"zero epoch", []BanditOption{WithBanditEpoch(0)}},
		{"zero explore", []BanditOption{WithBanditExplore(0)}},
	}
	for _, tc := range cases {
		if _, err := NewBandit(0, tc.opts...); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if b, err := NewBandit(0); err != nil || b.Name() != "mil-bandit" {
		t.Errorf("default construction: bandit %v, err %v", b, err)
	}
}

// TestBanditObserveEpochZeroAlloc extends the column path's zero-alloc
// discipline to the feedback path: probing every arm on a write and
// folding an epoch must not allocate.
func TestBanditObserveEpochZeroAlloc(t *testing.T) {
	b := MustNewBandit(5, WithBanditEpoch(4))
	var blk bitblock.Block
	for i := range blk {
		blk[i] = byte(i)
	}
	epoch := func() {
		for i := 0; i < 4; i++ {
			b.Choose(true, &blk, nil)
		}
		b.ObserveEpoch(0, memctrl.EpochStats{Bursts: 4, Retries: 1})
	}
	epoch()
	if n := testing.AllocsPerRun(100, epoch); n != 0 {
		t.Errorf("probe+fold epoch allocates %v allocs/op, want 0", n)
	}
}

// TestBanditDefaultArmsProbeArithmetically pins that every default arm's
// CostZeros is arithmetic: if one ran a trial Encode, each write would
// materialize a burst per arm and the probe would stop being near-free.
func TestBanditDefaultArmsProbeArithmetically(t *testing.T) {
	b := MustNewBandit(0)
	var blk bitblock.Block
	probe := func() { b.Choose(true, &blk, nil) }
	probe()
	if n := testing.AllocsPerRun(100, probe); n != 0 {
		t.Errorf("default-arm write probe allocates %v allocs/op, want 0", n)
	}
}

func TestBanditStubsSanity(t *testing.T) {
	// driveEpoch feeds every arm the same block, so probe averages equal
	// the stub costs exactly (in milli-zeros).
	b := MustNewBandit(3, WithBanditArms(stubCodec{"a", 10}, stubCodec{"b", 20}), WithBanditEpoch(2))
	driveEpoch(b, 2, memctrl.EpochStats{})
	for i, want := range []int64{10000, 20000} {
		if b.est[i] != want {
			t.Errorf("arm %d estimate %d milli-zeros, want %d", i, b.est[i], want)
		}
	}
	if got := fmt.Sprintf("%s/%s", b.arms[0].Name(), b.arms[1].Name()); got != "a/b" {
		t.Errorf("arms misordered: %s", got)
	}
}
