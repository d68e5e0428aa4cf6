package memctrl

import "fmt"

// SystemConfig describes the whole main-memory subsystem: N identical
// channels, the coding policy, and a phy factory (phys are stateful per
// channel).
type SystemConfig struct {
	Channels   int
	Controller Config
	Policy     Policy
	NewPhy     func() Phy
	Mem        Memory
}

// System is the multi-channel memory subsystem the CPU side talks to.
type System struct {
	mapper *AddressMapper
	ctrls  []*Controller
}

// NewSystem builds the per-channel controllers and the address mapper.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.Channels <= 0 {
		return nil, fmt.Errorf("memctrl: channels = %d", cfg.Channels)
	}
	if cfg.NewPhy == nil {
		return nil, fmt.Errorf("memctrl: nil phy factory")
	}
	mapper, err := NewAddressMapper(cfg.Channels, cfg.Controller.DRAM.Geometry)
	if err != nil {
		return nil, err
	}
	s := &System{mapper: mapper}
	for i := 0; i < cfg.Channels; i++ {
		c, err := NewController(cfg.Controller, cfg.Mem, cfg.Policy, cfg.NewPhy())
		if err != nil {
			return nil, err
		}
		s.ctrls = append(s.ctrls, c)
	}
	return s, nil
}

// Mapper exposes the address mapping (the CPU side uses it in tests).
func (s *System) Mapper() *AddressMapper { return s.mapper }

// Channels returns the channel count.
func (s *System) Channels() int { return len(s.ctrls) }

// Controller returns channel i's controller.
func (s *System) Controller(i int) *Controller { return s.ctrls[i] }

// SetDoneHook installs a completion observer on every channel (see
// Controller.SetDoneHook).
func (s *System) SetDoneHook(hook func(req *Request, now int64)) {
	for _, c := range s.ctrls {
		c.SetDoneHook(hook)
	}
}

// Enqueue routes a request to its channel. It returns false when that
// channel's queue is full; the caller retries later.
func (s *System) Enqueue(req *Request, now int64) bool {
	if !req.mapped {
		req.loc = s.mapper.Map(req.Line)
		req.mapped = true
	}
	return s.ctrls[req.loc.Channel].Enqueue(req, now)
}

// Tick advances every channel one DRAM cycle.
func (s *System) Tick(now int64) {
	for _, c := range s.ctrls {
		c.Tick(now)
	}
}

// NextWake returns the earliest next-wake bound over all channels (see
// Controller.NextWake for the contract).
func (s *System) NextWake() int64 {
	w := s.ctrls[0].NextWake()
	for _, c := range s.ctrls[1:] {
		w = min(w, c.NextWake())
	}
	return w
}

// SkipUntil bulk-accounts the no-op cycles up to and including `to` on
// every channel.
func (s *System) SkipUntil(to int64) {
	for _, c := range s.ctrls {
		c.SkipUntil(to)
	}
}

// Pending reports whether any channel still has queued or in-flight work.
func (s *System) Pending() bool {
	for _, c := range s.ctrls {
		if c.Pending() {
			return true
		}
	}
	return false
}

// Stats returns the aggregate over all channels.
func (s *System) Stats() *Stats {
	agg := NewStats()
	for _, c := range s.ctrls {
		agg.Merge(c.Stats())
	}
	return agg
}
