package fabric

import (
	"gimbal/internal/fault"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/tier"
)

// Stack is the per-SSD device stack beneath each switch pipeline (§3,
// §4.1): the NAND model, an inert fault layer above it, and optionally a
// fast tier outermost, so NAND faults never slow tier hits. Every
// deployment — the facade, gimbald, and the bench harness — builds its
// devices here, so the stacking order has one owner.
type Stack struct {
	NAND  []*ssd.SSD
	Wraps []*fault.Device
	Tiers []*tier.Device // nil without a tier
	Devs  []ssd.Device   // the outermost device of each SSD
}

// NewStack builds n SSD stacks. SSD i runs on clk(i) and is preconditioned
// to cond with one rng.Fork() per SSD, in index order. A non-nil tp puts a
// fast tier with those (validated) parameters on top of every SSD.
func NewStack(n int, clk func(i int) sim.Scheduler, params ssd.Params, cond ssd.Condition, tp *tier.Params, rng *sim.RNG) *Stack {
	s := &Stack{}
	for i := 0; i < n; i++ {
		d := ssd.New(clk(i), params)
		if tp != nil {
			// Tag before preconditioning: a tiered stack must not share an
			// FTL snapshot cache entry with an untiered one (the tier
			// reshapes the write stream the FTL sees after the snapshot).
			d.SetSnapshotTag(tp.SnapshotTag())
		}
		d.Precondition(cond, rng.Fork())
		w := fault.Wrap(clk(i), d)
		var dev ssd.Device = w
		if tp != nil {
			t := tier.New(clk(i), w, *tp)
			s.Tiers = append(s.Tiers, t)
			dev = t
		}
		s.NAND = append(s.NAND, d)
		s.Wraps = append(s.Wraps, w)
		s.Devs = append(s.Devs, dev)
	}
	return s
}

// NewEngine returns a fault engine over the stack's fault layers that
// schedules on clk, with tier bypass wired when the stack has a tier.
func (s *Stack) NewEngine(clk sim.Scheduler) *fault.Engine {
	e := fault.NewEngine(clk, s.Wraps)
	if s.Tiers != nil {
		e.Tier = func(i int, active bool) { s.Tiers[i].SetBypass(active) }
	}
	return e
}
