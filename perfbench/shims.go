package main

import (
	"time"

	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/workload"
)

// The traced run wraps the program's public layer boundaries with the
// timing shims below; the untraced run builds the same stack without them.
// Each shim records a span — layer, start, end — around the call into the
// layer it fronts, and a layer's self time is its span minus the spans of
// the layers it called synchronously (e.g. fabric → core → tier → ssd on
// the submit path).

// layerID names one layer boundary the shims time.
type layerID int

const (
	layerFabric layerID = iota // workload.Target / blobstore Backend.Target → session
	layerCore                  // Pipeline.Sched.Enqueue (the Gimbal switch)
	layerTier                  // tier.Device.Submit
	layerSSD                   // ssd.SSD.Submit (NAND model)
	numLayers
)

// layerStat accumulates one layer's calls and self time.
type layerStat struct {
	calls  int64
	selfNs int64
}

// nsPerCall is the layer's mean self time per call.
func (l layerStat) nsPerCall() float64 { return ratio(float64(l.selfNs), float64(l.calls)) }

type frame struct {
	id    layerID
	start int64
	child int64 // time covered by nested spans
}

// spans is the span stack and per-layer totals of one serialization
// domain: the event loop of a simulation, or one shard of the live target
// (every call into a shard's pipelines runs under that shard's lock).
// It also holds the live-only wall-clock samples the device and timer
// shims take under the same lock.
type spans struct {
	layers [numLayers]layerStat
	frames []frame

	queueWaitNs []int64 // switch enqueue → device submit (live)
	serviceNs   []int64 // device submit → device completion callback (live)
	timerLateNs []int64 // timer due → timer callback running (live)
	timers      int64   // timers the devices armed (live)
}

// epoch anchors nanotime so spans use the monotonic clock.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

func (s *spans) enter(id layerID) {
	s.frames = append(s.frames, frame{id: id, start: nanotime()})
}

func (s *spans) exit() {
	end := nanotime()
	n := len(s.frames) - 1
	f := s.frames[n]
	s.frames = s.frames[:n]
	d := end - f.start
	l := &s.layers[f.id]
	l.calls++
	l.selfNs += d - f.child
	if n > 0 {
		s.frames[n-1].child += d
	}
}

// merge folds o's totals and samples into s.
func (s *spans) merge(o *spans) {
	for i := range s.layers {
		s.layers[i].calls += o.layers[i].calls
		s.layers[i].selfNs += o.layers[i].selfNs
	}
	s.queueWaitNs = append(s.queueWaitNs, o.queueWaitNs...)
	s.serviceNs = append(s.serviceNs, o.serviceNs...)
	s.timerLateNs = append(s.timerLateNs, o.timerLateNs...)
	s.timers += o.timers
}

// targetShim fronts a session (workload.Target, and the Target a
// blobstore.Backend submits through).
type targetShim struct {
	inner workload.Target
	s     *spans
}

func (t *targetShim) Submit(io *nvme.IO) {
	t.s.enter(layerFabric)
	t.inner.Submit(io)
	t.s.exit()
}

// schedShim fronts a pipeline's scheduler (Pipeline.Sched).
type schedShim struct {
	nvme.Scheduler
	s *spans
}

func (q *schedShim) Enqueue(io *nvme.IO) {
	q.s.enter(layerCore)
	q.Scheduler.Enqueue(io)
	q.s.exit()
}

// Unregister forwards session teardown to a scheduler that supports it.
func (q *schedShim) Unregister(t *nvme.Tenant) []*nvme.IO {
	if r, ok := q.Scheduler.(nvme.TenantRemover); ok {
		return r.Unregister(t)
	}
	return nil
}

// devShim fronts an ssd.Device: the tier, or the NAND model below it. It
// forwards Inner and AttachObs so the layers above still find the NAND
// model and attach its telemetry exactly as they do without the shim.
type devShim struct {
	inner ssd.Device
	id    layerID
	s     *spans
	// clk, when set (live), also samples the wall-clock queue wait of the
	// IO and the device's service time up to its completion callback.
	clk sim.Scheduler
}

func (d *devShim) Submit(r *ssd.Request) {
	if d.clk != nil {
		d.sampleWall(r)
	}
	d.s.enter(d.id)
	d.inner.Submit(r)
	d.s.exit()
}

func (d *devShim) sampleWall(r *ssd.Request) {
	now := d.clk.Now()
	if io, ok := r.Tag.(*nvme.IO); ok && io.Arrival > 0 {
		d.s.queueWaitNs = append(d.s.queueWaitNs, now-io.Arrival)
	}
	done := r.Done
	r.Done = func(q *ssd.Request) {
		d.s.serviceNs = append(d.s.serviceNs, d.clk.Now()-now)
		q.Done = done
		done(q)
	}
}

func (d *devShim) Capacity() int64   { return d.inner.Capacity() }
func (d *devShim) Inner() ssd.Device { return d.inner }
func (d *devShim) AttachObs(reg *obs.Registry, ssdIdx int) {
	if a, ok := d.inner.(interface {
		AttachObs(*obs.Registry, int)
	}); ok {
		a.AttachObs(reg, ssdIdx)
	}
}

// clockShim fronts the sim.Scheduler a live device runs on: it counts the
// timers the device arms and how late each fires against its due time.
// Callbacks run under the shard lock, as do the device calls that arm them.
type clockShim struct {
	sim.Scheduler
	s *spans
}

func (c *clockShim) At(t int64, fn func()) sim.Timer {
	c.s.timers++
	due := t
	if now := c.Scheduler.Now(); due < now {
		due = now // a past time fires immediately, as the scheduler clamps it
	}
	return c.Scheduler.At(t, c.late(due, fn))
}

func (c *clockShim) After(d int64, fn func()) sim.Timer {
	c.s.timers++
	return c.Scheduler.After(d, c.late(c.Scheduler.Now()+d, fn))
}

func (c *clockShim) late(due int64, fn func()) func() {
	return func() {
		c.s.timerLateNs = append(c.s.timerLateNs, c.Scheduler.Now()-due)
		fn()
	}
}
