package ssd_test

import (
	"bytes"
	"strings"
	"testing"

	"gimbal/internal/fault"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/tier"
)

// forwarder is a pass-through layer that forwards AttachObs down the chain
// the way benchmark shims do, counting how often it is attached.
type forwarder struct {
	ssd.Device
	attached int
}

func (f *forwarder) Inner() ssd.Device { return f.Device }
func (f *forwarder) AttachObs(reg *obs.Registry, i int) {
	f.attached++
	ssd.AttachObs(f.Device, reg, i)
}

func smallNAND(loop *sim.Loop) *ssd.SSD {
	p := ssd.DCT983()
	p.UsableBytes = 16 << 20
	d := ssd.New(loop, p)
	d.Precondition(ssd.Clean, sim.NewRNG(1))
	return d
}

// seriesCount counts exposition lines of one labelled series.
func seriesCount(t *testing.T, reg *obs.Registry, series string) int {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, series+" ") {
			n++
		}
	}
	return n
}

func TestNANDWalksWrapperChain(t *testing.T) {
	loop := sim.NewLoop()
	nand := smallNAND(loop)
	w := fault.Wrap(loop, nand)
	ft := tier.New(loop, w, tier.DefaultParams(1<<20))
	for name, dev := range map[string]ssd.Device{
		"bare":                      nand,
		"fault":                     w,
		"tier/fault":                ft,
		"forwarder/tier/fault":      &forwarder{Device: ft},
		"tier/forwarder/fault":      tier.New(loop, &forwarder{Device: w}, tier.DefaultParams(1<<20)),
		"forwarder/fault/forwarder": &forwarder{Device: fault.Wrap(loop, &forwarder{Device: nand})},
	} {
		if got := ssd.NAND(dev); got != nand {
			t.Fatalf("%s: NAND = %p, want %p", name, got, nand)
		}
	}
	if got := ssd.NAND(fault.Wrap(loop, ssd.NewNull(loop, 1<<30, 0))); got != nil {
		t.Fatalf("NULL device chain: NAND = %p, want nil", got)
	}
}

func TestAttachObsWalksWrapperChain(t *testing.T) {
	const wa = `ssd_write_amplification{ssd="0"}`
	loop := sim.NewLoop()

	// A fault layer has no telemetry of its own: the walk reaches the NAND.
	reg := obs.NewRegistry()
	ssd.AttachObs(fault.Wrap(loop, smallNAND(loop)), reg, 0)
	if n := seriesCount(t, reg, wa); n != 1 {
		t.Fatalf("fault/NAND: %d %s series, want 1", n, wa)
	}

	// tier → forwarder → fault → NAND: the tier attaches itself and chains
	// down; the forwarder is reached once, and the NAND exports once.
	reg = obs.NewRegistry()
	fwd := &forwarder{Device: fault.Wrap(loop, smallNAND(loop))}
	ft := tier.New(loop, fwd, tier.DefaultParams(1<<20))
	top := &forwarder{Device: ft}
	ssd.AttachObs(top, reg, 0)
	if top.attached != 1 || fwd.attached != 1 {
		t.Fatalf("forwarders attached %d/%d times, want 1/1", top.attached, fwd.attached)
	}
	if n := seriesCount(t, reg, wa); n != 1 {
		t.Fatalf("tier chain: %d %s series, want 1", n, wa)
	}
	if n := seriesCount(t, reg, `tier_hits_total{ssd="0"}`); n != 1 {
		t.Fatalf("tier chain: tier telemetry not attached")
	}

	// A chain with no telemetry anywhere attaches nothing.
	reg = obs.NewRegistry()
	ssd.AttachObs(fault.Wrap(loop, ssd.NewNull(loop, 1<<30, 0)), reg, 0)
	if n := len(reg.Snapshot()); n != 0 {
		t.Fatalf("NULL chain exported %d series", n)
	}
}
