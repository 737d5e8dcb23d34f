package main

import (
	"fmt"
	"time"

	"gimbal/internal/fabric"
	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/stats"
	"gimbal/internal/tier"
	"gimbal/internal/workload"
)

// fioSize dimensions sim-fio.
type fioSize struct {
	ssds      int
	capacity  int64 // NAND bytes per SSD
	tierFrac  float64
	warm, dur int64 // virtual time
	tick      int64
}

func fioDims(size sizeClass) fioSize {
	if size == smokeSize {
		return fioSize{ssds: 2, capacity: 64 << 20, tierFrac: 0.05,
			warm: 5 * sim.Millisecond, dur: 10 * sim.Millisecond, tick: sim.Millisecond}
	}
	return fioSize{ssds: 4, capacity: 1 << 30, tierFrac: 0.05,
		warm: 100 * sim.Millisecond, dur: 900 * sim.Millisecond, tick: sim.Millisecond}
}

// fioProfiles is the tenant mix each SSD serves: three Zipf-0.99 4 KB
// readers at QD32, one sequential 128 KB writer at QD4 and one Zipf 4 KB
// writer rate-limited to 48 MB/s.
func fioProfiles() []workload.Profile {
	ps := make([]workload.Profile, 0, 5)
	for i := 0; i < 3; i++ {
		ps = append(ps, workload.Profile{Name: "zrd4k", ReadRatio: 1, IOSize: 4096, QD: 32, Zipf: 0.99})
	}
	ps = append(ps,
		workload.Profile{Name: "wr128k", ReadRatio: 0, IOSize: 128 << 10, QD: 4, Seq: true},
		workload.Profile{Name: "zwr4k", ReadRatio: 0, IOSize: 4096, QD: 8, Zipf: 0.99, RateLimitBps: 48e6})
	return ps
}

// fioStack is one built sim-fio rig: the calls mirror bench.NewFioRun with
// a fast tier (tier-sweep's configuration) over fragmented NAND.
type fioStack struct {
	loop     *sim.Loop
	target   *fabric.Target
	nand     []*ssd.SSD
	tiers    []*tier.Device
	workers  []*workload.Worker
	sessions []*fabric.Session
	spans    *spans // nil untraced
}

// snapshotSalt makes every repetition's preconditioning miss the FTL
// snapshot cache, so set-up time measures the full preconditioning a
// fresh process pays rather than a cache restore.
var snapshotSalt uint64

func buildFio(seed uint64, d fioSize, traced bool) *fioStack {
	st := &fioStack{loop: sim.NewLoop()}
	if traced {
		st.spans = &spans{}
	}
	loop := st.loop
	params := ssd.DCT983()
	params.UsableBytes = d.capacity
	tp := tier.DefaultParams(int64(d.tierFrac * float64(d.capacity)))
	tp.DestageDelay = 10 * sim.Millisecond
	rng := sim.NewRNG(seed)

	var devs []ssd.Device
	for i := 0; i < d.ssds; i++ {
		n := ssd.New(loop, params)
		snapshotSalt++
		n.SetSnapshotTag(tp.SnapshotTag() + snapshotSalt)
		n.Precondition(ssd.Fragmented, rng.Fork())
		st.nand = append(st.nand, n)
		var dev ssd.Device = n
		if traced {
			dev = &devShim{inner: dev, id: layerSSD, s: st.spans}
		}
		t := tier.New(loop, dev, tp)
		st.tiers = append(st.tiers, t)
		dev = t
		if traced {
			dev = &devShim{inner: dev, id: layerTier, s: st.spans}
		}
		devs = append(devs, dev)
	}
	st.target = fabric.NewTarget(loop, devs, fabric.DefaultTargetConfig(fabric.SchemeGimbal))
	for i, t := range st.tiers {
		p := st.target.Pipeline(i)
		p.Gimbal.SetCostModel(t)
		if traced {
			p.Sched = &schedShim{Scheduler: p.Sched, s: st.spans}
		}
	}
	st.target.AttachObs(obs.NewHub(obs.NewRegistry()))
	for s := 0; s < d.ssds; s++ {
		for _, p := range fioProfiles() {
			id := len(st.workers)
			tenant := nvme.NewTenant(id, fmt.Sprintf("%s-%d", p.Name, id))
			sess := st.target.Connect(tenant, s)
			p.Span = d.capacity
			var tgt workload.Target = sess
			if traced {
				tgt = &targetShim{inner: sess, s: st.spans}
			}
			st.workers = append(st.workers, workload.NewWorker(loop, rng.Fork(), p, tenant, tgt))
			st.sessions = append(st.sessions, sess)
		}
	}
	return st
}

func runSimFio(o options, size sizeClass) (*report, error) {
	d := fioDims(size)
	reps, err := repeatSim(o, func(_ int, traced bool) (*simRep, error) {
		return fioRep(o.seed, d, traced), nil
	})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	summarizeSim(o, size, reps, rep)
	return rep, nil
}

// fioRep builds and runs one repetition.
func fioRep(seed uint64, d fioSize, traced bool) *simRep {
	r := &simRep{traced: traced}
	t0 := time.Now()
	st := buildFio(seed, d, traced)
	r.setupS = time.Since(t0).Seconds()

	loop := st.loop
	stop := loop.Now() + d.warm + d.dur
	mark := rtMark()
	t1 := time.Now()
	for _, w := range st.workers {
		w.Start(stop)
	}
	completions := func() int64 {
		var n int64
		for _, s := range st.sessions {
			n += s.Completed
		}
		return n
	}
	r.drive(loop, d.warm, d.tick, completions)
	for _, w := range st.workers {
		w.ResetStats()
	}
	nand0 := make([]ssd.Stats, len(st.nand))
	tier0 := make([]tier.Stats, len(st.tiers))
	for i := range st.nand {
		nand0[i], tier0[i] = st.nand[i].Stats(), st.tiers[i].Stats()
	}
	r.drive(loop, stop, d.tick, completions)
	r.drain(loop)
	r.wallS = time.Since(t1).Seconds()
	r.rt = rtSince(mark)

	var completed int64
	for _, s := range st.sessions {
		r.attempted += s.Submitted
		completed += s.Completed
		r.failed += s.Errors
	}
	r.ops = completed
	if r.attempted != completed {
		r.problemf("submitted %d IOs, completed %d", r.attempted, completed)
		r.failed += r.attempted - completed
	}
	if n := loop.Live(); n != 0 {
		r.problemf("%d live events after drain", n)
	}
	for i, n := range st.nand {
		if err := n.FTLCheck(); err != nil {
			r.problemf("ssd %d FTL check: %v", i, err)
		}
	}

	var fp fingerprinter
	fp.add("end", loop.Now(), r.events)
	for i, w := range st.workers {
		fp.add(fmt.Sprintf("worker %d %s", i, w.Profile().Name), w.OKIOs(), w.Errors(),
			quantilesNs(w.ReadLat), quantilesNs(w.WriteLat))
	}
	var nandDelta []ssd.Stats
	var tierDelta []tier.Stats
	for i := range st.nand {
		n, t := st.nand[i].Stats(), st.tiers[i].Stats()
		fp.add(fmt.Sprintf("ssd %d", i), n.ReadOps, n.WriteOps, n.GCMovedPages, n.Erases, n.WriteAmp)
		fp.add(fmt.Sprintf("tier %d", i), t.Hits, t.Misses, t.WriteBacks, t.WriteArounds,
			t.Absorbed, t.Promotions, t.Evictions, t.Destages, t.DestageBytes)
		nandDelta = append(nandDelta, subSSD(n, nand0[i]))
		tierDelta = append(tierDelta, subTier(t, tier0[i]))
	}
	r.fingerprint = fp.sum()
	if traced {
		r.layers = fioLayers(st, r, nandDelta, tierDelta)
	}
	return r
}

// fioLayers derives the per-layer values of one traced repetition. Ratios
// of device and tier counters cover the measured window after warm-up.
func fioLayers(st *fioStack, r *simRep, nand []ssd.Stats, tiers []tier.Stats) map[string]float64 {
	sp := st.spans
	var t tier.Stats
	for _, x := range tiers {
		t.Hits += x.Hits
		t.Misses += x.Misses
		t.WriteBacks += x.WriteBacks
		t.WriteArounds += x.WriteArounds
		t.DestageBytes += x.DestageBytes
	}
	var gcMoved uint64
	var wa float64
	for i, n := range nand {
		gcMoved += n.GCMovedPages
		wa += st.nand[i].Stats().WriteAmp
	}
	return map[string]float64{
		"fabric.submit_ns":     sp.layers[layerFabric].nsPerCall(),
		"core.enqueue_ns":      sp.layers[layerCore].nsPerCall(),
		"tier.submit_ns":       sp.layers[layerTier].nsPerCall(),
		"ssd.submit_ns":        sp.layers[layerSSD].nsPerCall(),
		"ssd.ios_per_op":       ratio(float64(sp.layers[layerSSD].calls), float64(r.ops)),
		"ssd.gc_moved_pages":   float64(gcMoved),
		"ssd.write_amp":        wa / float64(len(nand)),
		"tier.hit_ratio":       ratio(float64(t.Hits), float64(t.Hits+t.Misses)),
		"tier.writeback_ratio": ratio(float64(t.WriteBacks), float64(t.WriteBacks+t.WriteArounds)),
		"tier.destage_mb":      float64(t.DestageBytes) / 1e6,
	}
}

// quantilesNs renders a histogram's count and p50/p99/p99.9 for a
// fingerprint.
func quantilesNs(h *stats.Histogram) string {
	return fmt.Sprintf("%d/%d/%d/%d", h.Count(), h.P50(), h.P99(), h.P999())
}

func subSSD(a, b ssd.Stats) ssd.Stats {
	a.ReadOps -= b.ReadOps
	a.WriteOps -= b.WriteOps
	a.GCMovedPages -= b.GCMovedPages
	a.Erases -= b.Erases
	return a
}

func subTier(a, b tier.Stats) tier.Stats {
	a.Hits -= b.Hits
	a.Misses -= b.Misses
	a.WriteBacks -= b.WriteBacks
	a.WriteArounds -= b.WriteArounds
	a.Destages -= b.Destages
	a.DestageBytes -= b.DestageBytes
	return a
}
