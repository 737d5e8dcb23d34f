package main

import (
	"fmt"
	"time"

	"gimbal/internal/blobstore"
	"gimbal/internal/fabric"
	"gimbal/internal/kvstore"
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/workload"
)

// kvSize dimensions sim-kv.
type kvSize struct {
	instances int
	ssds      int
	capacity  int64
	records   int
	valueLen  int
	procs     int // YCSB worker processes per instance
	warm, dur int64
	tick      int64
	probeN    int // Proc round trips timed by the handoff probe
}

func kvDims(size sizeClass) kvSize {
	if size == smokeSize {
		return kvSize{instances: 2, ssds: 2, capacity: 256 << 20, records: 4000, valueLen: 1024,
			procs: 2, warm: 5 * sim.Millisecond, dur: 10 * sim.Millisecond, tick: sim.Millisecond, probeN: 1000}
	}
	return kvSize{instances: 8, ssds: 4, capacity: 4 << 30, records: 120_000, valueLen: 1024,
		procs: 4, warm: 250 * sim.Millisecond, dur: 2750 * sim.Millisecond, tick: sim.Millisecond, probeN: 200_000}
}

// kvStack is one built sim-kv rig: the calls mirror the fig13 "+FC+LB"
// configuration of bench.runYCSB (credit-gated sessions, read balancing)
// with YCSB-A on one JBOF.
type kvStack struct {
	loop     *sim.Loop
	nand     []*ssd.SSD
	sessions []*fabric.Session
	dbs      []*kvstore.DB
	runners  []*kvstore.YCSBRunner
	spans    *spans

	loaded   bool  // every instance finished its load phase
	opsWarm  int64 // YCSB ops completed during warm-up
	kvErrors int64 // operations that failed while the DBs were open
	cutOps   int64 // operations cut short by the DBs closing at the stop time
	dbWarm   []kvstore.Stats
}

func buildKV(seed uint64, d kvSize, traced bool) *kvStack {
	st := &kvStack{loop: sim.NewLoop()}
	if traced {
		st.spans = &spans{}
	}
	loop := st.loop
	rng := sim.NewRNG(seed)
	params := ssd.DCT983()
	params.UsableBytes = d.capacity

	var devs []ssd.Device
	capacities := make([]int64, 0, d.ssds)
	for s := 0; s < d.ssds; s++ {
		n := ssd.New(loop, params)
		snapshotSalt++
		n.SetSnapshotTag(snapshotSalt)
		n.Precondition(ssd.Fragmented, rng.Fork())
		st.nand = append(st.nand, n)
		var dev ssd.Device = n
		if traced {
			dev = &devShim{inner: n, id: layerSSD, s: st.spans}
		}
		devs = append(devs, dev)
		capacities = append(capacities, n.Capacity())
	}
	target := fabric.NewTarget(loop, devs, fabric.DefaultTargetConfig(fabric.SchemeGimbal))
	if traced {
		for s := 0; s < d.ssds; s++ {
			p := target.Pipeline(s)
			p.Sched = &schedShim{Scheduler: p.Sched, s: st.spans}
		}
	}

	bcfg := blobstore.DefaultConfig()
	global := blobstore.NewGlobal(bcfg, capacities)
	opt := kvstore.DefaultOptions()
	loaded := make([]*sim.Gate, d.instances)
	for i := 0; i < d.instances; i++ {
		var backends []*blobstore.Backend
		for s := 0; s < d.ssds; s++ {
			tenant := nvme.NewTenant(i*d.ssds+s, fmt.Sprintf("db%d-ssd%d", i, s))
			sess := target.Connect(tenant, s)
			st.sessions = append(st.sessions, sess)
			var tgt workload.Target = sess
			if traced {
				tgt = &targetShim{inner: sess, s: st.spans}
			}
			backends = append(backends, &blobstore.Backend{
				Target:   tgt,
				Headroom: sess.Headroom,
				Capacity: params.UsableBytes,
			})
		}
		fs := blobstore.NewFS(bcfg, blobstore.NewLocal(global, backends))
		db := kvstore.Open(loop, fs, fmt.Sprintf("db%d", i), opt, rng.Fork())
		runner, err := kvstore.NewYCSBRunner(db, rng.Uint64(), "A", d.records, d.valueLen)
		if err != nil {
			panic(err) // "A" is a built-in workload
		}
		st.dbs = append(st.dbs, db)
		st.runners = append(st.runners, runner)
		loaded[i] = &sim.Gate{}
		i := i
		loop.Spawn(fmt.Sprintf("load%d", i), func(p *sim.Proc) {
			if err := kvstore.FastLoad(p, db, d.records, d.valueLen); err != nil {
				st.kvErrors++
			}
			loaded[i].Fire(nil)
		})
	}

	// Workers run from their instance's load until the coordinator marks
	// the stop time, checked per batch of 16 ops as runYCSB does.
	stop := int64(0)
	for i := 0; i < d.instances; i++ {
		for w := 0; w < d.procs; w++ {
			i := i
			loop.Spawn(fmt.Sprintf("db%d-w%d", i, w), func(p *sim.Proc) {
				loaded[i].Wait(p)
				for stop == 0 || p.Now() < stop {
					if err := st.runners[i].RunOps(p, 16); err != nil {
						// At the stop time the coordinator closes the DBs under
						// workers still inside a batch; their next write
						// fails, which ends the worker as in runYCSB.
						if stop != 0 {
							st.cutOps++
						} else {
							st.kvErrors++
						}
						return
					}
				}
			})
		}
	}
	loop.Spawn("coordinator", func(p *sim.Proc) {
		sim.WaitAll(p, loaded...)
		st.loaded = true
		p.Sleep(d.warm)
		for i, r := range st.runners {
			st.opsWarm += r.Ops
			r.ResetStats()
			st.dbWarm = append(st.dbWarm, st.dbs[i].Stats())
		}
		p.Sleep(d.dur)
		stop = p.Now()
		for _, db := range st.dbs {
			db.Close()
		}
	})
	return st
}

func runSimKV(o options, size sizeClass) (*report, error) {
	d := kvDims(size)
	// Throughput differs by about a tenth between seeds (which instances
	// stall and when compaction runs), so each repetition simulates another
	// draw; a traced run pairs each draw's untraced and traced repetition.
	reps, err := repeatSim(o, func(i int, traced bool) (*simRep, error) {
		draw := i
		if o.trace {
			draw = i / 2
		}
		r, err := kvRep(drawSeed(o.seed, draw), d, traced)
		if r != nil {
			r.draw = draw
		}
		return r, err
	})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	summarizeSim(o, size, reps, rep)
	if o.trace {
		rep.values["sim.proc_handoff_ns"] = procHandoffNs(d.probeN)
	}
	return rep, nil
}

// kvRep builds, loads and runs one repetition. Set-up covers the stack
// build, preconditioning and the load phase.
func kvRep(seed uint64, d kvSize, traced bool) (*simRep, error) {
	r := &simRep{traced: traced}
	t0 := time.Now()
	st := buildKV(seed, d, traced)
	loop := st.loop
	for !st.loaded {
		if !loop.Step() {
			return nil, fmt.Errorf("load phase stalled at t=%d", loop.Now())
		}
	}
	r.setupS = time.Since(t0).Seconds()

	var layers0 [numLayers]layerStat
	var gc0 uint64
	if traced {
		layers0 = st.spans.layers
		for _, n := range st.nand {
			gc0 += n.Stats().GCMovedPages
		}
	}
	mark := rtMark()
	t1 := time.Now()
	r.drive(loop, loop.Now()+d.warm+d.dur, d.tick, func() int64 {
		n := st.opsWarm
		for _, run := range st.runners {
			n += run.Ops
		}
		return n
	})
	r.drain(loop)
	r.wallS = time.Since(t1).Seconds()
	r.rt = rtSince(mark)

	var notFound int64
	var fp fingerprinter
	fp.add("end", loop.Now(), r.events)
	r.ops = st.opsWarm
	for i, run := range st.runners {
		r.ops += run.Ops
		notFound += run.NotFound
		s := st.dbs[i].Stats()
		fp.add(fmt.Sprintf("db %d", i), run.Ops, run.NotFound, quantilesNs(run.ReadLat), quantilesNs(run.WriteLat))
		fp.add(fmt.Sprintf("db %d stats", i), s.Gets, s.Puts, s.Flushes, s.Compactions, s.BytesFlushed,
			s.BytesCompactedOut, s.StallNs, s.BlockReads, s.CacheHitRate, s.WALBytes)
	}
	for i, n := range st.nand {
		s := n.Stats()
		fp.add(fmt.Sprintf("ssd %d", i), s.ReadOps, s.WriteOps, s.GCMovedPages, s.Erases, s.WriteAmp)
		if err := n.FTLCheck(); err != nil {
			r.problemf("ssd %d FTL check: %v", i, err)
		}
	}
	r.fingerprint = fp.sum()

	r.ops -= st.cutOps
	r.attempted = r.ops
	r.failed = st.kvErrors + notFound
	if st.kvErrors > 0 {
		r.problemf("%d kvstore operations returned errors", st.kvErrors)
	}
	if notFound > 0 {
		r.problemf("%d reads missed loaded keys", notFound)
	}
	var submitted, completed, ioErrs int64
	for _, s := range st.sessions {
		submitted += s.Submitted
		completed += s.Completed
		ioErrs += s.Errors
	}
	if submitted != completed || ioErrs != 0 {
		r.problemf("sessions submitted %d IOs, completed %d, %d errors", submitted, completed, ioErrs)
	}
	if n := loop.Live(); n != 0 {
		r.problemf("%d live events after drain", n)
	}
	if traced {
		r.layers = kvLayers(st, d, r, layers0, gc0)
	}
	return r, nil
}

// kvLayers derives the per-layer values of one traced repetition over the
// simulation after the load phase.
func kvLayers(st *kvStack, d kvSize, r *simRep, before [numLayers]layerStat, gc0 uint64) map[string]float64 {
	var l [numLayers]layerStat
	var spanNs int64
	for i := range l {
		l[i].calls = st.spans.layers[i].calls - before[i].calls
		l[i].selfNs = st.spans.layers[i].selfNs - before[i].selfNs
		spanNs += l[i].selfNs
	}
	var gets, blockReads, lsmBytes, userBytes, compacted int64
	var hit, wa float64
	for i, db := range st.dbs {
		s, w := db.Stats(), st.dbWarm[i]
		gets += s.Gets - w.Gets
		blockReads += s.BlockReads - w.BlockReads
		lsmBytes += (s.WALBytes - w.WALBytes) + (s.BytesFlushed - w.BytesFlushed) + (s.BytesCompactedOut - w.BytesCompactedOut)
		userBytes += (s.Puts - w.Puts) * int64(d.valueLen)
		compacted += s.BytesCompactedOut - w.BytesCompactedOut
		hit += s.CacheHitRate
	}
	var gcMoved uint64
	for _, n := range st.nand {
		gcMoved += n.Stats().GCMovedPages
		wa += n.Stats().WriteAmp
	}
	gcMoved -= gc0
	ops := float64(r.ops)
	return map[string]float64{
		"fabric.submit_ns":            l[layerFabric].nsPerCall(),
		"core.enqueue_ns":             l[layerCore].nsPerCall(),
		"ssd.submit_ns":               l[layerSSD].nsPerCall(),
		"ssd.ios_per_op":              ratio(float64(l[layerSSD].calls), ops),
		"ssd.gc_moved_pages":          float64(gcMoved),
		"ssd.write_amp":               wa / float64(len(st.nand)),
		"blobstore.ios_per_op":        ratio(float64(l[layerFabric].calls), ops),
		"kvstore.cache_hit_ratio":     hit / float64(len(st.dbs)),
		"kvstore.block_reads_per_get": ratio(float64(blockReads), float64(gets)),
		"kvstore.write_amp":           ratio(float64(lsmBytes), float64(userBytes)),
		"kvstore.compacted_mb":        float64(compacted) / 1e6,
		"kvstore.residual_ns_per_op":  ratio(r.wallS*1e9-float64(spanNs), ops),
	}
}

// procHandoffNs times the public Proc park/wake round trip: a process
// sleeping one nanosecond at a time parks, and the loop event that wakes
// it hands control back.
func procHandoffNs(n int) float64 {
	loop := sim.NewLoop()
	loop.Spawn("probe", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	t0 := time.Now()
	loop.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}
