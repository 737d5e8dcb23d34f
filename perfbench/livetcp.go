package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"gimbal/internal/core"
	"gimbal/internal/fabric"
	"gimbal/internal/fault"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

// liveSize dimensions live-tcp.
type liveSize struct {
	ssds     int
	capacity int64
	conns    int
	qd       int
	ioSize   int
	reads    float64
	warm     time.Duration
	window   time.Duration // IOPS sampling window
	setups   int           // set-ups timed per run (the last one serves)
}

func liveDims(size sizeClass) liveSize {
	d := liveSize{ssds: 2, capacity: 256 << 20, conns: 2, qd: 32, ioSize: 4096, reads: 0.7,
		warm: 2 * time.Second, window: 100 * time.Millisecond, setups: 9}
	if size == smokeSize {
		d.warm, d.setups = 200*time.Millisecond, 2
	}
	return d
}

// liveTarget is an in-process target wired as gimbald wires it by
// default: scheme gimbal with recovery, sampled span tracing, per-reactor
// registry shards, reactors = min(GOMAXPROCS, ssds), each SSD behind a
// fault wrapper.
type liveTarget struct {
	shards *sim.RealShards
	srv    *fabric.TCPReactors
	hub    *obs.Hub
	nand   []*ssd.SSD
	spans  []*spans // per shard, traced only
}

func startLive(seed uint64, d liveSize, traced bool) (*liveTarget, error) {
	R := runtime.GOMAXPROCS(0)
	if R > d.ssds {
		R = d.ssds
	}
	lt := &liveTarget{shards: sim.NewRealShards(R)}
	if traced {
		for j := 0; j < R; j++ {
			lt.spans = append(lt.spans, &spans{})
		}
	}
	rng := sim.NewRNG(seed)
	var devs []ssd.Device
	for i := 0; i < d.ssds; i++ {
		shard := lt.shards.Shard(i % R)
		p := ssd.DCT983()
		p.UsableBytes = d.capacity
		var devClk sim.Scheduler = shard
		if traced {
			devClk = &clockShim{Scheduler: shard, s: lt.spans[i%R]}
		}
		n := ssd.New(devClk, p)
		n.Precondition(ssd.Clean, rng.Fork())
		lt.nand = append(lt.nand, n)
		var dev ssd.Device = n
		if traced {
			dev = &devShim{inner: n, id: layerSSD, s: lt.spans[i%R], clk: shard}
		}
		devs = append(devs, fault.Wrap(shard, dev))
	}
	target := fabric.NewReactorTarget(lt.shards, devs, fabric.DefaultTargetConfig(fabric.SchemeGimbal))
	for i := 0; i < d.ssds; i++ {
		p := target.Pipeline(i)
		p.Gimbal.EnableRecovery(core.DefaultRecoveryConfig())
		if traced {
			p.Sched = &schedShim{Scheduler: p.Sched, s: lt.spans[i%R]}
		}
	}
	shardRegs := make([]*obs.Registry, R)
	for j := range shardRegs {
		shardRegs[j] = obs.NewRegistry()
		shardRegs[j].GatherLock = lt.shards.Shard(j)
	}
	lt.hub = obs.NewHub(obs.NewRegistry())
	lt.hub.Tracer = obs.NewTracer(obs.TracerConfig{
		Capacity:    8192,
		Mode:        obs.TraceSampled,
		SlowNs:      int64(time.Millisecond),
		SampleEvery: 64,
	})
	lt.hub.Events = obs.NewEventLog(1024)
	pregs := make([]*obs.Registry, d.ssds)
	for i := range pregs {
		pregs[i] = shardRegs[i%R]
	}
	lt.shards.Lock()
	target.AttachObsSharded(lt.hub, pregs)
	lt.shards.Unlock()
	srv, err := fabric.ServeTCPReactors(lt.shards, target, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv.AttachObs(lt.hub, shardRegs)
	lt.srv = srv
	return lt, nil
}

// livePhase is one measured window against one target.
type livePhase struct {
	ios       int64     // good completions in the window
	windows   []float64 // IOPS per sampling window
	latNs     []int64   // reservoir samples of every connection
	latSeen   int64     // completions the samples stand for
	winP50    []float64 // median latency per window and connection
	credits   [maxCredit + 1]int64
	submitted int64
	failures  int64
	violation int64
	responses int64
	reads     int64 // client read syscalls
	writes    int64 // client write syscalls
	bad       []string
	rt        rtDelta

	clientCPU float64 // share of process CPU samples on client goroutines
	rx, tx    int64
	spans     spans
	captured  uint64
	writeAmp  float64
}

func runLiveTCP(o options, size sizeClass) (*report, error) {
	d := liveDims(size)
	rep := newReport()
	var setups []float64
	var lt *liveTarget
	for i := 0; i < d.setups; i++ {
		t0 := time.Now()
		var err error
		if lt, err = startLive(o.seed, d, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < d.setups-1 {
			lt.srv.Close()
		}
	}
	rep.values["setup_s"] = fastQuartile(setups, false)

	secs := o.seconds
	if o.trace {
		secs /= 2 // half untraced (the baseline), half traced
	}
	base, err := measureLive(o.seed, d, lt, secs)
	lt.srv.Close()
	if err != nil {
		return nil, err
	}
	phases := []*livePhase{base}
	var traced *livePhase
	if o.trace {
		tl, err := startLive(o.seed, d, true)
		if err != nil {
			return nil, err
		}
		traced, err = measureLive(o.seed, d, tl, secs)
		tl.srv.Close()
		if err != nil {
			return nil, err
		}
		phases = append(phases, traced)
	}
	for _, ph := range phases {
		rep.attempted += ph.submitted
		rep.failed += ph.failures
		for _, b := range ph.bad {
			rep.problemf("%s", b)
		}
		if ph.violation > 0 {
			rep.problemf("client submitted %d IOs past its credit", ph.violation)
		}
		if ph.submitted != ph.responses {
			rep.problemf("client submitted %d IOs, got %d responses", ph.submitted, ph.responses)
			rep.failed += ph.submitted - ph.responses
		}
	}

	rep.info["lat_samples"] = len(base.latNs)
	rep.info["lat_completions"] = base.latSeen
	rep.info["window_iops"] = base.windows
	rep.values["ops_per_s"] = median(base.windows)
	rep.values["lat_p50_us"] = median(base.winP50) / 1e3
	rep.values["lat_p99_us"] = float64(sortedPercentile(base.latNs, 0.99)) / 1e3
	rep.values["peak_rss_mb"] = peakRSSMB()
	if traced != nil {
		liveLayers(rep, base, traced, d)
	}
	return rep, nil
}

// liveLayers fills the per-layer values: runtime cost and the dip and
// credit figures from the untraced phase, spans from the traced one.
func liveLayers(rep *report, base, tr *livePhase, d liveSize) {
	v := rep.values
	ios := float64(tr.ios)
	sp := &tr.spans
	v["trace.overhead_pct"] = (median(base.windows)/median(tr.windows) - 1) * 100
	v["go.alloc_b_per_op"] = ratio(float64(base.rt.allocBytes), float64(base.ios))
	v["go.gc_cpu_frac"] = ratio(base.rt.gcCPU, base.rt.totalCPU)
	med := median(base.windows)
	var dips int
	for _, w := range base.windows {
		if w < med/2 {
			dips++
		}
	}
	v["core.dip_s"] = float64(dips) * d.window.Seconds()
	v["core.credit_p50"], v["core.credit_min"] = creditStats(&base.credits)

	v["core.enqueue_ns"] = sp.layers[layerCore].nsPerCall()
	v["ssd.submit_ns"] = sp.layers[layerSSD].nsPerCall()
	v["ssd.ios_per_op"] = ratio(float64(sp.layers[layerSSD].calls), ios)
	v["ssd.write_amp"] = tr.writeAmp
	v["core.queue_wait_us_p50"] = float64(percentileNs(sp.queueWaitNs, 0.5)) / 1e3
	v["core.queue_wait_us_p99"] = float64(sortedPercentile(sp.queueWaitNs, 0.99)) / 1e3
	v["ssd.service_us_p50"] = float64(percentileNs(sp.serviceNs, 0.5)) / 1e3
	v["ssd.service_us_p99"] = float64(sortedPercentile(sp.serviceNs, 0.99)) / 1e3
	v["sim.timer_late_us_p50"] = float64(percentileNs(sp.timerLateNs, 0.5)) / 1e3
	v["sim.timer_late_us_p99"] = float64(sortedPercentile(sp.timerLateNs, 0.99)) / 1e3
	v["sim.timers_per_io"] = ratio(float64(sp.timers), ios)
	v["fabric.rx_frames"] = float64(tr.rx)
	v["fabric.tx_frames"] = float64(tr.tx)
	v["client.rsp_per_read"] = ratio(float64(tr.responses), float64(tr.reads))
	v["client.syscalls_per_io"] = ratio(float64(tr.reads+tr.writes), float64(tr.responses))
	v["client.cpu_share"] = tr.clientCPU
	v["obs.spans_captured_per_kio"] = ratio(float64(tr.captured), ios/1000)
	rep.info["timer_samples"] = len(sp.timerLateNs)
	rep.info["service_samples"] = len(sp.serviceNs)
}

// measureLive drives lt with the benchmark's initiators: a warm-up, then
// secs of measured wall time sampled per window, then a drain.
func measureLive(seed uint64, d liveSize, lt *liveTarget, secs float64) (*livePhase, error) {
	traced := lt.spans != nil
	var stop atomic.Bool
	var measure atomic.Int64
	ins := make([]*initiator, d.conns)
	errs := make([]error, d.conns)
	for i := range ins {
		conn, err := net.Dial("tcp", lt.srv.Addr())
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		ins[i] = newInitiator(conn, &measure, d.window, uint8(i%d.ssds), d.qd, d.ioSize, d.capacity, d.reads,
			seed*1000003+uint64(i))
	}
	var wg sync.WaitGroup
	for i, in := range ins {
		wg.Add(1)
		go pprof.Do(context.Background(), pprof.Labels("perfbench", "client"), func(context.Context) {
			defer wg.Done()
			errs[i] = in.run(&stop)
			if errs[i] != nil {
				stop.Store(true)
			}
		})
	}
	completed := func() int64 {
		var n int64
		for _, in := range ins {
			n += in.completed.Load()
		}
		return n
	}

	ph := &livePhase{}
	time.Sleep(d.warm)
	var prof bytes.Buffer
	profiling := traced && pprof.StartCPUProfile(&prof) == nil
	if traced {
		lt.shards.Lock()
		for _, s := range lt.spans {
			*s = spans{}
		}
		lt.shards.Unlock()
	}
	rx0, tx0 := frames(lt.srv)
	cap0 := lt.hub.Tracer.Captured()
	mark := rtMark()
	measure.Store(nanotime())
	t0 := time.Now()
	c0 := completed()
	last, lastT := c0, t0
	for deadline := t0.Add(time.Duration(secs * float64(time.Second))); time.Now().Before(deadline) && !stop.Load(); {
		time.Sleep(d.window)
		c, now := completed(), time.Now()
		ph.windows = append(ph.windows, float64(c-last)/now.Sub(lastT).Seconds())
		last, lastT = c, now
	}
	ph.ios = last - c0
	measure.Store(0)
	ph.rt = rtSince(mark)
	ph.captured = lt.hub.Tracer.Captured() - cap0
	rx1, tx1 := frames(lt.srv)
	ph.rx, ph.tx = rx1-rx0, tx1-tx0
	if traced {
		lt.shards.Lock()
		for _, s := range lt.spans {
			ph.spans.merge(s)
		}
		lt.shards.Unlock()
	}
	if profiling {
		pprof.StopCPUProfile()
	}
	stop.Store(true)
	wg.Wait()
	if profiling {
		share, err := labelShare(prof.Bytes(), "perfbench", "client")
		if err != nil {
			return nil, fmt.Errorf("client CPU profile: %w", err)
		}
		ph.clientCPU = share
	}
	lt.shards.Lock()
	for _, n := range lt.nand {
		ph.writeAmp += n.Stats().WriteAmp / float64(len(lt.nand))
	}
	lt.shards.Unlock()
	for i, in := range ins {
		if errs[i] != nil {
			return nil, fmt.Errorf("connection %d: %w", i, errs[i])
		}
		ph.latNs = append(ph.latNs, in.lat.samples...)
		for _, p := range in.winP50 {
			ph.winP50 = append(ph.winP50, float64(p))
		}
		ph.latSeen += in.lat.seen
		for c, n := range in.credits {
			ph.credits[c] += n
		}
		ph.submitted += in.submitted
		ph.failures += in.failures
		ph.violation += in.violation
		ph.responses += in.responses
		ph.reads += in.conn.reads
		ph.writes += in.writes
		ph.bad = append(ph.bad, in.bad...)
	}
	return ph, nil
}

// creditStats returns the median and minimum granted credit over the
// measured responses.
func creditStats(counts *[maxCredit + 1]int64) (p50, lo float64) {
	var total int64
	for _, n := range counts {
		total += n
	}
	lo = -1
	var run int64
	p50 = -1
	for c, n := range counts {
		if n == 0 {
			continue
		}
		if lo < 0 {
			lo = float64(c)
		}
		run += n
		if p50 < 0 && 2*run >= total {
			p50 = float64(c)
		}
	}
	return max(p50, 0), max(lo, 0)
}

func frames(srv *fabric.TCPReactors) (rx, tx int64) {
	for _, st := range srv.ReactorStats() {
		rx += st.RxCapsules
		tx += st.TxCapsules
	}
	return rx, tx
}
