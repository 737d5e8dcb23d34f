package bench

import (
	"fmt"

	"gimbal/internal/blobstore"
	"gimbal/internal/fabric"
	"gimbal/internal/kvstore"
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/stats"
)

func init() {
	register("fig10", "YCSB over 24 DB instances on 3 JBOFs, per scheme", runFig10)
	register("fig11", "YCSB throughput scaling with instance count (Gimbal)", runFig11)
	register("fig12", "YCSB avg read latency scaling with instance count (Gimbal)", runFig12)
	register("fig13", "Virtual-view optimizations: vanilla vs +FC vs +FC+LB", runFig13)
}

// ycsbConfig parameterizes one key-value store experiment.
type ycsbConfig struct {
	Scheme    fabric.Scheme
	Instances int
	JBOFs     int
	SSDsPer   int
	Records   int
	ValueLen  int
	Procs     int // worker processes per instance
	Warm, Dur int64
	// Fig 13 knobs: disable client flow control / read balancing.
	NoFlowControl bool
	NoBalance     bool
}

func defaultYCSB(scheme fabric.Scheme, workload string) ycsbConfig {
	_ = workload
	return ycsbConfig{
		Scheme:    scheme,
		Instances: 24,
		JBOFs:     3,
		SSDsPer:   4,
		Records:   120_000,
		ValueLen:  1024,
		Procs:     4,
		Warm:      500 * sim.Millisecond,
		Dur:       1500 * sim.Millisecond,
	}
}

// ycsbResult is the aggregate of one run.
type ycsbResult struct {
	KIOPS    float64
	ReadLat  *stats.Histogram
	WriteLat *stats.Histogram
	Stalls   int64
}

// cachedYCSB memoizes runs shared between result tables (fig11 and fig12
// report two views of the same scaling sweep).
func (cx *Ctx) cachedYCSB(cfg ycsbConfig, workloadName string, seed uint64) ycsbResult {
	key := fmt.Sprintf("%v|%d|%d|%v|%v|%s|%d", cfg.Scheme, cfg.Instances, cfg.JBOFs,
		cfg.NoFlowControl, cfg.NoBalance, workloadName, seed)
	if r, ok := cx.ycsbCache[key]; ok {
		return r
	}
	r := runYCSB(cfg, workloadName, seed)
	cx.ycsbCache[key] = r
	return r
}

// runYCSB builds the full rack — JBOFs of fragmented SSDs behind the
// scheme's targets, one blobstore+DB per instance with sessions to every
// SSD — loads it, and runs the measured window.
func runYCSB(cfg ycsbConfig, workloadName string, seed uint64) ycsbResult {
	loop := sim.NewLoop()
	rng := sim.NewRNG(seed)

	params := ssd.DCT983()
	params.UsableBytes = 4 << 30

	nDev := cfg.JBOFs * cfg.SSDsPer
	var targets []*fabric.Target
	capacities := make([]int64, 0, nDev)
	for j := 0; j < cfg.JBOFs; j++ {
		st := fabric.NewStack(cfg.SSDsPer, func(int) sim.Scheduler { return loop }, params, ssd.Fragmented, nil, rng)
		for _, d := range st.Devs {
			capacities = append(capacities, d.Capacity())
		}
		targets = append(targets, fabric.NewTarget(loop, st.Devs, fabric.DefaultTargetConfig(cfg.Scheme)))
	}

	bcfg := blobstore.DefaultConfig()
	global := blobstore.NewGlobal(bcfg, capacities)

	opt := kvstore.DefaultOptions()
	dbs := make([]*kvstore.DB, cfg.Instances)
	runners := make([]*kvstore.YCSBRunner, cfg.Instances)
	loaded := make([]*sim.Gate, cfg.Instances)
	for i := 0; i < cfg.Instances; i++ {
		var backends []*blobstore.Backend
		for d := 0; d < nDev; d++ {
			tgt := targets[d/cfg.SSDsPer]
			tenant := nvme.NewTenant(i*nDev+d, fmt.Sprintf("db%d-ssd%d", i, d))
			var sess *fabric.Session
			if cfg.NoFlowControl {
				sess = tgt.ConnectWithGater(tenant, d%cfg.SSDsPer, fabric.NopGater())
			} else {
				sess = tgt.Connect(tenant, d%cfg.SSDsPer)
			}
			backends = append(backends, &blobstore.Backend{
				Target:   sess,
				Headroom: sess.Headroom,
				Capacity: params.UsableBytes,
			})
		}
		fs := blobstore.NewFS(bcfg, blobstore.NewLocal(global, backends))
		fs.Balance = !cfg.NoBalance
		dbs[i] = kvstore.Open(loop, fs, fmt.Sprintf("db%d", i), opt, rng.Fork())
		r, err := kvstore.NewYCSBRunner(dbs[i], rng.Uint64(), workloadName, cfg.Records, cfg.ValueLen)
		if err != nil {
			panic(err)
		}
		runners[i] = r
		loaded[i] = &sim.Gate{}
		i := i
		loop.Spawn(fmt.Sprintf("load%d", i), func(p *sim.Proc) {
			if err := kvstore.FastLoad(p, dbs[i], cfg.Records, cfg.ValueLen); err != nil {
				panic(err)
			}
			loaded[i].Fire(nil)
		})
	}

	// Worker processes start once their instance has loaded and run until
	// the coordinator marks the stop time (checked at batch boundaries, so
	// the overshoot is at most one small batch per process).
	stop := int64(0) // set after load + warm + dur
	readAgg := stats.NewHistogram()
	writeAgg := stats.NewHistogram()
	for i := 0; i < cfg.Instances; i++ {
		for w := 0; w < cfg.Procs; w++ {
			i := i
			loop.Spawn(fmt.Sprintf("db%d-w%d", i, w), func(p *sim.Proc) {
				loaded[i].Wait(p)
				for stop == 0 || p.Now() < stop {
					if err := runners[i].RunOps(p, 16); err != nil {
						return
					}
				}
			})
		}
	}

	// Once every instance has loaded, run warmup, reset counters, and
	// measure for Dur.
	var measuredNs int64
	loop.Spawn("coordinator", func(p *sim.Proc) {
		for _, g := range loaded {
			g.Wait(p)
		}
		p.Sleep(cfg.Warm)
		for _, r := range runners {
			r.ResetStats()
		}
		start := p.Now()
		p.Sleep(cfg.Dur)
		stop = p.Now()
		measuredNs = stop - start
		for _, db := range dbs {
			db.Close()
		}
	})
	loop.Run()

	var ops, stalls int64
	for i, r := range runners {
		ops += r.Ops
		readAgg.Merge(r.ReadLat)
		writeAgg.Merge(r.WriteLat)
		stalls += dbs[i].Stats().StallNs
	}
	if measuredNs <= 0 {
		measuredNs = cfg.Dur
	}
	return ycsbResult{
		KIOPS:    float64(ops) / (float64(measuredNs) / 1e9) / 1e3,
		ReadLat:  readAgg,
		WriteLat: writeAgg,
		Stalls:   stalls,
	}
}

func runFig10(cx *Ctx) []*Result {
	thr := &Result{ID: "fig10", Title: "YCSB: throughput, avg and p99.9 read latency (24 instances)",
		Header: []string{"workload", "scheme", "KIOPS", "rd_avg_us", "rd_p999_us"}}
	for _, wl := range kvstore.YCSBWorkloads {
		for _, scheme := range fabric.AllSchemes {
			r := cx.cachedYCSB(defaultYCSB(scheme, wl), wl, 11)
			thr.AddRow(wl, scheme.String(), f0(r.KIOPS), f0(r.ReadLat.Mean()/1e3), us(r.ReadLat.P999()))
		}
	}
	thr.Notef("paper shape: Gimbal x1.7/x2.1/x1.3 throughput over ReFlex/Parda/FlashFQ, " +
		"-35%%/-55%%/-20%% avg latency; update-heavy A and F gain most, read-only C least")
	return []*Result{thr}
}

func scaleCounts() []int { return []int{4, 8, 12, 16, 20, 24} }

func runFig11(cx *Ctx) []*Result {
	res := &Result{ID: "fig11", Title: "YCSB throughput (KIOPS) vs DB instances (Gimbal)",
		Header: append([]string{"instances"}, kvstore.YCSBWorkloads...)}
	for _, n := range scaleCounts() {
		row := []string{fmt.Sprint(n)}
		for _, wl := range kvstore.YCSBWorkloads {
			cfg := defaultYCSB(fabric.SchemeGimbal, wl)
			cfg.Instances = n
			r := cx.cachedYCSB(cfg, wl, 13)
			row = append(row, f0(r.KIOPS))
		}
		res.AddRow(row...)
	}
	res.Notef("paper shape: A/B/D saturate near 20 instances, F near 16; C keeps scaling")
	return []*Result{res}
}

func runFig12(cx *Ctx) []*Result {
	res := &Result{ID: "fig12", Title: "YCSB avg read latency (us) vs DB instances (Gimbal)",
		Header: append([]string{"instances"}, kvstore.YCSBWorkloads...)}
	for _, n := range scaleCounts() {
		row := []string{fmt.Sprint(n)}
		for _, wl := range kvstore.YCSBWorkloads {
			cfg := defaultYCSB(fabric.SchemeGimbal, wl)
			cfg.Instances = n
			r := cx.cachedYCSB(cfg, wl, 13)
			row = append(row, f0(r.ReadLat.Mean()/1e3))
		}
		res.AddRow(row...)
	}
	res.Notef("paper shape: read latency grows with consolidation except read-only C")
	return []*Result{res}
}

func runFig13(cx *Ctx) []*Result {
	res := &Result{ID: "fig13", Title: "p99.9 read latency (us): vanilla vs +FC vs +FC+LB (8 instances, 1 JBOF)",
		Header: append([]string{"config"}, kvstore.YCSBWorkloads...)}
	configs := []struct {
		name      string
		noFC      bool
		noBalance bool
	}{
		{"vanilla", true, true},
		{"+FC", false, true},
		{"+FC+LB", false, false},
	}
	for _, c := range configs {
		row := []string{c.name}
		for _, wl := range kvstore.YCSBWorkloads {
			cfg := defaultYCSB(fabric.SchemeGimbal, wl)
			cfg.Instances = 8
			cfg.JBOFs = 1
			cfg.NoFlowControl = c.noFC
			cfg.NoBalance = c.noBalance
			r := cx.cachedYCSB(cfg, wl, 17)
			row = append(row, us(r.ReadLat.P999()))
		}
		res.AddRow(row...)
	}
	res.Notef("paper shape: the credit rate limiter cuts p99.9 by ~28%%, the read load " +
		"balancer a further ~19%%")
	return []*Result{res}
}
