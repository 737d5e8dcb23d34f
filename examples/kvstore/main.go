// KVStore: the §4.3 case study end to end — four LSM-tree key-value store
// instances (the RocksDB stand-in) over a replicated blobstore spanning
// one Gimbal JBOF, running YCSB-A. This example reaches below the facade
// into the building blocks: targets and sessions (internal/fabric), the
// hierarchical blob allocator with two-way replication and credit-driven
// read balancing (internal/blobstore), and the LSM tree itself
// (internal/kvstore).
//
//	go run ./examples/kvstore
package main

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

const (
	instances = 4
	ssds      = 4
	records   = 60_000
	valueLen  = 1024
)

func main() {
	loop := sim.NewLoop()
	rng := sim.NewRNG(7)

	// One JBOF: four fragmented SSDs behind Gimbal switches.
	params := ssd.DCT983()
	params.UsableBytes = 2 << 30
	st := fabric.NewStack(ssds, func(int) sim.Scheduler { return loop }, params, ssd.Fragmented, nil, rng)
	capacities := make([]int64, 0, ssds)
	for _, d := range st.Devs {
		capacities = append(capacities, d.Capacity())
	}
	target := fabric.NewTarget(loop, st.Devs, fabric.DefaultTargetConfig(fabric.SchemeGimbal))

	// Rack-scale mega-blob allocator shared by all instances.
	bcfg := blobstore.DefaultConfig()
	global := blobstore.NewGlobal(bcfg, capacities)

	// Per-instance: sessions to every SSD, a blob FS with replication and
	// read balancing, the LSM DB, and a YCSB-A runner.
	var dbs []*kvstore.DB
	var runners []*kvstore.YCSBRunner
	for i := 0; i < instances; i++ {
		var backends []*blobstore.Backend
		for d := 0; d < ssds; d++ {
			tenant := nvme.NewTenant(i*ssds+d, fmt.Sprintf("db%d-ssd%d", i, d))
			sess := target.Connect(tenant, d)
			backends = append(backends, &blobstore.Backend{
				Target:   sess,
				Headroom: sess.Headroom,
				Capacity: params.UsableBytes,
			})
		}
		fs := blobstore.NewFS(bcfg, blobstore.NewLocal(global, backends))
		db := kvstore.Open(loop, fs, fmt.Sprintf("db%d", i), kvstore.DefaultOptions(), rng.Fork())
		dbs = append(dbs, db)
		r, err := kvstore.NewYCSBRunner(db, rng.Uint64(), "A", records, valueLen)
		if err != nil {
			panic(err)
		}
		runners = append(runners, r)
	}

	// Load, then run YCSB-A from 4 worker processes per instance.
	fmt.Printf("loading %d records x %d instances...\n", records, instances)
	loaded := make([]*sim.Gate, instances)
	for i := range dbs {
		i := i
		loaded[i] = &sim.Gate{}
		loop.Spawn(fmt.Sprintf("load%d", i), func(p *sim.Proc) {
			if err := kvstore.FastLoad(p, dbs[i], records, valueLen); err != nil {
				panic(err)
			}
			loaded[i].Fire(nil)
		})
	}
	var stop int64
	for i := range dbs {
		for w := 0; w < 4; w++ {
			i := i
			loop.Spawn(fmt.Sprintf("db%d-w%d", i, w), func(p *sim.Proc) {
				loaded[i].Wait(p)
				for stop == 0 || p.Now() < stop {
					if err := runners[i].RunOps(p, 8); err != nil {
						return
					}
					if stop > 0 && p.Now() >= stop {
						return
					}
				}
			})
		}
	}
	loop.Spawn("coordinator", func(p *sim.Proc) {
		for _, g := range loaded {
			g.Wait(p)
		}
		fmt.Printf("load finished at t=%.2fs; running YCSB-A for 2s...\n", float64(p.Now())/1e9)
		p.Sleep(500 * sim.Millisecond)
		for _, r := range runners {
			r.ResetStats()
		}
		p.Sleep(2 * sim.Second)
		stop = p.Now()
		for _, db := range dbs {
			db.Close()
		}
	})
	loop.Run()

	var ops int64
	readLat := stats.NewHistogram()
	for i, r := range runners {
		ops += r.Ops
		readLat.Merge(r.ReadLat)
		st := dbs[i].Stats()
		fmt.Printf("db%d: %d ops, %d flushes, %d compactions, cache hit %.0f%%, "+
			"stall %.0fms\n", i, r.Ops, st.Flushes, st.Compactions,
			st.CacheHitRate*100, float64(st.StallNs)/1e6)
	}
	fmt.Printf("\nYCSB-A aggregate: %.0f KIOPS, read avg %.0fus p99.9 %.0fus\n",
		float64(ops)/2/1e3, readLat.Mean()/1e3, float64(readLat.P999())/1e3)
	if v := target.Pipeline(0).Gimbal.View(); true {
		fmt.Printf("ssd0 virtual view: target %.0f MB/s, write cost %.1f\n",
			v.TargetRateBps/1e6, v.WriteCost)
	}
}
