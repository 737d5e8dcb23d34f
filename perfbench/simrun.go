package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"

	"gimbal/internal/sim"
)

// defaultSeed is the seed whose fingerprints are recorded below.
const defaultSeed = 1

// recordedFingerprints pins each simulated workload's output for the
// default seed at full size. A change that moves one changed what the
// simulation computes, not just how fast; it must be explained and the
// value re-recorded.
var recordedFingerprints = map[string]string{
	wlSimFio: "41219228b5c5eeec",
	wlSimKV:  "f9435345b477b982",
}

// simRep is one repetition of a simulated workload: build the stack
// (set-up), then simulate a fixed span of virtual time (measured).
type simRep struct {
	traced bool
	draw   int // which input draw of the run's seed it simulated (drawSeed)
	setupS float64
	wallS  float64 // wall time of the simulation after set-up
	ops    int64   // work completed: IOs (sim-fio) or YCSB ops (sim-kv)

	attempted, failed int64
	problems          []string

	events int64   // loop events fired after set-up
	opNs   []int64 // per tick: wall time over the ops it completed
	rt     rtDelta // Go runtime cost over the simulation

	fingerprint string
	layers      map[string]float64 // per-layer values (traced reps)
}

func (r *simRep) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// drive advances loop to horizon one tick of virtual time at a time,
// counting fired events and recording each tick's wall time per op
// completed in it (ops reads the workload's completion count). It fires
// the same events in the same order as loop.RunUntil(horizon).
func (r *simRep) drive(loop *sim.Loop, horizon, tick int64, ops func() int64) {
	for loop.Now() < horizon {
		next := loop.Now() + tick
		if next > horizon {
			next = horizon
		}
		n0, t0 := ops(), nanotime()
		for loop.NextEventTime() <= next {
			loop.Step()
			r.events++
		}
		loop.RunUntil(next)
		if n := ops() - n0; n > 0 {
			r.opNs = append(r.opNs, (nanotime()-t0)/n)
		}
	}
}

// drain fires events until no foreground event remains, as loop.Run does.
func (r *simRep) drain(loop *sim.Loop) {
	for loop.Live() > 0 && loop.Step() {
		r.events++
	}
}

// fingerprint hashes a canonical rendering of a run's outputs.
type fingerprinter struct{ b strings.Builder }

func (f *fingerprinter) add(key string, vals ...any) {
	f.b.WriteString(key)
	for _, v := range vals {
		f.b.WriteByte(' ')
		switch x := v.(type) {
		case float64:
			f.b.WriteString(strconv.FormatFloat(x, 'g', 12, 64))
		default:
			fmt.Fprint(&f.b, x)
		}
	}
	f.b.WriteByte('\n')
}

func (f *fingerprinter) sum() string {
	h := sha256.Sum256([]byte(f.b.String()))
	return hex.EncodeToString(h[:8])
}

// drawSeed derives the seed of a run's draw'th input set; draw 0 is the
// run's seed itself.
func drawSeed(seed uint64, draw int) uint64 {
	if draw == 0 {
		return seed
	}
	// splitmix64 of the pair, so neighbouring seeds' draws do not overlap.
	z := seed + uint64(draw)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// repeatSim runs repetitions until their simulations have taken o.seconds
// of wall time (at least two). A traced run alternates untraced and
// traced repetitions so both see the same machine state; the traced ones
// supply the per-layer spans, the untraced ones the baseline that
// trace.overhead_pct compares against.
func repeatSim(o options, rep func(i int, traced bool) (*simRep, error)) ([]*simRep, error) {
	var reps []*simRep
	var measured float64
	for i := 0; measured < o.seconds || len(reps) < 2; i++ {
		// Collect the previous repetition's stack first, so each one starts
		// from the same heap and the peak RSS is one stack's, not however
		// many the collector happened to let overlap.
		runtime.GC()
		r, err := rep(i, o.trace && i%2 == 1)
		if err != nil {
			return nil, err
		}
		measured += r.wallS
		reps = append(reps, r)
	}
	return reps, nil
}

// summarizeSim folds repetitions into the report, with the output checks.
// Repetitions of one draw compute the same result, so their timings differ
// only by the machine and the fast-side quartile summarizes them; across
// draws the work itself differs and the median does.
func summarizeSim(o options, size sizeClass, reps []*simRep, rep *report) {
	summary := fastQuartile
	first := map[int]*simRep{}
	for _, r := range reps {
		if first[r.draw] == nil {
			first[r.draw] = r
		}
	}
	if len(first) > 1 {
		summary = func(xs []float64, _ bool) float64 { return median(xs) }
	}
	var rates, setups, tickP50, tickP99 []float64
	var traced, plain []*simRep
	ticks := 0
	for i, r := range reps {
		rep.attempted += r.attempted
		rep.failed += r.failed
		for _, p := range r.problems {
			rep.problemf("rep %d: %s", i, p)
		}
		if f := first[r.draw]; r.fingerprint != f.fingerprint {
			rep.problemf("rep %d (traced=%v) fingerprint %s differs from %s of the same draw",
				i, r.traced, r.fingerprint, f.fingerprint)
			rep.failed += r.attempted - r.failed
		}
		setups = append(setups, r.setupS)
		if r.traced {
			traced = append(traced, r)
			continue
		}
		plain = append(plain, r)
		rates = append(rates, float64(r.ops)/r.wallS)
		tickP50 = append(tickP50, float64(percentileNs(r.opNs, 0.50))/1e3)
		tickP99 = append(tickP99, float64(sortedPercentile(r.opNs, 0.99))/1e3)
		ticks += len(r.opNs)
	}
	want := recordedFingerprints[o.workload]
	got := first[0].fingerprint
	if size == fullSize && o.seed == defaultSeed && want != got {
		rep.problemf("fingerprint %s for seed %d, recorded %s", got, o.seed, want)
		rep.failed = rep.attempted
	}
	rep.info["fingerprint"] = got
	rep.info["reps"] = len(reps)
	rep.info["rep_rates"] = rates
	rep.info["tick_samples"] = ticks

	opsRate := summary(rates, true)
	rep.values["ops_per_s"] = opsRate
	rep.values["setup_s"] = summary(setups, false)
	rep.values["lat_p50_us"] = summary(tickP50, false)
	rep.values["lat_p99_us"] = summary(tickP99, false)
	rep.values["peak_rss_mb"] = peakRSSMB()

	// Per-layer: loop and runtime figures come from the untraced reps (the
	// program's own cost), span figures from the traced ones.
	var events, ops int64
	var wall float64
	var rt rtDelta
	for _, r := range plain {
		events += r.events
		ops += r.ops
		wall += r.wallS
		rt.add(r.rt)
	}
	rep.values["sim.events"] = float64(events) / float64(len(plain))
	rep.values["sim.events_per_op"] = ratio(float64(events), float64(ops))
	rep.values["sim.ns_per_event"] = ratio(wall*1e9, float64(events))
	rep.values["go.alloc_b_per_op"] = ratio(float64(rt.allocBytes), float64(ops))
	rep.values["go.gc_cpu_frac"] = ratio(rt.gcCPU, rt.totalCPU)
	if len(traced) > 0 {
		var tracedRates []float64
		for _, r := range traced {
			tracedRates = append(tracedRates, float64(r.ops)/r.wallS)
		}
		rep.values["trace.overhead_pct"] = (opsRate/summary(tracedRates, true) - 1) * 100
		for name := range traced[0].layers {
			var xs []float64
			for _, r := range traced {
				xs = append(xs, r.layers[name])
			}
			rep.values[name] = median(xs)
		}
	}
}

// rtDelta is Go runtime cost accumulated over a measured interval.
type rtDelta struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func (d *rtDelta) add(o rtDelta) {
	d.allocBytes += o.allocBytes
	d.gcCPU += o.gcCPU
	d.totalCPU += o.totalCPU
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// rtMark reads the runtime counters rtSince subtracts from.
func rtMark() rtDelta {
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	return rtDelta{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

func rtSince(m rtDelta) rtDelta {
	n := rtMark()
	return rtDelta{
		allocBytes: n.allocBytes - m.allocBytes,
		gcCPU:      n.gcCPU - m.gcCPU,
		totalCPU:   n.totalCPU - m.totalCPU,
	}
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}
