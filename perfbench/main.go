// Command perfbench is the repository's benchmark: three workloads that
// each build a Gimbal stack from the program's packages, drive it for a
// fixed wall-clock time, check its outputs, and print one JSON result line.
//
//	perfbench --workload sim-fio --seed 1 --seconds 16 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 wraps the layer
// boundaries with timing shims and prints the per-layer metrics instead.
// See README.md for the workloads, the metrics and how to compare commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// Workload names.
const (
	wlSimFio  = "sim-fio"
	wlSimKV   = "sim-kv"
	wlLiveTCP = "live-tcp"
)

// options are one run's command-line inputs.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// report is what a workload run hands back: work attempted and failed,
// the failed output checks, and the metric values by name (a per-layer
// metric the workload does not measure is absent and prints as 0).
type report struct {
	attempted int64
	failed    int64
	problems  []string
	values    map[string]float64
	// info is printed on the stamp line: sample counts, fingerprints and
	// other context that is not a metric.
	info map[string]any
}

func newReport() *report {
	return &report{values: map[string]float64{}, info: map[string]any{}}
}

func (r *report) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(allWorkloads, ", "))
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 16, "measured wall-clock seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	o.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	run, ok := workloads[o.workload]
	if !ok {
		fatalf("unknown --workload %q (want one of %s)", o.workload, strings.Join(allWorkloads, ", "))
	}
	rep, err := run(o, fullSize)
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	line, err := finish(o, rep)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(line)
}

// workloads maps each name to its runner. size selects the full-size
// configuration or the shrunk one the tests use.
var workloads = map[string]func(options, sizeClass) (*report, error){
	wlSimFio:  runSimFio,
	wlSimKV:   runSimKV,
	wlLiveTCP: runLiveTCP,
}

// sizeClass picks a workload's dimensions.
type sizeClass int

const (
	fullSize sizeClass = iota
	smokeSize
)

// finish prints the machine stamp and problems, and renders the result
// line: every end-to-end metric untraced, every per-layer metric traced.
func finish(o options, rep *report) (string, error) {
	stamp := machineStamp(o)
	for k, v := range rep.info {
		stamp[k] = v
	}
	b, err := json.Marshal(stamp)
	if err != nil {
		return "", err
	}
	fmt.Println(string(b))
	sort.Strings(rep.problems)
	for _, p := range rep.problems {
		fmt.Println("check failed:", p)
	}
	defs := endToEnd
	if o.trace {
		rep.values["err_frac"] = ratio(float64(rep.failed), float64(rep.attempted))
		defs = perLayer
	}
	out := resultLine{
		Correct:   len(rep.problems) == 0 && rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok && (!o.trace || d.measuredOn(o.workload)) {
			return "", fmt.Errorf("%s did not measure %s", o.workload, d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if out.Attempted < 1 {
		out.Attempted = 1 // the contract's minimum; Correct is already false
		out.Failed = 1
	}
	b, err = json.Marshal(out)
	return string(b), err
}

// machineStamp names the machine and run a result came from.
func machineStamp(o options) map[string]any {
	rev := os.Getenv("PERFBENCH_REV")
	if rev == "" {
		rev = "unknown"
	}
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"revision":   rev,
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
