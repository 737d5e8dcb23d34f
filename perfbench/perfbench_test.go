package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gimbal/internal/fabric"
	"gimbal/internal/nvme"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestSummaryMath(t *testing.T) {
	xs := []float64{7, 1, 3, 9, 5, 11, 2, 8, 4, 6}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v, want 2", m)
	}
	if xs[0] != 7 {
		t.Error("median reordered its input")
	}
	// numpy.quantile([1, 2, 3, 4], [0.25, 0.75]) == [1.75, 3.25]
	four := []float64{4, 1, 3, 2}
	if lo, hi := fastQuartile(four, false), fastQuartile(four, true); !near(lo, 1.75) || !near(hi, 3.25) {
		t.Errorf("fastQuartile = %v %v, want 1.75 3.25", lo, hi)
	}
	if v := fastQuartile([]float64{1, 2}, true); v > 2 {
		t.Errorf("fastQuartile extrapolated to %v", v)
	}
	ns := []int64{50, 10, 40, 20, 30, 60, 70, 80, 90, 100}
	if p := percentileNs(ns, 0.5); p != 50 {
		t.Errorf("p50 = %d, want 50", p)
	}
	if p := sortedPercentile(ns, 0.99); p != 100 {
		t.Errorf("p99 = %d, want 100", p)
	}
	if p := sortedPercentile(ns, 0.91); p != 100 {
		t.Errorf("p91 = %d, want 100 (nearest rank)", p)
	}
	if p := percentileNs(nil, 0.5); p != 0 {
		t.Errorf("empty percentile = %d", p)
	}
	if r := ratio(1, 0); r != 0 {
		t.Errorf("ratio by zero = %v", r)
	}
	if p50, lo := creditStats(&[maxCredit + 1]int64{3: 1, 8: 5, 16: 2}); p50 != 8 || lo != 3 {
		t.Errorf("creditStats = %v %v, want 8 3", p50, lo)
	}
}

func TestFingerprintSensitive(t *testing.T) {
	sum := func(v int64) string {
		var f fingerprinter
		f.add("worker 0", int64(100), "1/2/3/4", 1.5)
		f.add("ssd 0", v)
		return f.sum()
	}
	if sum(7) != sum(7) {
		t.Fatal("fingerprint is not deterministic")
	}
	if sum(7) == sum(8) {
		t.Fatal("fingerprint ignores a changed value")
	}
}

func TestPerturbedFingerprintRejected(t *testing.T) {
	mk := func(fp string, traced bool) *simRep {
		return &simRep{traced: traced, wallS: 1, ops: 100, attempted: 100, fingerprint: fp, opNs: []int64{10}}
	}
	o := options{workload: wlSimFio, seed: 7}
	rep := newReport()
	summarizeSim(o, fullSize, []*simRep{mk("aa", false), mk("aa", true), mk("aa", false)}, rep)
	if len(rep.problems) != 0 || rep.failed != 0 {
		t.Fatalf("identical fingerprints flagged: %v", rep.problems)
	}
	rep = newReport()
	summarizeSim(o, fullSize, []*simRep{mk("aa", false), mk("ab", true), mk("aa", false)}, rep)
	if len(rep.problems) == 0 || rep.failed == 0 {
		t.Fatal("a traced repetition with a different fingerprint was accepted")
	}
	// The default seed at full size must match the recorded fingerprint.
	o.seed = defaultSeed
	rep = newReport()
	summarizeSim(o, fullSize, []*simRep{mk("00", false), mk("00", false)}, rep)
	if len(rep.problems) == 0 || rep.failed != rep.attempted {
		t.Fatal("a fingerprint that differs from the recorded one was accepted")
	}
}

// creditStub is a target that answers every command with a credit from a
// schedule and checks, from the wire alone, that the initiator never had
// more commands outstanding than the latest credit it could have seen.
type creditStub struct {
	schedule []uint32
	qd       int

	mu         sync.Mutex
	violations int
}

func (s *creditStub) serve(conn net.Conn) {
	rd := bufio.NewReader(conn)
	var cmd fabric.CommandCapsule
	// credits[r] is the grant the initiator holds after r responses.
	credits := []uint32{uint32(s.qd)}
	received := 0
	var pending []fabric.CommandCapsule
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(rd, hdr[:]); err != nil {
			return
		}
		buf := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(rd, buf); err != nil {
			return
		}
		if _, err := fabric.DecodeCommandInto(&cmd, buf); err != nil {
			return
		}
		received++
		// Command number `received` was sent after the initiator had read
		// some r ≤ len(credits)-1 responses with received-1-r in flight;
		// it is legal iff that stayed below credits[r] for some such r.
		ok := false
		for r := range credits {
			if received-1-r < int(credits[r]) {
				ok = true
				break
			}
		}
		s.mu.Lock()
		if !ok {
			s.violations++
		}
		s.mu.Unlock()
		pending = append(pending, cmd)
		// Answer in bursts once the initiator's window is likely full, so
		// the grants change while commands are outstanding.
		if rd.Buffered() > 0 {
			continue
		}
		var out []byte
		for _, c := range pending {
			credit := s.schedule[len(credits)%len(s.schedule)]
			last := credits[len(credits)-1]
			if credit != 0 {
				last = credit
			}
			credits = append(credits, last)
			var data []byte
			if c.Opcode == nvme.OpRead {
				data = make([]byte, c.Length)
			}
			rsp := fabric.AppendResponse(nil, &fabric.ResponseCapsule{CID: c.CID, Credit: credit, Data: data})
			out = binary.BigEndian.AppendUint32(out, uint32(len(rsp)))
			out = append(out, rsp...)
		}
		pending = pending[:0]
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

func TestInitiatorHonoursCredit(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stub := &creditStub{schedule: []uint32{4, 0, 1, 2, 9, 3, 0, 32, 1, 6}, qd: 16}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		stub.serve(conn)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var measure atomic.Int64
	measure.Store(nanotime())
	in := newInitiator(conn, &measure, 10*time.Millisecond, 0, stub.qd, 4096, 1<<20, 0.5, 3)
	runErr := make(chan error, 1)
	go func() { runErr <- in.run(&stop) }()
	deadline := time.Now().Add(10 * time.Second)
	for in.completed.Load() < 20000 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	if err := <-runErr; err != nil {
		t.Fatalf("initiator: %v", err)
	}
	conn.Close()
	<-done
	if n := in.completed.Load(); n < 20000 {
		t.Fatalf("only %d IOs completed", n)
	}
	if len(in.winP50) == 0 || len(in.lat.samples) == 0 {
		t.Fatalf("no latency recorded: %d windows, %d samples", len(in.winP50), len(in.lat.samples))
	}
	stub.mu.Lock()
	defer stub.mu.Unlock()
	if stub.violations != 0 || in.violation != 0 {
		t.Fatalf("credit exceeded: %d commands flagged by the target, %d by the initiator",
			stub.violations, in.violation)
	}
	if in.failures != 0 || in.submitted != in.responses {
		t.Fatalf("failures=%d submitted=%d responses=%d: %v", in.failures, in.submitted, in.responses, in.bad)
	}
}

func TestInitiatorRejectsBadResponses(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	var stop atomic.Bool
	var measure atomic.Int64
	in := newInitiator(client, &measure, time.Second, 0, 2, 4096, 1<<20, 1, 1)
	go func() {
		defer server.Close()
		rd := bufio.NewReader(server)
		var hdr [4]byte
		for i := 0; i < 2; i++ { // the two reads the initiator sends
			io.ReadFull(rd, hdr[:])
			io.ReadFull(rd, make([]byte, binary.BigEndian.Uint32(hdr[:])))
		}
		for _, r := range []fabric.ResponseCapsule{
			{CID: 1, Credit: 2, Data: make([]byte, 100)},       // wrong payload length
			{CID: 7, Credit: 2},                                // unknown CID
			{CID: 0, Credit: 2, Status: nvme.StatusInvalidLBA}, // error status
		} {
			rsp := fabric.AppendResponse(nil, &r)
			server.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(rsp))), rsp...))
		}
	}()
	if err := in.submitBatch(); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	err := in.run(&stop)
	if in.failures != 3 {
		t.Fatalf("failures = %d, want 3 (err %v, bad %v)", in.failures, err, in.bad)
	}
}

func TestResponseHeaderMatchesCodec(t *testing.T) {
	for _, r := range []fabric.ResponseCapsule{
		{CID: 513, Status: nvme.StatusOK, Credit: 77, Data: make([]byte, 4096)},
		{CID: 2, Status: nvme.StatusInvalidLBA, Credit: 0},
	} {
		buf := fabric.AppendResponse(nil, &r)
		cid, st, credit, n, err := decodeResponseHeader(buf)
		if err != nil || cid != r.CID || st != r.Status || credit != r.Credit || n != len(r.Data) {
			t.Errorf("decoded %d %#x %d %d %v from %+v", cid, st, credit, n, err, r)
		}
		if _, _, _, _, err := decodeResponseHeader(buf[:len(buf)-1]); err == nil {
			t.Error("a truncated response decoded")
		}
	}
}

func TestLabelShare(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go pprof.Do(context.Background(), pprof.Labels("perfbench", "client"), func(context.Context) {
		defer wg.Done()
		spin(300 * time.Millisecond)
	})
	wg.Wait()
	pprof.StopCPUProfile()
	share, err := labelShare(prof.Bytes(), "perfbench", "client")
	if err != nil {
		t.Fatal(err)
	}
	if share < 0.5 || share > 1 {
		t.Fatalf("labelled share = %v, want most of the profile", share)
	}
	if other, _ := labelShare(prof.Bytes(), "perfbench", "nobody"); other != 0 {
		t.Fatalf("unlabelled value matched %v of the profile", other)
	}
}

var spinSink int

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink += i
		}
	}
}

// TestSmokeRuns runs every workload shrunk, untraced and traced, and
// checks that each prints every metric BENCHMARK.json names, correctly.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds")
	}
	for _, wl := range allWorkloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: wl, seed: 5, seconds: 0.3, trace: traced}
			rep, err := workloads[wl](o, smokeSize)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			line, err := finish(o, rep)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			var out struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]metricOut
			}
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					wl, traced, out.Correct, out.Attempted, out.Failed, rep.problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, traced, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: missing %s", wl, traced, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: %s unit %q, want %q", wl, d.name, m.Unit, d.unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", wl, d.name, m.Value)
				}
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric names and units in step
// with the catalog the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit string
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(bj.Workloads), len(allWorkloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != allWorkloads[i] {
			t.Errorf("workload %d: %s, want %s", i, w.Name, allWorkloads[i])
		}
	}
}
