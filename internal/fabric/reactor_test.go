package fabric

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

// startReactors spins up the sharded datapath over NULL devices (zero
// service time, synchronous completion) — the configuration the live
// datapath benchmarks use, where transport cost dominates.
func startReactors(t *testing.T, scheme Scheme, ssds, reactors int) (*TCPReactors, *sim.RealShards) {
	t.Helper()
	shards := sim.NewRealShards(reactors)
	devs := make([]ssd.Device, ssds)
	for i := range devs {
		devs[i] = ssd.NewNull(shards.Shard(i%shards.N()), 256<<20, 0)
	}
	tgt := NewReactorTarget(shards, devs, DefaultTargetConfig(scheme))
	srv, err := ServeTCPReactors(shards, tgt, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, shards
}

// startReactorsSSD is the variant over real simulated SSDs, for tests
// that need the cost model / credit machinery behind the reactors.
func startReactorsSSD(t *testing.T, scheme Scheme, ssds, reactors int) *TCPReactors {
	t.Helper()
	shards := sim.NewRealShards(reactors)
	devs := make([]ssd.Device, ssds)
	for i := range devs {
		p := ssd.DCT983()
		p.UsableBytes = 256 << 20
		dev := ssd.New(shards.Shard(i%shards.N()), p)
		dev.Precondition(ssd.Clean, sim.NewRNG(uint64(i+1)))
		devs[i] = dev
	}
	tgt := NewReactorTarget(shards, devs, DefaultTargetConfig(scheme))
	srv, err := ServeTCPReactors(shards, tgt, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestReactorRoundTrip(t *testing.T) {
	srv, _ := startReactors(t, SchemeVanilla, 4, 2)
	if srv.Reactors() != 2 {
		t.Fatalf("reactors = %d, want 2", srv.Reactors())
	}
	c, err := DialTCP(srv.Addr(), SchemeVanilla)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(i)
	}
	// Touch every namespace so both reactors carry traffic.
	for nsid := uint8(0); nsid < 4; nsid++ {
		rsp, err := c.DoIO(nvme.OpWrite, nsid, 4096, len(data), data)
		if err != nil {
			t.Fatal(err)
		}
		if rsp.Status != nvme.StatusOK {
			t.Fatalf("ns %d write status %v", nsid, rsp.Status)
		}
		rsp, err = c.DoIO(nvme.OpRead, nsid, 4096, 8192, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rsp.Status != nvme.StatusOK {
			t.Fatalf("ns %d read status %v", nsid, rsp.Status)
		}
		if len(rsp.Data) != 8192 {
			t.Fatalf("ns %d read returned %d bytes, want 8192", nsid, len(rsp.Data))
		}
	}
	for _, st := range srv.ReactorStats() {
		if st.RxCapsules == 0 || st.TxCapsules == 0 {
			t.Fatalf("reactor %d saw no traffic: %+v", st.Reactor, st)
		}
		if len(st.SSDs) != 2 {
			t.Fatalf("reactor %d owns %v, want 2 SSDs", st.Reactor, st.SSDs)
		}
	}
}

func TestReactorInvalidNSID(t *testing.T) {
	srv, _ := startReactors(t, SchemeVanilla, 2, 2)
	c, err := DialTCP(srv.Addr(), SchemeVanilla)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct {
		name string
		cmd  CommandCapsule
	}{
		{"bad namespace", CommandCapsule{Opcode: nvme.OpRead, NSID: 9, Length: 4096}},
		{"unaligned length", CommandCapsule{Opcode: nvme.OpRead, NSID: 0, Length: 100}},
	} {
		rsp, err := c.Do(&tc.cmd)
		if err != nil {
			t.Fatal(err)
		}
		if rsp.Status == nvme.StatusOK {
			t.Fatalf("%s should fail", tc.name)
		}
	}
	// The connection must stay usable after the error replies.
	rsp, err := c.DoIO(nvme.OpRead, 0, 0, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rsp.Status != nvme.StatusOK {
		t.Fatalf("follow-up read status %v", rsp.Status)
	}
}

// TestReactorHostileFrames opens raw connections that violate the framing
// — an oversized length prefix, a body cut short by a half-close, an
// undecodable capsule — and checks the server closes each of them while a
// well-behaved client on the same target keeps completing IO, and that the
// session and in-flight accounting return to the good client alone.
func TestReactorHostileFrames(t *testing.T) {
	srv, _ := startReactors(t, SchemeVanilla, 2, 2)
	good, err := DialTCP(srv.Addr(), SchemeVanilla)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()

	stop := make(chan struct{})
	goodErr := make(chan error, 1)
	go func() {
		defer close(goodErr)
		for j := 0; ; j++ {
			select {
			case <-stop:
				return
			default:
			}
			rsp, err := good.DoIO(nvme.OpRead, uint8(j%2), int64(j%64)*4096, 4096, nil)
			if err != nil {
				goodErr <- err
				return
			}
			if rsp.Status != nvme.StatusOK {
				goodErr <- &netError{rsp.Status}
				return
			}
		}
	}()

	prefix := func(n uint32) []byte { return binary.BigEndian.AppendUint32(nil, n) }
	for _, tc := range []struct {
		name      string
		wire      []byte
		halfClose bool
	}{
		{"oversized prefix", prefix(maxFrame + 1), false},
		{"truncated body", append(prefix(64), 1, 2, 3), true},
		{"undecodable capsule", append(prefix(3), capCommand, 0, 0), false},
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(tc.wire); err != nil {
			t.Fatalf("%s: write: %v", tc.name, err)
		}
		if tc.halfClose {
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatalf("%s: half-close: %v", tc.name, err)
			}
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := conn.Read(make([]byte, 64))
		if err == nil {
			t.Fatalf("%s: server replied %d bytes instead of closing", tc.name, n)
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: server left the connection open", tc.name)
		}
		conn.Close()
	}

	// The hostile sessions retire asynchronously; the good one stays.
	deadline := time.Now().Add(5 * time.Second)
	for srv.sessions.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("sessions = %d after hostile connections closed, want 1", srv.sessions.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if err := <-goodErr; err != nil {
		t.Fatalf("well-behaved client failed: %v", err)
	}
	rsp, err := good.DoIO(nvme.OpRead, 0, 0, 4096, nil)
	if err != nil || rsp.Status != nvme.StatusOK {
		t.Fatalf("well-behaved client after hostile frames: %v, %+v", err, rsp)
	}
	if n := srv.Inflight(); n != 0 {
		t.Fatalf("inflight = %d after hostile connections, want 0", n)
	}
}

func TestReactorConcurrentClients(t *testing.T) {
	srv, _ := startReactors(t, SchemeVanilla, 4, 4)
	const clients = 4
	const opsEach = 200
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := DialTCP(srv.Addr(), SchemeVanilla)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			nsid := uint8(id % 4)
			for j := 0; j < opsEach; j++ {
				off := int64(j) * 4096 % (128 << 20)
				rsp, err := c.DoIO(nvme.OpRead, nsid, off, 4096, nil)
				if err != nil {
					errs <- err
					return
				}
				if rsp.Status != nvme.StatusOK {
					errs <- &netError{rsp.Status}
					return
				}
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if n := srv.Inflight(); n != 0 {
		t.Fatalf("inflight = %d after all clients done", n)
	}
}

type netError struct{ s nvme.Status }

func (e *netError) Error() string { return "unexpected status" }

func TestReactorGimbalCreditPiggyback(t *testing.T) {
	srv := startReactorsSSD(t, SchemeGimbal, 2, 2)
	c, err := DialTCP(srv.Addr(), SchemeGimbal)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var lastCredit uint32
	for j := 0; j < 200; j++ {
		rsp, err := c.DoIO(nvme.OpRead, uint8(j%2), int64(j)*4096, 4096, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rsp.Credit > 0 {
			lastCredit = rsp.Credit
		}
	}
	if lastCredit == 0 {
		t.Fatal("no credit ever piggybacked on completions")
	}
}

func TestReactorShutdownDrains(t *testing.T) {
	shards := sim.NewRealShards(2)
	devs := make([]ssd.Device, 2)
	for i := range devs {
		devs[i] = ssd.NewNull(shards.Shard(i), 256<<20, 0)
	}
	tgt := NewReactorTarget(shards, devs, DefaultTargetConfig(SchemeVanilla))
	srv, err := ServeTCPReactors(shards, tgt, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialTCP(srv.Addr(), SchemeVanilla)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 50; j++ {
		if _, err := c.DoIO(nvme.OpRead, uint8(j%2), int64(j)*4096, 4096, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Shutdown(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := srv.Inflight(); n != 0 {
		t.Fatalf("inflight = %d after shutdown", n)
	}
	c.Close()
}

// TestReactorShardedObs wires the full sharded observability stack the
// daemon uses — per-reactor registry shards with per-shard GatherLocks,
// an obs.Group over them, a shared SLO engine — and checks that tenant
// traffic lands in the right shard and the SLO report attributes per
// tenant across shards.
func TestReactorShardedObs(t *testing.T) {
	shards := sim.NewRealShards(2)
	devs := make([]ssd.Device, 2)
	for i := range devs {
		devs[i] = ssd.NewNull(shards.Shard(i), 256<<20, 0)
	}
	tgt := NewReactorTarget(shards, devs, DefaultTargetConfig(SchemeVanilla))
	srv, err := ServeTCPReactors(shards, tgt, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	reg := obs.NewRegistry()
	hub := obs.NewHub(reg)
	hub.SLO = obs.NewSLOEngine(obs.SLOConfig{Default: obs.SLO{LatencyTargetNs: int64(time.Second), LatencyGoal: 0.9}})
	shardRegs := make([]*obs.Registry, 2)
	for j := range shardRegs {
		shardRegs[j] = obs.NewRegistry()
		shardRegs[j].GatherLock = shards.Shard(j)
	}
	shards.Lock()
	tgt.AttachObsSharded(hub, srv.PipelineRegs(shardRegs))
	shards.Unlock()
	srv.AttachObs(hub, shardRegs)

	c, err := DialTCP(srv.Addr(), SchemeVanilla)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for j := 0; j < 100; j++ {
		rsp, err := c.DoIO(nvme.OpRead, uint8(j%2), int64(j)*4096, 4096, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rsp.Status != nvme.StatusOK {
			t.Fatalf("read status %v", rsp.Status)
		}
	}

	// Each shard registry carries its own pipeline's tenant counters.
	for j, sr := range shardRegs {
		snap := sr.Snapshot()
		found := false
		for k, v := range snap {
			if len(k) > len("tenant_completed_ops_total") && k[:len("tenant_completed_ops_total")] == "tenant_completed_ops_total" && v > 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("shard %d registry has no tenant completions: %v", j, snap)
		}
	}
	// The joined view sums to the full traffic.
	group := obs.NewGroup(append([]*obs.Registry{reg}, shardRegs...)...)
	total := 0.0
	for k, v := range group.Snapshot() {
		if len(k) > len("tenant_completed_ops_total") && k[:len("tenant_completed_ops_total")] == "tenant_completed_ops_total" {
			total += v
		}
	}
	if total != 100 {
		t.Fatalf("joined tenant_completed_ops_total = %v, want 100", total)
	}
	// The shared SLO engine saw both shards' tenants.
	rep := hub.SLO.Report(shards.Now())
	if len(rep.Tenants) != 2 {
		t.Fatalf("SLO report has %d tenants, want 2 (one per namespace)", len(rep.Tenants))
	}
	var good int64
	for _, tr := range rep.Tenants {
		if tr.Good == 0 {
			t.Fatalf("tenant %s reported no good IOs", tr.Tenant)
		}
		good += tr.Good
	}
	if good != 100 {
		t.Fatalf("SLO good total = %d, want 100", good)
	}
}

// TestTCPHotPathAllocFree pins the 0 allocs/IO property of the reactor
// wall-clock path: a raw pipelined client replays a prebuilt 4 KiB read
// frame and the whole process — reader, reactor, pipeline, writer —
// must average well under one allocation per IO after warmup.
func TestTCPHotPathAllocFree(t *testing.T) {
	srv, _ := startReactors(t, SchemeVanilla, 1, 1)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	cmd := AppendCommand(
		binary.BigEndian.AppendUint32(nil, cmdHeaderLen),
		&CommandCapsule{Opcode: nvme.OpRead, CID: 1, NSID: 0, SLBA: 0, Length: 4096},
	)
	rspLen := 4 + rspHeaderLen + 4096
	rsp := make([]byte, rspLen)

	doIO := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := conn.Write(cmd); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(conn, rsp); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warmup must lap the whole slot pool: each of the connSlots slots
	// grows its response buffer on first use, and slots rotate FIFO
	// through the free ring.
	doIO(2*connSlots + 100)

	const iters = 5000
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	doIO(iters)
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / iters
	if allocs >= 1.0 {
		t.Fatalf("hot path allocates %.3f objects/IO, want < 1.0", allocs)
	}
	t.Logf("hot path: %.4f allocs/IO over %d IOs", allocs, iters)
}
