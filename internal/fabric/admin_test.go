package fabric

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gimbal/internal/fault"
	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

// startObservedTCP builds a live Gimbal reactor target with the full
// telemetry stack attached, as cmd/gimbald does: the SSD behind its fault
// layer (which exports no telemetry of its own), a hub registry for the
// transport gauges plus one registry shard per reactor gathered under
// that reactor's lock and joined by an obs.Group, a full-capture tracer,
// an SLO engine, and the shared event log.
func startObservedTCP(t *testing.T) (*TCPReactors, *obs.Hub, *obs.Group) {
	t.Helper()
	shards := sim.NewRealShards(1)
	p := ssd.DCT983()
	p.UsableBytes = 256 << 20
	dev := ssd.New(shards.Shard(0), p)
	dev.Precondition(ssd.Clean, sim.NewRNG(1))
	tgt := NewReactorTarget(shards, []ssd.Device{fault.Wrap(shards.Shard(0), dev)}, DefaultTargetConfig(SchemeGimbal))

	hub := obs.NewHub(obs.NewRegistry())
	hub.Tracer = obs.NewTracer(obs.TracerConfig{Capacity: 1024, Mode: obs.TraceFull})
	hub.Events = obs.NewEventLog(64)
	hub.SLO = obs.NewSLOEngine(obs.SLOConfig{
		Default: obs.SLO{LatencyTargetNs: int64(time.Second), LatencyGoal: 0.999},
	})
	hub.SLO.SetEventLog(hub.Events)
	shardRegs := []*obs.Registry{obs.NewRegistry()}
	shardRegs[0].GatherLock = shards.Shard(0)

	srv, err := ServeTCPReactors(shards, tgt, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	shards.Lock()
	tgt.AttachObsSharded(hub, srv.PipelineRegs(shardRegs))
	shards.Unlock()
	srv.AttachObs(hub, shardRegs)
	return srv, hub, obs.NewGroup(hub.Reg, shardRegs[0])
}

func TestAdminEndpointLiveTarget(t *testing.T) {
	srv, hub, group := startObservedTCP(t)
	c, err := DialTCP(srv.Addr(), SchemeGimbal)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 8192)
	for i := 0; i < 64; i++ {
		op, data := nvme.Opcode(nvme.OpRead), []byte(nil)
		if i%4 == 0 {
			op, data = nvme.OpWrite, payload
		}
		rsp, err := c.DoIO(op, 0, int64(i)*8192, 8192, data)
		if err != nil {
			t.Fatal(err)
		}
		if rsp.Status != nvme.StatusOK {
			t.Fatalf("io %d status %v", i, rsp.Status)
		}
	}

	mux := AdminMux(srv.shards, srv.target, hub, group)

	// /metrics: Prometheus text format with the pipeline instruments.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE gimbal_pacing_stalls_total counter",
		`gimbal_submits_total{ssd="0"}`,
		`fabric_reactor_rx_capsules{reactor="0"} 64`,
		"fabric_open_sessions 1",
		`tenant_completed_ops_total{ssd="0",tenant=`,
		"ssd_write_amplification",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// /stats: JSON snapshot with per-tenant traffic and the virtual view.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var snap TargetStats
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("bad /stats JSON: %v\n%s", err, rec.Body.String())
	}
	if snap.Scheme != "gimbal" || len(snap.SSDs) != 1 {
		t.Fatalf("snapshot shape: %+v", snap)
	}
	s0 := snap.SSDs[0]
	if s0.WriteCost < 1 || s0.Submits != 64 || s0.Completions != 64 {
		t.Fatalf("ssd block: %+v", s0)
	}
	if len(s0.Tenants) != 1 || s0.Tenants[0].Ops != 64 || s0.Tenants[0].Bytes != 64*8192 {
		t.Fatalf("tenant block: %+v", s0.Tenants)
	}
	if s0.Tenants[0].Credit == 0 {
		t.Fatalf("tenant credit not exported: %+v", s0.Tenants[0])
	}
	if s0.Device == nil || s0.Device.ReadBytes == 0 {
		t.Fatalf("device block: %+v", s0.Device)
	}

	// /trace: one JSONL line per traced IO with the lifecycle spans.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 64 {
		t.Fatalf("/trace lines = %d, want 64", len(lines))
	}
	var tr struct {
		Op       string `json:"op"`
		DeviceNs int64  `json:"device_ns"`
		QueueNs  int64  `json:"queue_ns"`
		PacingNs int64  `json:"pacing_ns"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.DeviceNs <= 0 || tr.QueueNs < 0 || tr.PacingNs < 0 {
		t.Fatalf("trace spans: %+v", tr)
	}

	// /trace filters: n= caps the output (newest win), tenant= selects by
	// name, an unknown tenant matches nothing, a bad phase is rejected.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?n=8", nil))
	if got := strings.Split(strings.TrimSpace(rec.Body.String()), "\n"); len(got) != 8 {
		t.Fatalf("/trace?n=8 lines = %d, want 8", len(got))
	}
	tenantName := s0.Tenants[0].Tenant
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?tenant="+tenantName, nil))
	if got := strings.Split(strings.TrimSpace(rec.Body.String()), "\n"); len(got) != 64 {
		t.Fatalf("/trace?tenant=%s lines = %d, want 64", tenantName, len(got))
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?tenant=nobody", nil))
	if body := strings.TrimSpace(rec.Body.String()); body != "" {
		t.Fatalf("/trace?tenant=nobody returned %q", body)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?phase=warp", nil))
	if rec.Code != 400 {
		t.Fatalf("/trace?phase=warp code = %d, want 400", rec.Code)
	}

	// /slo: the engine saw every completed IO for the tenant.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/slo", nil))
	var slo obs.SLOReport
	if err := json.Unmarshal(rec.Body.Bytes(), &slo); err != nil {
		t.Fatalf("bad /slo JSON: %v\n%s", err, rec.Body.String())
	}
	if len(slo.Tenants) != 1 || slo.Tenants[0].Tenant != tenantName {
		t.Fatalf("/slo tenants: %+v", slo.Tenants)
	}
	if got := slo.Tenants[0].Good + slo.Tenants[0].Bad; got != 64 {
		t.Fatalf("/slo observed %d IOs, want 64", got)
	}
}

func TestShutdownDrainsInflight(t *testing.T) {
	srv, _, _ := startObservedTCP(t)
	c, err := DialTCP(srv.Addr(), SchemeGimbal)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Launch a burst and shut down while completions are still in flight.
	var chans []<-chan callResult
	for i := 0; i < 32; i++ {
		chans = append(chans, c.Go(&CommandCapsule{
			Opcode: nvme.OpRead, NSID: 0, SLBA: uint64(i), Length: 4096,
		}))
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := srv.Inflight(); n != 0 {
		t.Fatalf("inflight after shutdown = %d", n)
	}
	// Every submitted command either completed or failed cleanly on close;
	// none may hang.
	for i, ch := range chans {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("command %d hung after shutdown", i)
		}
	}
}
