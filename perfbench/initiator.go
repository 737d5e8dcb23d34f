package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"gimbal/internal/core/credit"
	"gimbal/internal/fabric"
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
)

// initiator is one closed-loop, pipelined NVMe/TCP connection of the
// benchmark's load generator. A single goroutine keeps up to qd commands in
// flight: it sends every command the credit gate admits in one write,
// then reads responses through a buffered reader and handles every
// response already buffered before reading again. It honours the credit
// the target piggybacks on each response (core/credit.Gate, as Gimbal's
// initiator does) and checks every response against its outstanding
// command.
type initiator struct {
	conn    *countingConn
	rd      *bufio.Reader
	gate    *credit.Gate
	nsid    uint8
	qd      int
	ioSize  int
	slots   int64 // namespace size in IO slots
	reads   float64
	rng     *sim.RNG
	payload []byte

	// Per-CID state; CIDs are 0..qd-1, recycled through free.
	free      []uint16
	sentAt    []int64
	isRead    []bool
	inflight  []bool
	nInflight int
	credit    uint32 // latest grant seen, kept apart from the gate's copy
	submitted int64
	wbuf      []byte
	frame     []byte

	// measure holds the measured window's start (nanotime), 0 outside it;
	// it gates the samples below.
	measure *atomic.Int64
	winNs   int64   // latency window length
	winEnd  int64   // end of the current latency window
	winLat  []int64 // the current window's latencies

	// Results, read by the owner after run returns. Latencies are a
	// uniform reservoir sample of the measured window, so memory does not
	// grow with throughput.
	lat       reservoir
	winP50    []int64              // median latency of each completed window
	credits   [maxCredit + 1]int64 // measured responses per granted credit
	completed atomic.Int64         // polled while running
	responses int64
	writes    int64 // write syscalls
	failures  int64 // responses that failed a check
	bad       []string
	violation int64 // submissions past the granted credit
}

const (
	// latReservoir is each connection's latency sample size.
	latReservoir = 1 << 17
	// maxCredit caps the credit histogram; larger grants count here.
	maxCredit = 4096
)

// reservoir keeps a uniform random sample of a stream (Algorithm R). Its
// slots are touched up front so resident memory is the same at any rate.
type reservoir struct {
	seen    int64
	samples []int64
	rng     *sim.RNG
}

func newReservoir(n int, seed uint64) reservoir {
	s := make([]int64, n)
	for i := range s {
		s[i] = -1
	}
	return reservoir{samples: s[:0], rng: sim.NewRNG(seed ^ 0x5eed)}
}

func (r *reservoir) add(v int64) {
	r.seen++
	if len(r.samples) < cap(r.samples) {
		r.samples = append(r.samples, v)
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(len(r.samples)) {
		r.samples[j] = v
	}
}

// lbaBytes is the logical block size command SLBAs count in.
const lbaBytes = 4096

// responseTag is the type byte that opens a response capsule.
const responseTag = 0x02

// countingConn counts the read syscalls behind the buffered reader.
type countingConn struct {
	net.Conn
	reads int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads++
	return c.Conn.Read(p)
}

func newInitiator(conn net.Conn, measure *atomic.Int64, window time.Duration, nsid uint8, qd, ioSize int, nsBytes int64, reads float64, seed uint64) *initiator {
	cc := &countingConn{Conn: conn}
	in := &initiator{
		conn:     cc,
		rd:       bufio.NewReaderSize(cc, 256<<10),
		gate:     credit.NewGate(true, uint32(qd)),
		credit:   uint32(qd),
		nsid:     nsid,
		qd:       qd,
		ioSize:   ioSize,
		slots:    nsBytes / int64(ioSize),
		reads:    reads,
		rng:      sim.NewRNG(seed),
		measure:  measure,
		winNs:    int64(window),
		lat:      newReservoir(latReservoir, seed),
		payload:  make([]byte, ioSize),
		sentAt:   make([]int64, qd),
		isRead:   make([]bool, qd),
		inflight: make([]bool, qd),
	}
	for i := range in.payload {
		in.payload[i] = byte(i * 7)
	}
	for c := qd - 1; c >= 0; c-- {
		in.free = append(in.free, uint16(c))
	}
	return in
}

// run drives the connection until stop is set, then drains its
// outstanding commands. It returns the first transport or protocol error.
func (in *initiator) run(stop *atomic.Bool) error {
	for {
		stopping := stop.Load()
		if !stopping {
			if err := in.submitBatch(); err != nil {
				return err
			}
		}
		if in.nInflight == 0 {
			if stopping {
				return nil
			}
			return fmt.Errorf("initiator: nothing in flight and nothing admitted")
		}
		if err := in.receive(); err != nil {
			return err
		}
	}
}

// submitBatch sends every command the queue depth and the credit admit,
// as one write.
func (in *initiator) submitBatch() error {
	in.wbuf = in.wbuf[:0]
	now := nanotime()
	for len(in.free) > 0 {
		if !in.gate.CanSubmit() {
			break
		}
		if in.nInflight >= int(in.credit) {
			in.violation++ // the gate admitted past the latest grant
		}
		cid := in.free[len(in.free)-1]
		in.free = in.free[:len(in.free)-1]
		read := in.rng.Float64() < in.reads
		cmd := fabric.CommandCapsule{
			CID:    cid,
			Opcode: nvme.OpWrite,
			NSID:   in.nsid,
			SLBA:   uint64(in.rng.Int63n(in.slots) * int64(in.ioSize) / lbaBytes),
			Length: uint32(in.ioSize),
		}
		data := 0
		if read {
			cmd.Opcode = nvme.OpRead
		} else {
			cmd.Data = in.payload
			data = in.ioSize
		}
		in.wbuf = binary.BigEndian.AppendUint32(in.wbuf, uint32(fabric.CommandWireLen(data)))
		in.wbuf = fabric.AppendCommand(in.wbuf, &cmd)
		in.gate.OnSubmit()
		in.sentAt[cid] = now
		in.isRead[cid] = read
		in.inflight[cid] = true
		in.nInflight++
		in.submitted++
	}
	if len(in.wbuf) == 0 {
		return nil
	}
	in.writes++
	_, err := in.conn.Write(in.wbuf)
	return err
}

// receive blocks for one response, then handles every further response
// already buffered.
func (in *initiator) receive() error {
	for {
		if err := in.readResponse(); err != nil {
			return err
		}
		if !frameBuffered(in.rd) {
			return nil
		}
	}
}

// frameBuffered reports whether the reader holds a complete frame.
func frameBuffered(r *bufio.Reader) bool {
	if r.Buffered() < 4 {
		return false
	}
	p, _ := r.Peek(4)
	return r.Buffered() >= 4+int(binary.BigEndian.Uint32(p))
}

func (in *initiator) readResponse() error {
	var hdr [4]byte
	if _, err := io.ReadFull(in.rd, hdr[:]); err != nil {
		return err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > 1<<20 {
		return fmt.Errorf("initiator: %d-byte response frame", n)
	}
	if cap(in.frame) < n {
		in.frame = make([]byte, n)
	}
	buf := in.frame[:n]
	if _, err := io.ReadFull(in.rd, buf); err != nil {
		return err
	}
	cid, status, credit, dataLen, err := decodeResponseHeader(buf)
	if err != nil {
		return err
	}
	now := nanotime()
	in.responses++
	if int(cid) >= in.qd || !in.inflight[cid] {
		in.badf("response for CID %d with no outstanding command", cid)
		return nil
	}
	want := 0
	if in.isRead[cid] {
		want = in.ioSize
	}
	switch {
	case status != nvme.StatusOK:
		in.badf("CID %d completed with status %#x", cid, uint16(status))
	case dataLen != want:
		in.badf("CID %d carried %d payload bytes, want %d", cid, dataLen, want)
	default:
		in.completed.Add(1)
		if start := in.measure.Load(); start != 0 {
			lat := now - in.sentAt[cid]
			in.lat.add(lat)
			in.windowed(now, start, lat)
			in.credits[min(credit, maxCredit)]++
		}
	}
	in.gate.OnCompletion(credit)
	if credit > 0 {
		in.credit = credit
	}
	in.inflight[cid] = false
	in.nInflight--
	in.free = append(in.free, cid)
	return nil
}

// windowed files one measured latency under its window, closing every
// window that ended before now with its median.
func (in *initiator) windowed(now, start, lat int64) {
	if in.winEnd == 0 {
		in.winEnd = start + in.winNs
	}
	for now >= in.winEnd {
		if len(in.winLat) > 0 {
			in.winP50 = append(in.winP50, percentileNs(in.winLat, 0.5))
			in.winLat = in.winLat[:0]
		}
		in.winEnd += in.winNs
	}
	in.winLat = append(in.winLat, lat)
}

// decodeResponseHeader reads a response capsule's fields in place, in the
// layout fabric.AppendResponse writes (type tag, CID, status, credit,
// payload length, payload), without copying the payload as
// fabric.DecodeResponse does: the read payload is 4 KB per IO, and the
// generator's copies would count against the target's allocations.
func decodeResponseHeader(buf []byte) (cid uint16, st nvme.Status, credit uint32, dataLen int, err error) {
	if len(buf) < fabric.ResponseWireLen(0) || buf[0] != responseTag {
		return 0, 0, 0, 0, fmt.Errorf("initiator: malformed %d-byte response", len(buf))
	}
	dataLen = int(binary.BigEndian.Uint32(buf[9:]))
	if len(buf) != fabric.ResponseWireLen(dataLen) {
		return 0, 0, 0, 0, fmt.Errorf("initiator: response of %d bytes declares %d payload bytes", len(buf), dataLen)
	}
	return binary.BigEndian.Uint16(buf[1:]), nvme.Status(binary.BigEndian.Uint16(buf[3:])),
		binary.BigEndian.Uint32(buf[5:]), dataLen, nil
}

func (in *initiator) badf(format string, args ...any) {
	in.failures++
	if len(in.bad) < 8 {
		in.bad = append(in.bad, fmt.Sprintf(format, args...))
	}
}
