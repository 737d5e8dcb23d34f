package fabric

import (
	"errors"
	"testing"
	"time"

	"gimbal/internal/nvme"
)

func TestTCPClientFailsPendingOnClose(t *testing.T) {
	srv, _ := startReactors(t, SchemeVanilla, 1, 1)
	c, err := DialTCP(srv.Addr(), SchemeVanilla)
	if err != nil {
		t.Fatal(err)
	}
	// Let one request complete, then kill the server.
	<-c.Go(&CommandCapsule{Opcode: nvme.OpRead, NSID: 0, Length: 4096})
	srv.Close()
	c.conn.Close()
	select {
	case res := <-c.Go(&CommandCapsule{Opcode: nvme.OpRead, NSID: 0, Length: 4096}):
		if res.err == nil {
			// The write can race ahead of the close; the next call must fail.
			res = <-c.Go(&CommandCapsule{Opcode: nvme.OpRead, NSID: 0, Length: 4096})
			if res.err == nil {
				t.Fatal("calls after close should fail")
			}
		}
		if !errors.Is(res.err, ErrClosed) {
			t.Fatalf("call after close failed with %v, want ErrClosed", res.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call after close hung")
	}
}
