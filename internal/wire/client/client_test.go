package client

import (
	"context"
	"net"
	"testing"

	"moca/internal/sim"
	"moca/internal/wire"
)

// resultServer accepts one connection, completes the handshake and sends
// a RESULT frame for job 1 carrying doc.
func resultServer(t *testing.T, doc []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		nc, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer nc.Close()
		if _, _, err := wire.ReadFrame(nc, wire.DefaultMaxFrame); err != nil {
			t.Error(err)
			return
		}
		if err := wire.WriteMsg(nc, wire.TypeHelloOK, wire.HelloOK{Version: wire.ProtocolVersion}, wire.DefaultMaxFrame); err != nil {
			t.Error(err)
			return
		}
		if err := wire.WriteFrame(nc, wire.TypeResult, wire.AppendResult(nil, 1, doc), wire.DefaultMaxFrame); err != nil {
			t.Error(err)
		}
		// Hold the connection until the client closes it.
		_, _ = nc.Read(make([]byte, 1))
	}()
	return ln.Addr().String()
}

func waitResult(t *testing.T, doc []byte) (*sim.Result, error) {
	t.Helper()
	c, err := Dial(resultServer(t, doc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	return c.Wait(context.Background(), &Job{ID: 1}, nil, nil)
}

// TestWaitRejectsNullResult: a RESULT frame whose document is null is an
// error, not an empty result.
func TestWaitRejectsNullResult(t *testing.T) {
	if res, err := waitResult(t, []byte("null")); err == nil {
		t.Fatalf("null RESULT decoded as %+v", res)
	}
}
