package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"moca/internal/exp"
	"moca/internal/wire"
	"moca/internal/wire/client"
)

// Small quotas keep e2e runs fast; they form the runner key below.
const (
	testMeasure = 30_000
	testWindow  = 100_000
)

func testKey() runnerKey {
	return runnerKey{measure: testMeasure, window: testWindow}
}

func testSubmit(id uint32) wire.Submit {
	return wire.Submit{
		ID:            id,
		System:        "ddr3",
		App:           "mcf",
		Measure:       testMeasure,
		ProfileWindow: testWindow,
	}
}

// startServer serves on a loopback listener until the test ends and the
// drain completes.
func startServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Serve: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Error("Serve did not drain within 30s")
		}
	})
	return srv, ln.Addr().String()
}

// TestManyClientsOneSimulation is the tentpole's acceptance test: 100
// concurrent clients submitting the identical run key must execute
// exactly one simulation, and every client must receive byte-identical
// RESULT frames — which also match the same run executed locally through
// the experiment harness.
func TestManyClientsOneSimulation(t *testing.T) {
	srv, addr := startServer(t, Config{DrainTimeout: 5 * time.Second})

	const n = 100
	raws := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{})
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			_, j, err := c.Run(context.Background(), testSubmit(0), nil)
			if err != nil {
				errs[i] = err
				return
			}
			raws[i] = j.Raw
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(raws[i], raws[0]) {
			t.Fatalf("client %d received different result bytes than client 0", i)
		}
	}

	srv.mu.Lock()
	r := srv.runners[testKey()]
	srv.mu.Unlock()
	if r == nil {
		t.Fatal("no runner materialized for the submitted key")
	}
	if st := r.Stats(); st.Simulated != 1 {
		t.Errorf("Simulated = %d for %d identical submissions, want 1", st.Simulated, n)
	}

	// The served bytes are the local harness's bytes: same key through a
	// fresh local runner must marshal identically.
	local := exp.NewRunner()
	local.Measure = testMeasure
	local.FW.ProfileWindow = testWindow
	def, err := exp.SystemByName("ddr3")
	if err != nil {
		t.Fatal(err)
	}
	res, err := local.RunSingle(def, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raws[0], want) {
		t.Error("remote result bytes diverge from the local harness run")
	}
}

// TestCancelSoleClientStopsRun: the only client joined to a run cancels;
// the client returns context.Canceled and the simulation's progress ticks
// cease — the CANCEL frame reached System.RunContext via the flight
// context.
func TestCancelSoleClientStopsRun(t *testing.T) {
	srv, addr := startServer(t, Config{StreamInterval: 20 * time.Millisecond, DrainTimeout: 5 * time.Second})

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A quota far beyond the e2e scale: only cancellation ends this run.
	sub := testSubmit(0)
	sub.Measure = 2_000_000_000
	j, err := c.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Stream(j); err != nil {
		t.Fatal(err)
	}

	// Watch the hub directly: ticks prove the simulation is advancing.
	memoKey := "homogen-ddr3|single/mcf"
	ticks, unsubscribe := srv.hub.subscribe(memoKey)
	defer unsubscribe()

	ctx, cancel := context.WithCancel(context.Background())
	waitErr := make(chan error, 1)
	go func() {
		_, err := c.Wait(ctx, j, nil, nil)
		waitErr <- err
	}()

	select {
	case <-ticks:
		// The run is live.
	case <-time.After(60 * time.Second):
		t.Fatal("no progress tick within 60s")
	}

	cancel()
	select {
	case err := <-waitErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled client returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not reach the client within 30s")
	}

	// The simulation must stop: after a drain window, no further ticks.
	deadline := time.Now().Add(30 * time.Second)
	for {
		// Drain anything already in flight, then listen for fresh ticks.
		select {
		case <-ticks:
		default:
		}
		quiet := true
		select {
		case <-ticks:
			quiet = false
		case <-time.After(500 * time.Millisecond):
		}
		if quiet {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("simulation still ticking 30s after its only client canceled")
		}
	}
	srv.mu.Lock()
	r := srv.runners[runnerKey{measure: sub.Measure, window: testWindow}]
	srv.mu.Unlock()
	if st := r.Stats(); st.Simulated != 0 {
		t.Errorf("Simulated = %d for a canceled run, want 0", st.Simulated)
	}
}

// TestMalformedFrameClosesConnection: after the handshake, a frame that
// violates the protocol draws a typed ERROR frame and the connection
// closes — it never hangs or panics the server.
func TestMalformedFrameClosesConnection(t *testing.T) {
	_, addr := startServer(t, Config{DrainTimeout: time.Second})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteMsg(nc, wire.TypeHello, wire.Hello{Version: wire.ProtocolVersion}, 0); err != nil {
		t.Fatal(err)
	}
	typ, _, err := wire.ReadFrame(nc, 0)
	if err != nil || typ != wire.TypeHelloOK {
		t.Fatalf("handshake: type 0x%02x, err %v", typ, err)
	}

	// A length prefix far past the server's cap.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<31)
	if _, err := nc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(nc, 0)
	if err != nil {
		t.Fatalf("expected an ERROR frame before close, got read error %v", err)
	}
	if typ != wire.TypeError {
		t.Fatalf("got frame type 0x%02x, want ERROR", typ)
	}
	var em wire.ErrorMsg
	if err := wire.Decode(payload, &em); err != nil {
		t.Fatal(err)
	}
	if em.Code != wire.CodeProto {
		t.Errorf("error code %q, want %q", em.Code, wire.CodeProto)
	}
	if _, _, err := wire.ReadFrame(nc, 0); err == nil {
		t.Fatal("connection still open after a protocol violation")
	}
}

// TestVersionMismatchRejected: a client speaking the wrong protocol
// version is turned away during the handshake.
func TestVersionMismatchRejected(t *testing.T) {
	_, addr := startServer(t, Config{DrainTimeout: time.Second})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteMsg(nc, wire.TypeHello, wire.Hello{Version: 99}, 0); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(nc, 0)
	if err != nil || typ != wire.TypeError {
		t.Fatalf("got type 0x%02x err %v, want an ERROR frame", typ, err)
	}
	var em wire.ErrorMsg
	if err := wire.Decode(payload, &em); err != nil {
		t.Fatal(err)
	}
	if em.Code != wire.CodeProto {
		t.Errorf("error code %q, want %q", em.Code, wire.CodeProto)
	}
}

// TestGracefulDrain: canceling the serve context mid-job lets the job
// finish and deliver its result before the server exits (SIGTERM drain).
func TestGracefulDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{DrainTimeout: 60 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()

	c, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	j, err := c.Submit(testSubmit(0))
	if err != nil {
		t.Fatal(err)
	}

	// Begin the drain while the job is in flight.
	cancel()

	res, err := c.Wait(context.Background(), j, nil, nil)
	if err != nil {
		t.Fatalf("job interrupted by drain: %v", err)
	}
	if res == nil {
		t.Fatal("nil result after drain")
	}
	c.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit after its last connection closed")
	}

	// Draining servers refuse new work.
	if _, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		t.Error("listener still accepting after drain")
	}
}
