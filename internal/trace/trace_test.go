package trace

import (
	"bytes"
	"os"
	"testing"
	"testing/quick"

	"moca/internal/cpu"
	"moca/internal/heap"
	"moca/internal/workload"
)

// encodeV1 is the v1 encoding of items: the header, every item on one
// continuous delta state, and the end opcode. Nothing writes v1 any more;
// this is the reference the v1 reader and the checked-in v1 fixture are
// held to.
func encodeV1(items []cpu.Instr) []byte {
	out := append([]byte(Magic), version1)
	var lastAddr, lastObj uint64
	for _, in := range items {
		var err error
		if out, err = appendItem(out, in, &lastAddr, &lastObj); err != nil {
			panic(err)
		}
	}
	return append(out, opEnd)
}

// openV1 opens v1 bytes through the version dispatch, failing the test if
// they do not land on the v1 Reader.
func openV1(t *testing.T, data []byte) *Reader {
	t.Helper()
	s, err := Open(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := s.(*Reader)
	if !ok {
		t.Fatalf("Open returned %T, want *Reader", s)
	}
	return r
}

func roundTrip(t *testing.T, ins []cpu.Instr) []cpu.Instr {
	t.Helper()
	r := openV1(t, encodeV1(ins))
	var out []cpu.Instr
	for {
		in, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, in)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return out
}

func TestRoundTripBasic(t *testing.T) {
	ins := []cpu.Instr{
		{Kind: cpu.Compute, N: 7},
		{Kind: cpu.Load, VAddr: 0x1000, Obj: 3},
		{Kind: cpu.Load, VAddr: 0x1008, Obj: 3, DependsOnPrev: true},
		{Kind: cpu.Store, VAddr: 0x7FFF0000_0000, Obj: 0},
		{Kind: cpu.Compute, N: 1},
		{Kind: cpu.Load, VAddr: 0x2000_0000_0000, Obj: 4},
	}
	out := roundTrip(t, ins)
	if len(out) != len(ins) {
		t.Fatalf("replayed %d instructions, want %d", len(out), len(ins))
	}
	for i := range ins {
		want := ins[i]
		if want.Kind == cpu.Compute && want.N < 1 {
			want.N = 1
		}
		if out[i] != want {
			t.Errorf("instr %d: got %+v, want %+v", i, out[i], want)
		}
	}
}

func TestRecordFromWorkload(t *testing.T) {
	a := heap.New(heap.Config{})
	app, err := workload.Instantiate(workload.GCC(), a, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, _ := NewBlockWriter(&buf)
	n, err := Record(w, app.Stream(), 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20_000 {
		t.Fatalf("recorded %d, want 20000", n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 20_000 {
		t.Errorf("Count = %d", w.Count())
	}
	// Compression sanity: delta+varint should beat 16 bytes/instr easily.
	if perInstr := float64(buf.Len()) / 20_000; perInstr > 8 {
		t.Errorf("trace uses %.1f bytes/instruction; expected compact encoding", perInstr)
	}

	// Replay must equal a fresh generation of the same stream.
	a2 := heap.New(heap.Config{})
	app2, _ := workload.Instantiate(workload.GCC(), a2, 0)
	fresh := app2.Stream()
	r, err := Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		got, ok := r.Next()
		if !ok {
			t.Fatalf("trace ended at %d", i)
		}
		want, _ := fresh.Next()
		if want.Kind == cpu.Compute && want.N < 1 {
			want.N = 1
		}
		if got != want {
			t.Fatalf("instr %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, ok := r.Next(); ok {
		t.Error("trace longer than recorded")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := Open(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Open(bytes.NewReader([]byte("MOCA"))); err == nil {
		t.Error("truncated header accepted")
	}
	bad := append([]byte(Magic), 99) // wrong version
	if _, err := Open(bytes.NewReader(bad)); err == nil {
		t.Error("wrong version accepted")
	}
	// Unknown opcode after a valid header.
	r := openV1(t, append([]byte(Magic), version1, 200))
	if _, ok := r.Next(); ok {
		t.Error("unknown opcode produced an instruction")
	}
	if r.Err() == nil {
		t.Error("no decode error reported")
	}
}

func TestTruncatedTraceStopsCleanly(t *testing.T) {
	data := encodeV1([]cpu.Instr{{Kind: cpu.Load, VAddr: 0x40, Obj: 1}})
	data = data[:len(data)-2] // drop the end marker and a byte
	r := openV1(t, data)
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	// A truncated tail is an error; a clean EOF right at an opcode
	// boundary would not be.
	if r.Err() == nil {
		t.Log("note: truncation landed on an opcode boundary")
	}
}

func TestAppendAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewBlockWriter(&buf)
	w.Close()
	if err := w.Append(cpu.Instr{Kind: cpu.Compute, N: 1}); err == nil {
		t.Error("append after close accepted")
	}
}

func TestLoopRestartsStream(t *testing.T) {
	var ins []cpu.Instr
	for i := 0; i < 5; i++ {
		ins = append(ins, cpu.Instr{Kind: cpu.Load, VAddr: uint64(i) * 64, Obj: 1})
	}
	data := encodeV1(ins)

	loop := NewLoop(func() (cpu.Stream, error) {
		return Open(bytes.NewReader(data))
	})
	var addrs []uint64
	for i := 0; i < 12; i++ {
		in, ok := loop.Next()
		if !ok {
			t.Fatalf("loop ended at %d", i)
		}
		addrs = append(addrs, in.VAddr)
	}
	for i := 0; i < 12; i++ {
		if addrs[i] != uint64(i%5)*64 {
			t.Fatalf("loop sequence wrong at %d: %v", i, addrs)
		}
	}
}

// TestLoopStopsOnDecodeError: a corrupt trace must terminate the loop
// with its decode error, not replay the valid prefix forever.
func TestLoopStopsOnDecodeError(t *testing.T) {
	var ins []cpu.Instr
	for i := 0; i < 3; i++ {
		ins = append(ins, cpu.Instr{Kind: cpu.Load, VAddr: uint64(i) * 64, Obj: 1})
	}
	data := encodeV1(ins)
	// Corrupt the end marker into an unknown opcode: the valid prefix
	// still decodes, then the stream errors instead of ending cleanly.
	data[len(data)-1] = 200

	opens := 0
	loop := NewLoop(func() (cpu.Stream, error) {
		opens++
		return Open(bytes.NewReader(data))
	})
	var n int
	for {
		if _, ok := loop.Next(); !ok {
			break
		}
		n++
		if n > 10 {
			t.Fatal("loop replays a corrupt trace forever")
		}
	}
	if n != 3 {
		t.Errorf("decoded %d instructions before the error, want 3", n)
	}
	if loop.Err() == nil {
		t.Error("loop swallowed the decode error")
	}
	if opens != 1 {
		t.Errorf("corrupt stream reopened %d times, want 1", opens)
	}
	// The loop stays terminated.
	if _, ok := loop.Next(); ok {
		t.Error("loop resumed after a terminal error")
	}
}

// TestLoopStopsOnTruncation: a trace cut off mid-record terminates the
// loop with an error rather than restarting.
func TestLoopStopsOnTruncation(t *testing.T) {
	data := encodeV1([]cpu.Instr{
		{Kind: cpu.Load, VAddr: 0x1234_5678, Obj: 7},
		{Kind: cpu.Load, VAddr: 0x9abc_def0, Obj: 9},
	})
	data = data[:len(data)-3] // cut into the last record's varints

	loop := NewLoop(func() (cpu.Stream, error) {
		return Open(bytes.NewReader(data))
	})
	for i := 0; ; i++ {
		if _, ok := loop.Next(); !ok {
			break
		}
		if i > 10 {
			t.Fatal("loop replays a truncated trace forever")
		}
	}
	if loop.Err() == nil {
		t.Error("loop swallowed the truncation error")
	}
}

// TestLoopReportsOpenError: a failing factory must surface its error.
func TestLoopReportsOpenError(t *testing.T) {
	wantErr := bytes.ErrTooLarge // any sentinel
	loop := NewLoop(func() (cpu.Stream, error) {
		return nil, wantErr
	})
	if _, ok := loop.Next(); ok {
		t.Fatal("failed open produced an instruction")
	}
	if err := loop.Err(); err == nil {
		t.Error("loop swallowed the open error")
	}
}

// Property: arbitrary instruction sequences survive the round trip.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		var ins []cpu.Instr
		var lastWasLoad bool
		for _, r := range raw {
			switch r % 3 {
			case 0:
				ins = append(ins, cpu.Instr{Kind: cpu.Compute, N: int32(r%1000) + 1})
				lastWasLoad = false
			case 1:
				ins = append(ins, cpu.Instr{
					Kind: cpu.Load, VAddr: uint64(r) * 13, Obj: uint64(r % 17),
					DependsOnPrev: lastWasLoad && r%2 == 0,
				})
				lastWasLoad = true
			case 2:
				ins = append(ins, cpu.Instr{Kind: cpu.Store, VAddr: uint64(r) * 7, Obj: uint64(r % 5)})
				lastWasLoad = false
			}
		}
		r, err := Open(bytes.NewReader(encodeV1(ins)))
		if err != nil {
			return false
		}
		for _, want := range ins {
			got, ok := r.Next()
			if !ok || got != want {
				return false
			}
		}
		_, ok := r.Next()
		return !ok && r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestV1Fixture pins v1 compatibility on a file the last v1 writer
// produced (`moca-trace record -app mcf -items 50000 -format v1`): it
// decodes to the mcf generator's stream, encodeV1 reproduces it byte for
// byte, and its v2 conversion decodes to the identical items.
func TestV1Fixture(t *testing.T) {
	fixture, err := os.ReadFile("testdata/mcf-50k.v1")
	if err != nil {
		t.Fatal(err)
	}
	r := openV1(t, fixture)
	var items []cpu.Instr
	for {
		in, ok := r.Next()
		if !ok {
			break
		}
		items = append(items, in)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if len(items) != 50_000 {
		t.Fatalf("fixture decodes to %d items, want 50000", len(items))
	}

	spec, _ := workload.ByName("mcf")
	app, err := workload.Instantiate(spec.ForInput(workload.Ref), heap.New(heap.Config{}), 0)
	if err != nil {
		t.Fatal(err)
	}
	fresh := app.Stream()
	for i, got := range items {
		want, _ := fresh.Next()
		if want.Kind == cpu.Compute && want.N < 1 {
			want.N = 1
		}
		if got != want {
			t.Fatalf("item %d: fixture %+v, generator %+v", i, got, want)
		}
	}

	if enc := encodeV1(items); !bytes.Equal(enc, fixture) {
		t.Fatalf("encodeV1 gives %d bytes, not the fixture's %d", len(enc), len(fixture))
	}

	var v2 bytes.Buffer
	w, _ := NewBlockWriter(&v2)
	if n, err := Copy(w, openV1(t, fixture)); err != nil || n != uint64(len(items)) {
		t.Fatalf("convert: %d items, %v", n, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	br, err := NewBlockReader(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameItems(t, drain(t, br), items, "v2 conversion of the v1 fixture")
	if err := br.Err(); err != nil {
		t.Fatal(err)
	}
}
