package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"moca/internal/cpu"
)

// genItems builds a deterministic pseudo-random instruction sequence with
// the motifs real workload streams have: compute gaps, strided and random
// accesses, dependent-load runs, occasional object switches.
func genItems(n int, seed int64) []cpu.Instr {
	rng := rand.New(rand.NewSource(seed))
	items := make([]cpu.Instr, 0, n)
	addr := uint64(0x1000_0000_0000)
	obj := uint64(3)
	for len(items) < n {
		switch rng.Intn(10) {
		case 0, 1, 2:
			items = append(items, cpu.Instr{Kind: cpu.Compute, N: int32(1 + rng.Intn(40))})
		case 3:
			obj = uint64(rng.Intn(12))
			addr = uint64(rng.Intn(1<<30)) << 6
			items = append(items, cpu.Instr{Kind: cpu.Store, VAddr: addr, Obj: obj})
		case 4:
			items = append(items, cpu.Instr{Kind: cpu.Load, VAddr: addr, Obj: obj, DependsOnPrev: true})
		default:
			addr += uint64(64 * (rng.Intn(5) + 1))
			k := cpu.Load
			if rng.Intn(5) == 0 {
				k = cpu.Store
			}
			items = append(items, cpu.Instr{Kind: k, VAddr: addr, Obj: obj})
		}
	}
	return items
}

// writeV2 encodes items as a v2 trace with the given block thresholds.
func writeV2(t *testing.T, items []cpu.Instr, blockItems int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewBlockWriterSize(&buf, blockItems, 0)
	if err != nil {
		t.Fatalf("NewBlockWriterSize: %v", err)
	}
	for _, in := range items {
		if err := w.Append(in); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func drain(t *testing.T, s cpu.Stream) []cpu.Instr {
	t.Helper()
	var out []cpu.Instr
	for {
		in, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, in)
	}
}

func sameItems(t *testing.T, got, want []cpu.Instr, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: item %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

func TestBlockRoundTrip(t *testing.T) {
	items := genItems(10_000, 1)
	data := writeV2(t, items, 512)

	r, err := NewBlockReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewBlockReader: %v", err)
	}
	sameItems(t, drain(t, r), items, "Next round trip")
	if err := r.Err(); err != nil {
		t.Fatalf("Err after clean drain: %v", err)
	}

	// Refill must yield the identical sequence.
	r2, _ := NewBlockReader(bytes.NewReader(data))
	var got []cpu.Instr
	buf := make([]cpu.Instr, 77)
	for {
		n := r2.Refill(buf)
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	sameItems(t, got, items, "Refill round trip")

	// Version dispatch: Open must land on the block reader for v2 and the
	// classic reader for v1.
	if s, err := Open(bytes.NewReader(data)); err != nil {
		t.Fatalf("Open(v2): %v", err)
	} else if _, ok := s.(*BlockReader); !ok {
		t.Fatalf("Open(v2) returned %T, want *BlockReader", s)
	}
	sameItems(t, drain(t, openV1(t, encodeV1(items[:100]))), items[:100], "Open(v1)")
}

func TestBlockWriterFlushBoundaries(t *testing.T) {
	// Mid-stream flushes change framing, never the decoded stream.
	items := genItems(1000, 2)
	var buf bytes.Buffer
	w, _ := NewBlockWriter(&buf)
	for i, in := range items {
		if err := w.Append(in); err != nil {
			t.Fatal(err)
		}
		if i%137 == 0 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, _ := NewBlockReader(bytes.NewReader(buf.Bytes()))
	sameItems(t, drain(t, r), items, "flush-heavy round trip")
}

func TestBlockReaderSkipTo(t *testing.T) {
	items := genItems(5000, 3)
	data := writeV2(t, items, 256)
	for _, seq := range []uint64{0, 1, 255, 256, 257, 1000, 4999, 5000} {
		r, _ := NewBlockReader(bytes.NewReader(data))
		if err := r.SkipTo(seq); err != nil {
			t.Fatalf("SkipTo(%d): %v", seq, err)
		}
		sameItems(t, drain(t, r), items[seq:], "suffix after SkipTo")
		if err := r.Err(); err != nil {
			t.Fatalf("Err after SkipTo(%d) drain: %v", seq, err)
		}
	}
	// Past the end and backwards are typed errors.
	r, _ := NewBlockReader(bytes.NewReader(data))
	if err := r.SkipTo(5001); !errors.Is(err, ErrBadPosition) {
		t.Fatalf("SkipTo past end: %v, want ErrBadPosition", err)
	}
	r2, _ := NewBlockReader(bytes.NewReader(data))
	r2.SkipTo(1000)
	drain(t, r2)
	if err := r2.SkipTo(10); !errors.Is(err, ErrBadPosition) {
		t.Fatalf("backwards SkipTo: %v, want ErrBadPosition", err)
	}
}

func TestOpenBlockReaderAt(t *testing.T) {
	items := genItems(4000, 4)
	data := writeV2(t, items, 300)

	// Every scanner-reported position must resume exactly there.
	sc, err := NewBlockScanner(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	positions := []Position{{}}
	for sc.Scan() {
		positions = append(positions, sc.NextPos())
	}
	if sc.Err() != nil {
		t.Fatalf("scan: %v", sc.Err())
	}
	total, ok := sc.Total()
	if !ok || total != uint64(len(items)) {
		t.Fatalf("scanner total = %d,%v, want %d", total, ok, len(items))
	}
	if len(positions) < 5 {
		t.Fatalf("expected several blocks, got %d", len(positions)-1)
	}
	for _, pos := range positions[:len(positions)-1] {
		r, err := OpenBlockReaderAt(bytes.NewReader(data), pos)
		if err != nil {
			t.Fatalf("OpenBlockReaderAt(%+v): %v", pos, err)
		}
		sameItems(t, drain(t, r), items[pos.Seq:], "resume suffix")
		if r.Err() != nil {
			t.Fatalf("resume drain: %v", r.Err())
		}
	}
	// The final position names the end frame: a cleanly exhausted reader.
	last := positions[len(positions)-1]
	r, err := OpenBlockReaderAt(bytes.NewReader(data), last)
	if err != nil {
		t.Fatalf("OpenBlockReaderAt(end): %v", err)
	}
	if got := drain(t, r); len(got) != 0 || r.Err() != nil {
		t.Fatalf("end position: %d items, err %v", len(got), r.Err())
	}

	// Garbage positions are typed errors, not misdecodes.
	bad := []Position{
		{ByteOff: positions[1].ByteOff + 1, Seq: positions[1].Seq}, // mid-frame
		{ByteOff: positions[1].ByteOff, Seq: positions[1].Seq + 7}, // wrong seq
		{ByteOff: 3, Seq: 0},                       // inside header
		{ByteOff: uint64(len(data)) + 100, Seq: 0}, // past EOF
	}
	for _, pos := range bad {
		if _, err := OpenBlockReaderAt(bytes.NewReader(data), pos); !errors.Is(err, ErrBadPosition) {
			t.Fatalf("OpenBlockReaderAt(%+v): %v, want ErrBadPosition", pos, err)
		}
	}
}

// corruptCRC flips a bit of blockIdx's stored checksum, returning the
// damaged copy — guaranteed ErrChecksum.
func corruptCRC(t *testing.T, data []byte, blockIdx int) []byte {
	t.Helper()
	sc, err := NewBlockScanner(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if !sc.Scan() {
			t.Fatalf("trace has fewer than %d blocks", blockIdx+1)
		}
		if i == blockIdx {
			info := sc.Info()
			frameLen := uint64(len(sc.Frame()))
			crcOff := info.Pos.ByteOff + frameLen - info.RawLen - 4
			out := append([]byte(nil), data...)
			out[crcOff] ^= 0x01
			return out
		}
	}
}

func TestBlockReaderChecksumMidStream(t *testing.T) {
	items := genItems(3000, 5)
	data := writeV2(t, items, 500) // 6 blocks
	damaged := corruptCRC(t, data, 2)

	r, _ := NewBlockReader(bytes.NewReader(damaged))
	got := drain(t, r)
	if len(got) != 1000 {
		t.Fatalf("decoded %d items before the corrupt block, want 1000", len(got))
	}
	sameItems(t, got, items[:1000], "prefix before corruption")
	if err := r.Err(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Err = %v, want ErrChecksum", err)
	}
}

// TestLoopSurfacesBlockChecksumError is the Loop contract for v2: a
// corrupted middle block must fail loudly through Err(), terminally — not
// silently end the pass early and restart, replaying the valid prefix
// forever.
func TestLoopSurfacesBlockChecksumError(t *testing.T) {
	items := genItems(1500, 6)
	data := writeV2(t, items, 500)
	damaged := corruptCRC(t, data, 1)

	opens := 0
	l := NewLoop(func() (cpu.Stream, error) {
		opens++
		return NewBlockReader(bytes.NewReader(damaged))
	})
	got := drain(t, l)
	if len(got) != 500 {
		t.Fatalf("loop yielded %d items, want 500 (first block only)", len(got))
	}
	if err := l.Err(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Loop.Err = %v, want ErrChecksum", err)
	}
	if opens != 1 {
		t.Fatalf("loop reopened a corrupt trace %d times, want 1", opens)
	}
	// And an intact trace still loops.
	l2 := NewLoop(func() (cpu.Stream, error) {
		return NewBlockReader(bytes.NewReader(data))
	})
	for i := 0; i < 2*len(items)+10; i++ {
		if _, ok := l2.Next(); !ok {
			t.Fatalf("intact loop ended at item %d: %v", i, l2.Err())
		}
	}
}

func TestBlockDecoderFrames(t *testing.T) {
	items := genItems(2000, 7)
	data := writeV2(t, items, 333)

	var dec BlockDecoder
	sc, _ := NewBlockScanner(bytes.NewReader(data))
	var got []cpu.Instr
	seq := uint64(0)
	for sc.Scan() {
		decoded, err := dec.DecodeFrame(sc.Frame(), seq)
		if err != nil {
			t.Fatalf("DecodeFrame at seq %d: %v", seq, err)
		}
		got = append(got, decoded...)
		seq += uint64(len(decoded))
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	sameItems(t, got, items, "frame-by-frame decode")

	// Gap and duplicate detection through expectSeq.
	sc2, _ := NewBlockScanner(bytes.NewReader(data))
	sc2.Scan()
	if _, err := dec.DecodeFrame(sc2.Frame(), 5); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeFrame with wrong expectSeq: %v, want ErrCorrupt", err)
	}
	// Truncated and padded frames are corrupt, not panics.
	frame := append([]byte(nil), sc2.Frame()...)
	if _, err := dec.DecodeFrame(frame[:len(frame)-2], 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated frame: %v, want ErrCorrupt", err)
	}
	if _, err := dec.DecodeFrame(append(frame, 0), 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("padded frame: %v, want ErrCorrupt", err)
	}
}

func TestBlockWriterReaderReset(t *testing.T) {
	items := genItems(800, 8)
	var buf1, buf2 bytes.Buffer
	w, _ := NewBlockWriterSize(&buf1, 100, 0)
	for _, in := range items {
		w.Append(in)
	}
	w.Close()
	if err := w.Reset(&buf2); err != nil {
		t.Fatal(err)
	}
	for _, in := range items {
		w.Append(in)
	}
	w.Close()
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("writer Reset did not reproduce identical bytes")
	}

	r, _ := NewBlockReader(bytes.NewReader(buf1.Bytes()))
	first := drain(t, r)
	if err := r.Reset(bytes.NewReader(buf2.Bytes())); err != nil {
		t.Fatal(err)
	}
	sameItems(t, drain(t, r), first, "reader Reset replay")
}

// TestV1V2V1RoundTrip is the conversion property: v1 → v2 → v1 must
// reproduce the original v1 file byte for byte (the v1 encoding is a pure
// function of the instruction sequence), and every representation decodes
// to the identical instruction stream.
func TestV1V2V1RoundTrip(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		items := genItems(3000, 100+seed)
		v1 := encodeV1(items)

		// v1 → v2
		var v2 bytes.Buffer
		w2, _ := NewBlockWriterSize(&v2, 700, 0)
		if n, err := Copy(w2, openV1(t, v1)); err != nil || n != uint64(len(items)) {
			t.Fatalf("v1→v2 copy: n=%d err=%v", n, err)
		}
		w2.Close()

		// v2 → v1 again
		r2, _ := NewBlockReader(bytes.NewReader(v2.Bytes()))
		if v1b := encodeV1(drain(t, r2)); !bytes.Equal(v1, v1b) {
			t.Fatalf("seed %d: v1→v2→v1 is not byte-identical (%d vs %d bytes)",
				seed, len(v1), len(v1b))
		}
		rd, _ := NewBlockReader(bytes.NewReader(v2.Bytes()))
		sameItems(t, drain(t, rd), items, "v2 decode of converted trace")
	}
}

// lzEraFrame hand-builds the block frame an older writer would have
// produced: method 1 is its LZ encoding of 16 compute items (one literal
// pair, then a 30-byte overlapping back-reference), method 0 stores the
// same payload raw but declares a stored length of compLen.
func lzEraFrame(method byte, compLen uint64) []byte {
	raw := bytes.Repeat([]byte{opCompute, 5}, 16)
	payload := raw
	if method == 1 {
		payload = []byte{2, opCompute, 5, 2, 26, 0}
	}
	f := []byte{blockMarker}
	f = binary.AppendUvarint(f, 0)
	f = binary.AppendUvarint(f, 16)
	f = binary.AppendUvarint(f, uint64(len(raw)))
	f = binary.AppendUvarint(f, compLen)
	f = append(f, method)
	f = binary.LittleEndian.AppendUint32(f, crc32.Checksum(raw, castagnoli))
	return append(f, payload...)
}

// lzEraTraces returns the two LZ-era frames, each alone and wrapped into
// a complete v2 trace (header, frame, end frame).
func lzEraTraces() (frames, traces [][]byte) {
	for _, f := range [][]byte{lzEraFrame(1, 6), lzEraFrame(0, 31)} {
		tr := append([]byte(Magic), version2)
		tr = append(tr, f...)
		tr = append(tr, endMarker, 16)
		frames = append(frames, f)
		traces = append(traces, tr)
	}
	return frames, traces
}

// TestLZEraFramesRejected: a method-1 (LZ) block and a block whose stored
// length differs from its raw length are corrupt on every read path —
// typed ErrCorrupt, no panic, no hang — and the LZ one says why.
func TestLZEraFramesRejected(t *testing.T) {
	frames, traces := lzEraTraces()
	for i, data := range traces {
		check := func(path string, err error) {
			t.Helper()
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("frame %d, %s: %v, want ErrCorrupt", i, path, err)
			}
			if i == 0 && !strings.Contains(err.Error(), "re-record") {
				t.Errorf("frame %d, %s: %q does not say to re-record", i, path, err)
			}
		}
		r, err := NewBlockReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if got := drain(t, r); len(got) != 0 {
			t.Fatalf("frame %d: BlockReader decoded %d items", i, len(got))
		}
		check("BlockReader", r.Err())

		sc, err := NewBlockScanner(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if sc.Scan() {
			t.Fatalf("frame %d: BlockScanner accepted the frame", i)
		}
		check("BlockScanner", sc.Err())

		for _, seq := range []uint64{3, 16} { // inside, and past, the block
			r, _ := NewBlockReader(bytes.NewReader(data))
			check(fmt.Sprintf("SkipTo(%d)", seq), r.SkipTo(seq))
		}

		var dec BlockDecoder
		_, err = dec.DecodeFrame(frames[i], 0)
		check("DecodeFrame", err)
	}
}
