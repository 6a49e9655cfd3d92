package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"moca/internal/cpu"
)

// fuzzSeedTrace builds a small valid trace in the requested version for
// seeding the fuzz corpora.
func fuzzSeedTrace(version int) []byte {
	items := []cpu.Instr{
		{Kind: cpu.Compute, N: 12},
		{Kind: cpu.Load, VAddr: 0x1000_0000_0000, Obj: 5},
		{Kind: cpu.Load, VAddr: 0x1000_0000_0040, Obj: 5, DependsOnPrev: true},
		{Kind: cpu.Store, VAddr: 0x1000_0000_0080, Obj: 5},
		{Kind: cpu.Compute, N: 3},
	}
	if version == 1 {
		return encodeV1(items)
	}
	// Two items per block so the seed spans several block frames.
	var buf bytes.Buffer
	w, err := NewBlockWriterSize(&buf, 2, 0)
	if err != nil {
		panic(err)
	}
	for _, in := range items {
		if err := w.Append(in); err != nil {
			panic(err)
		}
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReader feeds arbitrary bytes to the version-dispatching trace
// decoder (Open): it must never panic, never loop forever, and always
// either produce instructions or stop with done/Err. Corruption seeds
// cover both formats — flipped payload bytes (v2: checksum mismatch),
// truncated block frames, bad markers, and hostile header fields.
func FuzzReader(f *testing.F) {
	v1 := fuzzSeedTrace(1)
	v2 := fuzzSeedTrace(2)
	f.Add(v1)
	f.Add(v2)
	f.Add(v1[:len(v1)-3])
	f.Add(v2[:len(v2)-3])   // truncated: missing end frame tail
	f.Add(v2[:headerLen+4]) // truncated mid block header
	f.Add([]byte(Magic))
	f.Add([]byte{})
	for _, seed := range [][]byte{v1, v2} {
		corrupt := append([]byte{}, seed...)
		corrupt[len(corrupt)/2] ^= 0xFF // payload damage: v2 must report ErrChecksum/ErrCorrupt
		f.Add(corrupt)
		corrupt2 := append([]byte{}, seed...)
		corrupt2[headerLen] ^= 0xFF // bad first marker/opcode
		f.Add(corrupt2)
	}
	// Degenerate hand-crafted streams: a zero-length trace (header only,
	// no end marker), truncated varints (a continuation bit with nothing
	// after it), a zero-count compute batch, and a bad version byte.
	f.Add([]byte(Magic + "\x01"))
	f.Add([]byte(Magic + "\x01\x00\x80"))
	f.Add([]byte(Magic + "\x01\x01\x80\x80\x80"))
	f.Add([]byte(Magic + "\x01\x00\x00\xff"))
	f.Add([]byte(Magic + "\x00"))
	// v2 degenerates: empty trace, block claiming absurd counts/lengths,
	// end frame with a wrong total.
	f.Add([]byte(Magic + "\x02"))
	f.Add([]byte(Magic + "\x02\xe2\x00"))
	f.Add([]byte(Magic + "\x02\xe2\x05"))
	f.Add([]byte(Magic + "\x02\xb2\x00\xff\xff\xff\x7f\x01\x01\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte(Magic + "\x02\xb2\x00\x01\xff\xff\xff\x7f\x01\x00\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Open(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Bound the loop far above any decodable count to catch livelock.
		// v1 spends at least one input byte per instruction; a v2 block
		// frame spends at least ~10 bytes and can decode to at most
		// maxBlockItems instructions.
		bound := (len(data)/10+1)*maxBlockItems + len(data) + 8
		for i := 0; i <= bound; i++ {
			in, ok := r.Next()
			if !ok {
				return
			}
			if in.Kind == cpu.Compute && in.N < 1 {
				t.Fatalf("decoded compute batch with N=%d", in.N)
			}
		}
		t.Fatalf("decoder produced more instructions than input could encode")
	})
}

// FuzzBlockSeek opens arbitrary bytes at an arbitrary Position: resuming
// at garbage must fail with a typed error (ErrBadPosition, ErrCorrupt,
// ErrChecksum, or a version error), never panic, and a reader that does
// open must replay without livelock. SkipTo is probed the same way.
func FuzzBlockSeek(f *testing.F) {
	v2 := fuzzSeedTrace(2)
	f.Add(v2, uint64(0), uint64(0), uint64(2))
	f.Add(v2, uint64(headerLen), uint64(0), uint64(4))
	f.Add(v2, uint64(len(v2)-2), uint64(5), uint64(5))
	f.Add(v2, uint64(13), uint64(2), uint64(3)) // mid-stream boundary guess
	f.Add(v2[:len(v2)-4], uint64(13), uint64(2), uint64(9))
	f.Add([]byte(Magic+"\x02"), uint64(1<<40), uint64(1<<40), uint64(0))
	_, lzEra := lzEraTraces()
	for _, data := range lzEra {
		f.Add(data, uint64(0), uint64(0), uint64(3))
	}

	f.Fuzz(func(t *testing.T, data []byte, byteOff, seq, skip uint64) {
		r, err := OpenBlockReaderAt(bytes.NewReader(data), Position{ByteOff: byteOff, Seq: seq})
		if err != nil {
			return
		}
		if err := r.SkipTo(seq + skip%maxBlockItems); err != nil {
			if !errors.Is(err, ErrBadPosition) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrChecksum) {
				t.Fatalf("SkipTo: untyped error %v", err)
			}
			return
		}
		bound := (len(data)/10+1)*maxBlockItems + 8
		for i := 0; i <= bound; i++ {
			if _, ok := r.Next(); !ok {
				return
			}
		}
		t.Fatalf("seeked reader produced more instructions than input could encode")
	})
}

// FuzzDecodeFrame feeds arbitrary standalone block frames to the wire
// decoder used by the simulation server: it must never panic and must
// reject anything that is not a complete, checksummed frame starting at
// the expected sequence number.
func FuzzDecodeFrame(f *testing.F) {
	v2 := fuzzSeedTrace(2)
	// Extract the real frames from the seed trace as valid corpus entries.
	sc, err := NewBlockScanner(bytes.NewReader(v2))
	if err != nil {
		f.Fatal(err)
	}
	for sc.Scan() {
		frame := append([]byte{}, sc.Frame()...)
		f.Add(frame, sc.Info().Pos.Seq)
		corrupt := append([]byte{}, frame...)
		corrupt[len(corrupt)-1] ^= 0xFF
		f.Add(corrupt, sc.Info().Pos.Seq)
		f.Add(frame, sc.Info().Pos.Seq+1) // wrong expectSeq
		f.Add(frame[:len(frame)-2], sc.Info().Pos.Seq)
	}
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{blockMarker}, uint64(0))
	lzEra, _ := lzEraTraces()
	for _, frame := range lzEra {
		f.Add(frame, uint64(0))
	}

	f.Fuzz(func(t *testing.T, frame []byte, expectSeq uint64) {
		var d BlockDecoder
		items, err := d.DecodeFrame(frame, expectSeq)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrChecksum) {
				t.Fatalf("DecodeFrame: untyped error %v", err)
			}
			return
		}
		if len(items) == 0 {
			t.Fatal("DecodeFrame returned no error and no items")
		}
		// A frame that decodes must re-encode its claimed seq consistently:
		// the header's count matches the decoded length.
		var fields [4]uint64
		p := 1
		for i := range fields {
			v, w := binary.Uvarint(frame[p:])
			fields[i] = v
			p += w
		}
		if fields[0] != expectSeq || int(fields[1]) != len(items) {
			t.Fatalf("decoded %d items from frame claiming seq %d count %d (expectSeq %d)",
				len(items), fields[0], fields[1], expectSeq)
		}
	})
}
