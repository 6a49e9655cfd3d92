package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"moca/internal/cpu"
)

// block.go is trace format v2: the same delta/varint instruction encoding
// as v1, framed into independently decodable blocks. The file opens with
// the shared magic and a version byte of 2, then carries a sequence of
// block frames and one end frame:
//
//	byte    0xB2       block marker
//	uvarint seq        stream index of the block's first item
//	uvarint count      items in the block (>= 1)
//	uvarint rawLen     payload bytes
//	uvarint compLen    payload bytes again (must equal rawLen)
//	byte    0          reserved (must be 0)
//	u32le   checksum   CRC-32C (Castagnoli) of the payload
//	[]byte  payload    rawLen bytes
//
//	byte    0xE2       end marker
//	uvarint total      total items in the trace (== the final seq)
//
// The reserved byte and the repeated length are where older writers put a
// compression method and the compressed size. Payloads are always stored
// as they are now; a block with method 1 (LZ) is rejected as corrupt and
// its trace must be re-recorded.
//
// The delta state (last address, last object) resets at every block
// boundary, so a block decodes with no context beyond its own bytes: a
// reader can seek to any recorded Position{ByteOff, Seq} and resume
// without replaying the prefix, and a remote peer can decode block frames
// shipped individually over the wire. Within a block the item encoding is
// exactly v1's opcode + varint scheme (minus the end opcode; count bounds
// the decode).
const (
	version2 = 2

	blockMarker = 0xB2
	endMarker   = 0xE2

	headerLen = len(Magic) + 1

	// Hostile-input bounds: a decoder never allocates more than one
	// block's worth of buffers, whatever a corrupt header claims.
	maxBlockItems = 1 << 20
	maxBlockBytes = 1 << 24

	defaultBlockItems = 16 << 10
	defaultBlockBytes = 256 << 10
)

// Typed decode errors for the block format. They surface through
// BlockReader.Err (and therefore through Loop.Err) wrapped with position
// context; match with errors.Is.
var (
	// ErrCorrupt: a block frame is structurally invalid — bad marker,
	// absurd header fields, discontinuous sequence numbers, a truncated or
	// malformed payload.
	ErrCorrupt = errors.New("trace: corrupt block")
	// ErrChecksum: a block decoded structurally but its payload fails the
	// CRC — the trace bytes were damaged in storage or transit.
	ErrChecksum = errors.New("trace: block checksum mismatch")
	// ErrBadPosition: a Position handed to OpenBlockReaderAt or SkipTo
	// does not name a block boundary of this trace.
	ErrBadPosition = errors.New("trace: position is not a block boundary")

	// errLZBlock is the ErrCorrupt a method-1 block gets.
	errLZBlock = fmt.Errorf("%w: LZ-compressed block from an older writer; re-record the trace", ErrCorrupt)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Position identifies a block boundary in a v2 trace: the file offset of
// the block's marker byte and the stream index of its first item. The
// zero Position means the start of the trace. Positions are produced by
// BlockWriter.Pos, BlockScanner, and BlockReader, and consumed by
// OpenBlockReaderAt — resuming there replays exactly the items from Seq
// onward, with no prefix decode.
type Position struct {
	ByteOff uint64
	Seq     uint64
}

// IsZero reports whether p is the zero (start-of-trace) position.
func (p Position) IsZero() bool { return p.ByteOff == 0 && p.Seq == 0 }

// item encoding (shared with v1, block-local delta state)

// appendItem appends the v1 opcode+varint encoding of in, delta-encoding
// addresses and objects against (*lastAddr, *lastObj).
func appendItem(dst []byte, in cpu.Instr, lastAddr, lastObj *uint64) ([]byte, error) {
	switch in.Kind {
	case cpu.Compute:
		n := in.N
		if n < 1 {
			n = 1
		}
		dst = append(dst, opCompute)
		dst = binary.AppendUvarint(dst, uint64(n))
	case cpu.Load, cpu.Store:
		op := byte(opStore)
		if in.Kind == cpu.Load {
			if in.DependsOnPrev {
				op = opLoadDep
			} else {
				op = opLoad
			}
		}
		dst = append(dst, op)
		dst = binary.AppendVarint(dst, int64(in.VAddr)-int64(*lastAddr))
		dst = binary.AppendVarint(dst, int64(in.Obj)-int64(*lastObj))
		*lastAddr, *lastObj = in.VAddr, in.Obj
	default:
		return dst, fmt.Errorf("trace: unknown instruction kind %d", in.Kind)
	}
	return dst, nil
}

// decodeItems decodes exactly len(dst) items from data into dst, with the
// block-local delta state starting at zero. The payload must be consumed
// exactly; anything else is ErrCorrupt.
//
// The varint decodes are open-coded with 1- and 2-byte fast paths:
// block-local deltas keep most values that short, and a call into
// binary.Uvarint per field would dominate the per-item cost (this loop
// feeds the simulator's batch refill, so its speed is the v2 replay
// rate).
//
//moca:hotpath
func decodeItems(data []byte, dst []cpu.Instr) error {
	var lastAddr, lastObj uint64
	p := 0
	for i := range dst {
		if p >= len(data) {
			return ErrCorrupt
		}
		op := data[p]
		p++
		if op == opCompute {
			var n uint64
			if p < len(data) && data[p] < 0x80 {
				n = uint64(data[p])
				p++
			} else {
				v, w := binary.Uvarint(data[p:])
				if w <= 0 {
					return ErrCorrupt
				}
				n, p = v, p+w
			}
			if n < 1 {
				n = 1
			}
			if n > 1<<30 {
				return ErrCorrupt
			}
			dst[i] = cpu.Instr{Kind: cpu.Compute, N: int32(n)}
			continue
		}
		if op > opStore {
			return ErrCorrupt
		}
		var uAddr, uObj uint64
		if p+7 < len(data) {
			if c := data[p]; c < 0x80 {
				uAddr = uint64(c)
				p++
			} else if c1 := data[p+1]; c1 < 0x80 {
				uAddr = uint64(c&0x7f) | uint64(c1)<<7
				p += 2
			} else if c2 := data[p+2]; c2 < 0x80 {
				uAddr = uint64(c&0x7f) | uint64(c1&0x7f)<<7 | uint64(c2)<<14
				p += 3
			} else if c3 := data[p+3]; c3 < 0x80 {
				uAddr = uint64(c&0x7f) | uint64(c1&0x7f)<<7 | uint64(c2&0x7f)<<14 | uint64(c3)<<21
				p += 4
			} else if c4 := data[p+4]; c4 < 0x80 {
				// Heap-spanning deltas zigzag into 5-7 byte varints; keeping
				// them on the open-coded path matters for pointer-chasing
				// traces (mcf), whose strides cover the whole arena.
				uAddr = uint64(c&0x7f) | uint64(c1&0x7f)<<7 | uint64(c2&0x7f)<<14 |
					uint64(c3&0x7f)<<21 | uint64(c4)<<28
				p += 5
			} else if c5 := data[p+5]; c5 < 0x80 {
				uAddr = uint64(c&0x7f) | uint64(c1&0x7f)<<7 | uint64(c2&0x7f)<<14 |
					uint64(c3&0x7f)<<21 | uint64(c4&0x7f)<<28 | uint64(c5)<<35
				p += 6
			} else if c6 := data[p+6]; c6 < 0x80 {
				uAddr = uint64(c&0x7f) | uint64(c1&0x7f)<<7 | uint64(c2&0x7f)<<14 |
					uint64(c3&0x7f)<<21 | uint64(c4&0x7f)<<28 | uint64(c5&0x7f)<<35 |
					uint64(c6)<<42
				p += 7
			} else {
				v, w := binary.Uvarint(data[p:])
				if w <= 0 {
					return ErrCorrupt
				}
				uAddr, p = v, p+w
			}
		} else {
			v, w := binary.Uvarint(data[p:])
			if w <= 0 {
				return ErrCorrupt
			}
			uAddr, p = v, p+w
		}
		if p+1 < len(data) && data[p] < 0x80 {
			uObj = uint64(data[p])
			p++
		} else if p+2 < len(data) && data[p+1] < 0x80 {
			uObj = uint64(data[p]&0x7f) | uint64(data[p+1])<<7
			p += 2
		} else {
			v, w := binary.Uvarint(data[p:])
			if w <= 0 {
				return ErrCorrupt
			}
			uObj, p = v, p+w
		}
		// Zigzag-decode the deltas (binary.Varint's wire format).
		lastAddr += uint64(int64(uAddr>>1) ^ -int64(uAddr&1))
		lastObj += uint64(int64(uObj>>1) ^ -int64(uObj&1))
		// Branchless opcode mapping: opLoad(1) and opLoadDep(2) both fold
		// to cpu.Load(1), opStore(3) to cpu.Store(2) — see the compile-time
		// guards below the function.
		dst[i] = cpu.Instr{
			Kind:          cpu.Kind((op + 1) >> 1),
			DependsOnPrev: op == opLoadDep,
			VAddr:         lastAddr,
			Obj:           lastObj,
		}
	}
	if p != len(data) {
		return ErrCorrupt
	}
	return nil
}

// Compile-time guards for decodeItems's branchless opcode-to-kind
// mapping: (op+1)>>1 must take opLoad and opLoadDep to cpu.Load and
// opStore to cpu.Store.
var (
	_ = [1]struct{}{}[(opLoad+1)>>1-int(cpu.Load)]
	_ = [1]struct{}{}[(opLoadDep+1)>>1-int(cpu.Load)]
	_ = [1]struct{}{}[(opStore+1)>>1-int(cpu.Store)]
)

// BlockWriter

// BlockWriter streams instructions to a v2 block trace. Blocks are cut at
// an item-count or raw-byte threshold and written as one Write each; Close
// appends the end frame.
type BlockWriter struct {
	w      io.Writer
	closed bool

	off      uint64 // file offset of the next byte to be written
	seq      uint64 // total items appended (== next block's first seq)
	blockSeq uint64 // first seq of the open block

	itemLimit int
	byteLimit int

	raw      []byte // open block's item encoding
	count    uint64 // items in the open block
	lastAddr uint64
	lastObj  uint64

	frame []byte // assembled frame scratch (header + payload)
}

// NewBlockWriter writes the v2 header and returns a writer with the
// default block thresholds (16Ki items or 256 KiB raw, whichever first).
func NewBlockWriter(w io.Writer) (*BlockWriter, error) {
	return NewBlockWriterSize(w, 0, 0)
}

// NewBlockWriterSize is NewBlockWriter with explicit block thresholds
// (items, rawBytes; zero or negative selects the default). Small blocks
// seek finer but cost more framing bytes.
func NewBlockWriterSize(w io.Writer, items, rawBytes int) (*BlockWriter, error) {
	if items <= 0 {
		items = defaultBlockItems
	}
	if items > maxBlockItems {
		items = maxBlockItems
	}
	if rawBytes <= 0 {
		rawBytes = defaultBlockBytes
	}
	bw := &BlockWriter{w: w, itemLimit: items, byteLimit: rawBytes}
	if err := bw.writeHeader(); err != nil {
		return nil, err
	}
	return bw, nil
}

func (b *BlockWriter) writeHeader() error {
	var hdr [headerLen]byte
	copy(hdr[:], Magic)
	hdr[len(Magic)] = version2
	if _, err := b.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	b.off = uint64(headerLen)
	return nil
}

// Reset discards all writer state and starts a fresh trace on w.
func (b *BlockWriter) Reset(w io.Writer) error {
	b.w = w
	b.closed = false
	b.seq, b.blockSeq = 0, 0
	b.raw = b.raw[:0]
	b.count = 0
	b.lastAddr, b.lastObj = 0, 0
	return b.writeHeader()
}

// Append records one instruction, cutting a block when a threshold is
// reached.
func (b *BlockWriter) Append(in cpu.Instr) error {
	if b.closed {
		return fmt.Errorf("trace: append after Close")
	}
	var err error
	b.raw, err = appendItem(b.raw, in, &b.lastAddr, &b.lastObj)
	if err != nil {
		return err
	}
	b.count++
	b.seq++
	if b.count >= uint64(b.itemLimit) || len(b.raw) >= b.byteLimit {
		return b.Flush()
	}
	return nil
}

// Count returns the number of recorded items.
func (b *BlockWriter) Count() uint64 { return b.seq }

// Pos returns the position of the next block boundary. After Flush (or
// before any Append since the last one) it is a durable resume point.
func (b *BlockWriter) Pos() Position { return Position{ByteOff: b.off, Seq: b.blockSeq + b.count} }

// Flush cuts the open block, if any, ending it early. Mid-stream flushes
// only affect framing granularity, never the decoded instruction stream.
func (b *BlockWriter) Flush() error {
	if b.count == 0 {
		return nil
	}
	f := b.frame[:0]
	f = append(f, blockMarker)
	f = binary.AppendUvarint(f, b.blockSeq)
	f = binary.AppendUvarint(f, b.count)
	f = binary.AppendUvarint(f, uint64(len(b.raw)))
	f = binary.AppendUvarint(f, uint64(len(b.raw)))
	f = append(f, 0)
	f = binary.LittleEndian.AppendUint32(f, crc32.Checksum(b.raw, castagnoli))
	f = append(f, b.raw...)
	b.frame = f
	if _, err := b.w.Write(f); err != nil {
		return fmt.Errorf("trace: writing block: %w", err)
	}
	b.off += uint64(len(f))
	b.blockSeq += b.count
	b.count = 0
	b.raw = b.raw[:0]
	b.lastAddr, b.lastObj = 0, 0
	return nil
}

// Close flushes the open block and writes the end frame.
func (b *BlockWriter) Close() error {
	if b.closed {
		return nil
	}
	if err := b.Flush(); err != nil {
		return err
	}
	b.closed = true
	f := b.frame[:0]
	f = append(f, endMarker)
	f = binary.AppendUvarint(f, b.seq)
	b.frame = f
	if _, err := b.w.Write(f); err != nil {
		return fmt.Errorf("trace: writing end frame: %w", err)
	}
	b.off += uint64(len(f))
	return nil
}

// Copy drains src into dst: it converts a v1 trace to v2, or re-frames a
// v2 trace with dst's block thresholds. It stops at stream end and returns
// the number of items copied; the caller closes dst. When src is a
// ReplayStream, a decode error surfaces as Copy's error rather than a
// silent short copy.
func Copy(dst *BlockWriter, src cpu.Stream) (uint64, error) {
	var n uint64
	for {
		in, ok := src.Next()
		if !ok {
			break
		}
		if err := dst.Append(in); err != nil {
			return n, err
		}
		n++
	}
	if rs, ok := src.(ReplayStream); ok {
		if err := rs.Err(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// blockSource: the one frame walker

// blockSource reads from a bufio.Reader while tracking the logical file
// offset of every consumed byte (bufio's read-ahead is invisible to it)
// and optionally capturing consumed header bytes into a frame buffer.
// BlockReader and BlockScanner walk a trace through its open, seek, next
// and payload methods, so the framing rules live in one place.
type blockSource struct {
	br  *bufio.Reader
	off uint64
	cap *[]byte // when non-nil, bytes consumed by ReadByte are appended here
}

func (s *blockSource) ReadByte() (byte, error) {
	c, err := s.br.ReadByte()
	if err != nil {
		return 0, err
	}
	s.off++
	if s.cap != nil {
		*s.cap = append(*s.cap, c)
	}
	return c, nil
}

// uvarint reads one uvarint, mapping every fault (truncation, overflow)
// to ErrCorrupt.
func (s *blockSource) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(s)
	if err != nil {
		return 0, ErrCorrupt
	}
	return v, nil
}

// open points the source at the start of r, reusing its bufio.Reader when
// it has one, and consumes the file header. It returns the version byte,
// which must be 1 or 2.
func (s *blockSource) open(r io.Reader) (byte, error) {
	if s.br == nil {
		s.br = bufio.NewReader(r)
	} else {
		s.br.Reset(r)
	}
	s.off = 0
	// Byte-wise read: a heap header buffer here would cost an allocation
	// on every reader Reset (looping replay resets once per pass).
	var hdr [headerLen]byte
	for i := range hdr {
		c, err := s.ReadByte()
		if err != nil {
			return 0, fmt.Errorf("trace: reading header: %w", err)
		}
		hdr[i] = c
	}
	if string(hdr[:len(Magic)]) != Magic {
		// Copy before formatting: handing hdr itself to fmt would make the
		// array escape and allocate on the no-error path too.
		bad := string(hdr[:len(Magic)])
		return 0, fmt.Errorf("trace: bad magic %q", bad)
	}
	ver := hdr[len(Magic)]
	if ver != version1 && ver != version2 {
		return 0, fmt.Errorf("trace: unsupported version %d", ver)
	}
	return ver, nil
}

// openV2 is open for the block-format readers, which refuse v1.
func (s *blockSource) openV2(r io.Reader) error {
	ver, err := s.open(r)
	if err == nil && ver != version2 {
		err = fmt.Errorf("trace: version %d trace, want %d (Open reads both versions)", ver, version2)
	}
	return err
}

// seek moves an opened source to a recorded block boundary. The zero
// Position is the first block, where open already left the source.
func (s *blockSource) seek(rs io.ReadSeeker, pos Position) error {
	if pos.IsZero() {
		return nil
	}
	if pos.ByteOff < uint64(headerLen) {
		return fmt.Errorf("%w: byte offset %d is inside the file header", ErrBadPosition, pos.ByteOff)
	}
	if _, err := rs.Seek(int64(pos.ByteOff), io.SeekStart); err != nil {
		return fmt.Errorf("%w: %v", ErrBadPosition, err)
	}
	s.br.Reset(rs)
	s.off = pos.ByteOff
	return nil
}

// blockHdr is one parsed block frame header.
type blockHdr struct {
	pos     Position
	count   uint64
	rawLen  uint64
	compLen uint64
	method  byte
	crc     uint32
}

func (h blockHdr) validate() error {
	if h.count == 0 || h.count > maxBlockItems {
		return ErrCorrupt
	}
	if h.rawLen == 0 || h.rawLen > maxBlockBytes {
		return ErrCorrupt
	}
	if h.method == 1 {
		return errLZBlock
	}
	if h.method != 0 || h.compLen != h.rawLen {
		return ErrCorrupt
	}
	return nil
}

// readHdr parses the header fields following a block marker already
// consumed at offset start.
func (s *blockSource) readHdr(start uint64) (blockHdr, error) {
	var h blockHdr
	var err error
	h.pos.ByteOff = start
	if h.pos.Seq, err = s.uvarint(); err != nil {
		return h, err
	}
	if h.count, err = s.uvarint(); err != nil {
		return h, err
	}
	if h.rawLen, err = s.uvarint(); err != nil {
		return h, err
	}
	if h.compLen, err = s.uvarint(); err != nil {
		return h, err
	}
	if h.method, err = s.ReadByte(); err != nil {
		return h, ErrCorrupt
	}
	// Byte-wise little-endian read: a [4]byte here would escape through
	// io.ReadFull and put one allocation on every block load.
	for i := 0; i < 32; i += 8 {
		c, err := s.ReadByte()
		if err != nil {
			return h, ErrCorrupt
		}
		h.crc |= uint32(c) << i
	}
	return h, h.validate()
}

// next reads the frame at the source's position up to its payload: the
// marker, then either the end frame, whose total must be nextSeq, or a
// block header, which must be valid and start at item nextSeq. end
// reports a valid end frame; a block's payload is left unread. Every
// fault is a typed error carrying the frame's offset.
func (s *blockSource) next(nextSeq uint64) (h blockHdr, end bool, err error) {
	start := s.off
	marker, err := s.ReadByte()
	if err != nil {
		return h, false, fmt.Errorf("%w: offset %d: missing end frame: %v", ErrCorrupt, start, err)
	}
	switch marker {
	case endMarker:
		total, err := s.uvarint()
		if err != nil || total != nextSeq {
			return h, false, fmt.Errorf("%w: offset %d: bad end frame", ErrCorrupt, start)
		}
		return h, true, nil
	case blockMarker:
		if h, err = s.readHdr(start); err != nil {
			return h, false, fmt.Errorf("%w: block at offset %d", err, start)
		}
		if h.pos.Seq != nextSeq {
			return h, false, fmt.Errorf("%w: block at offset %d starts at item %d, expected %d", ErrCorrupt, start, h.pos.Seq, nextSeq)
		}
		return h, false, nil
	default:
		return h, false, fmt.Errorf("%w: offset %d: bad block marker 0x%02x", ErrCorrupt, start, marker)
	}
}

// payload appends the payload of the block whose header next just read
// to dst, growing it at most to the header's (bounded) length.
func (s *blockSource) payload(h blockHdr, dst []byte) ([]byte, error) {
	n := len(dst)
	need := n + int(h.rawLen)
	if cap(dst) < need {
		grown := make([]byte, n, need)
		copy(grown, dst)
		dst = grown
	}
	if _, err := io.ReadFull(s.br, dst[n:need]); err != nil {
		return dst, fmt.Errorf("%w: block at offset %d: truncated payload: %v", ErrCorrupt, h.pos.ByteOff, err)
	}
	s.off += h.rawLen
	return dst[:need], nil
}

// skip discards the payload of the block whose header next just read.
func (s *blockSource) skip(h blockHdr) error {
	d, err := s.br.Discard(int(h.rawLen))
	s.off += uint64(d)
	if err != nil {
		return fmt.Errorf("%w: block at offset %d: truncated payload: %v", ErrCorrupt, h.pos.ByteOff, err)
	}
	return nil
}

// BlockDecoder

// BlockDecoder decodes standalone block frames (as captured by a
// BlockScanner or shipped over the wire) into a reusable instruction
// arena. The zero value is ready to use; it is not safe for concurrent
// use.
type BlockDecoder struct {
	arena []cpu.Instr
}

// decode checksums and decodes one block payload. The returned slice
// aliases the decoder's arena: valid until the next call.
func (d *BlockDecoder) decode(h blockHdr, payload []byte) ([]cpu.Instr, error) {
	if crc32.Checksum(payload, castagnoli) != h.crc {
		return nil, ErrChecksum
	}
	if cap(d.arena) < int(h.count) {
		d.arena = make([]cpu.Instr, int(h.count))
	}
	arena := d.arena[:h.count]
	if err := decodeItems(payload, arena); err != nil {
		return nil, err
	}
	return arena, nil
}

// DecodeFrame decodes one complete block frame (marker through payload).
// expectSeq is the stream index the block must start at — a peer feeding
// a simulation uses it to enforce gap-free, duplicate-free delivery. The
// returned items alias the decoder's arena and are valid until the next
// call.
func (d *BlockDecoder) DecodeFrame(frame []byte, expectSeq uint64) ([]cpu.Instr, error) {
	if len(frame) == 0 || frame[0] != blockMarker {
		return nil, ErrCorrupt
	}
	p := 1
	var fields [4]uint64
	for i := range fields {
		v, w := binary.Uvarint(frame[p:])
		if w <= 0 {
			return nil, ErrCorrupt
		}
		fields[i] = v
		p += w
	}
	if len(frame) < p+5 {
		return nil, ErrCorrupt
	}
	h := blockHdr{
		pos:     Position{Seq: fields[0]},
		count:   fields[1],
		rawLen:  fields[2],
		compLen: fields[3],
		method:  frame[p],
		crc:     binary.LittleEndian.Uint32(frame[p+1 : p+5]),
	}
	p += 5
	if err := h.validate(); err != nil {
		return nil, err
	}
	if h.pos.Seq != expectSeq {
		return nil, fmt.Errorf("%w: block starts at item %d, expected %d", ErrCorrupt, h.pos.Seq, expectSeq)
	}
	if uint64(len(frame)-p) != h.rawLen {
		return nil, ErrCorrupt
	}
	return d.decode(h, frame[p:])
}

// BlockReader

// BlockReader replays a v2 trace as a cpu.Stream. Each block is decoded
// whole into a reusable arena — Next and Refill are array reads in the
// steady state, with zero allocations once the buffers have grown to the
// trace's block size. It also implements cpu.BatchStream, letting a core
// pull whole slices per refill instead of one instruction per call.
type BlockReader struct {
	src     blockSource
	dec     BlockDecoder
	payload []byte // payload read buffer

	arena    []cpu.Instr
	idx, n   int
	blockSeq uint64 // stream index of arena[0]
	nextSeq  uint64 // stream index after the current block
	blockPos Position

	done bool
	err  error
}

// NewBlockReader validates the v2 header and returns a replay stream
// positioned at the first block.
func NewBlockReader(r io.Reader) (*BlockReader, error) {
	b := &BlockReader{}
	if err := b.src.openV2(r); err != nil {
		return nil, err
	}
	return b, nil
}

// Reset rewires the reader to a fresh trace stream, revalidating the
// header while keeping every decode buffer — a looping replay allocates
// only on its first pass.
func (b *BlockReader) Reset(r io.Reader) error {
	if err := b.src.openV2(r); err != nil {
		return err
	}
	b.idx, b.n = 0, 0
	b.blockSeq, b.nextSeq = 0, 0
	b.blockPos = Position{}
	b.done, b.err = false, nil
	return nil
}

// Err returns the decode error that terminated the stream, if any. A
// checksum or framing fault mid-trace surfaces here (wrapped around
// ErrChecksum / ErrCorrupt with the block's position); clean end-of-trace
// leaves it nil.
func (b *BlockReader) Err() error { return b.err }

// BlockPos returns the position of the block currently being replayed.
func (b *BlockReader) BlockPos() Position { return b.blockPos }

// NextPos returns the position of the next undecoded block boundary: the
// resume point covering everything decoded so far.
func (b *BlockReader) NextPos() Position {
	return Position{ByteOff: b.src.off, Seq: b.nextSeq}
}

// Next implements cpu.Stream.
//
//moca:hotpath
func (b *BlockReader) Next() (cpu.Instr, bool) {
	if b.idx < b.n {
		in := b.arena[b.idx]
		b.idx++
		return in, true
	}
	return b.nextSlow()
}

func (b *BlockReader) nextSlow() (cpu.Instr, bool) {
	if !b.loadBlock() {
		return cpu.Instr{}, false
	}
	b.idx = 1
	return b.arena[0], true
}

// Refill implements cpu.BatchStream: it copies as many pending
// instructions as fit into dst, loading the next block when the arena is
// drained. A return of 0 means end of stream.
//
//moca:hotpath
func (b *BlockReader) Refill(dst []cpu.Instr) int {
	n := copy(dst, b.arena[b.idx:b.n])
	b.idx += n
	if n > 0 {
		return n
	}
	return b.refillSlow(dst)
}

func (b *BlockReader) refillSlow(dst []cpu.Instr) int {
	if len(dst) == 0 || !b.loadBlock() {
		return 0
	}
	n := copy(dst, b.arena[:b.n])
	b.idx = n
	return n
}

// NextBatch implements cpu.BorrowStream: it returns the undelivered
// remainder of the current block straight out of the decode arena —
// zero-copy — loading the next block when drained. The slice is valid
// until the next NextBatch, Next, Refill, or Reset call. An empty return
// means end of stream.
//
//moca:hotpath
func (b *BlockReader) NextBatch() []cpu.Instr {
	if b.idx == b.n && !b.loadBlock() {
		return nil
	}
	out := b.arena[b.idx:b.n]
	b.idx = b.n
	return out
}

func (b *BlockReader) fail(err error) bool {
	b.done = true
	b.err = err
	return false
}

// loadBlock reads and decodes the next block into the arena, returning
// false at clean end-of-trace or on error (recorded in b.err).
func (b *BlockReader) loadBlock() bool {
	if b.done {
		return false
	}
	h, end, err := b.src.next(b.nextSeq)
	if err != nil {
		return b.fail(err)
	}
	if end {
		b.done = true
		return false
	}
	return b.decodeBlock(h)
}

// decodeBlock reads the payload of the block whose header was just read
// and decodes it into the arena, positioned at its first item.
func (b *BlockReader) decodeBlock(h blockHdr) bool {
	var err error
	if b.payload, err = b.src.payload(h, b.payload[:0]); err != nil {
		return b.fail(err)
	}
	items, err := b.dec.decode(h, b.payload)
	if err != nil {
		return b.fail(fmt.Errorf("%w: block at offset %d (items %d..%d)", err, h.pos.ByteOff, h.pos.Seq, h.pos.Seq+h.count-1))
	}
	b.arena = items
	b.idx, b.n = 0, len(items)
	b.blockSeq = h.pos.Seq
	b.nextSeq = h.pos.Seq + h.count
	b.blockPos = h.pos
	return true
}

// SkipTo advances the reader (forward only) so the next item returned is
// stream item seq. Whole blocks before the target are skipped by header,
// without decoding their payloads. Seeking to the exact end of the trace
// is valid and leaves the reader cleanly exhausted; anything past it, or
// behind items already consumed, is ErrBadPosition.
func (b *BlockReader) SkipTo(seq uint64) error {
	if b.n > 0 && seq >= b.blockSeq && seq < b.nextSeq {
		b.idx = int(seq - b.blockSeq)
		return nil
	}
	if seq < b.nextSeq {
		return fmt.Errorf("%w: item %d is behind the reader (next undecoded item %d)", ErrBadPosition, seq, b.nextSeq)
	}
	for !b.done {
		h, end, err := b.src.next(b.nextSeq)
		switch {
		case err != nil:
			b.fail(err)
		case end:
			b.done = true
		case seq >= h.pos.Seq+h.count:
			// Entirely before the target: skip the payload bytes.
			if err := b.src.skip(h); err != nil {
				b.fail(err)
				break
			}
			b.nextSeq = h.pos.Seq + h.count
		case b.decodeBlock(h):
			b.idx = int(seq - h.pos.Seq)
			return nil
		}
	}
	if b.err != nil {
		return b.err
	}
	if seq == b.nextSeq {
		return nil
	}
	return fmt.Errorf("%w: item %d is past the end of the trace (%d items)", ErrBadPosition, seq, b.nextSeq)
}

// OpenBlockReaderAt opens a v2 trace at a recorded Position: the header
// is validated, the reader seeks straight to pos.ByteOff, and the block
// there is decoded eagerly so a garbage position fails here (with
// ErrBadPosition) instead of mid-replay. The zero Position opens at the
// first block.
func OpenBlockReaderAt(rs io.ReadSeeker, pos Position) (*BlockReader, error) {
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	b := &BlockReader{}
	if err := b.src.openV2(rs); err != nil {
		return nil, err
	}
	if err := b.src.seek(rs, pos); err != nil {
		return nil, err
	}
	b.nextSeq = pos.Seq
	b.blockSeq = pos.Seq
	if !b.loadBlock() && b.err != nil {
		return nil, fmt.Errorf("%w: offset %d seq %d: %v", ErrBadPosition, pos.ByteOff, pos.Seq, b.err)
	}
	return b, nil
}

// BlockScanner

// BlockInfo describes one scanned block frame.
type BlockInfo struct {
	Pos    Position
	Count  uint64
	RawLen uint64 // payload bytes
	CRC    uint32
}

// BlockScanner iterates a v2 trace block by block without decoding
// payloads, exposing each frame's header and raw bytes — the transport
// view of a trace. moca-trace inspect and the wire trace-streaming client
// are built on it.
type BlockScanner struct {
	src     blockSource
	frame   []byte
	info    BlockInfo
	nextSeq uint64
	end     bool
	err     error
}

// NewBlockScanner validates the v2 header and returns a scanner
// positioned before the first block.
func NewBlockScanner(r io.Reader) (*BlockScanner, error) {
	s := &BlockScanner{}
	if err := s.src.openV2(r); err != nil {
		return nil, err
	}
	return s, nil
}

// NewBlockScannerAt is NewBlockScanner resuming at a recorded Position:
// scanning continues with the block at pos, skipping everything before it
// without reading it.
func NewBlockScannerAt(rs io.ReadSeeker, pos Position) (*BlockScanner, error) {
	s, err := NewBlockScanner(rs)
	if err != nil {
		return nil, err
	}
	if err := s.src.seek(rs, pos); err != nil {
		return nil, err
	}
	s.nextSeq = pos.Seq
	return s, nil
}

// Scan advances to the next block, returning false at the end frame or on
// error (check Err; nil means clean end).
func (s *BlockScanner) Scan() bool {
	if s.end || s.err != nil {
		return false
	}
	s.frame = s.frame[:0]
	s.src.cap = &s.frame
	h, end, err := s.src.next(s.nextSeq)
	s.src.cap = nil
	if err == nil && !end {
		s.frame, err = s.src.payload(h, s.frame)
	}
	if err != nil {
		s.err = err
		return false
	}
	if end {
		s.end = true
		return false
	}
	s.info = BlockInfo{Pos: h.pos, Count: h.count, RawLen: h.rawLen, CRC: h.crc}
	s.nextSeq = h.pos.Seq + h.count
	return true
}

// Info describes the current block (valid after a true Scan).
func (s *BlockScanner) Info() BlockInfo { return s.info }

// Frame returns the current block's complete frame bytes (marker through
// payload), valid until the next Scan.
func (s *BlockScanner) Frame() []byte { return s.frame }

// NextPos returns the position following the current block: the resume
// point acknowledging everything scanned so far.
func (s *BlockScanner) NextPos() Position {
	return Position{ByteOff: s.src.off, Seq: s.nextSeq}
}

// Total returns the trace's item count, valid once Scan has returned
// false at a clean end frame.
func (s *BlockScanner) Total() (uint64, bool) { return s.nextSeq, s.end }

// Err returns the error that stopped the scan, nil at clean end.
func (s *BlockScanner) Err() error { return s.err }

// version dispatch

// ReplayStream is a trace replay source: a cpu.Stream whose Err
// distinguishes clean end-of-trace from a decode fault. *Reader (v1),
// *BlockReader (v2), and *Loop all implement it.
type ReplayStream interface {
	cpu.Stream
	Err() error
}

var (
	_ ReplayStream    = (*Reader)(nil)
	_ ReplayStream    = (*BlockReader)(nil)
	_ ReplayStream    = (*Loop)(nil)
	_ cpu.BatchStream = (*BlockReader)(nil)
)

// Open opens a trace of either version for replay, dispatching on the
// header's version byte: v1 traces stream through Reader, v2 traces
// through BlockReader.
func Open(r io.Reader) (ReplayStream, error) {
	var src blockSource
	ver, err := src.open(r)
	if err != nil {
		return nil, err
	}
	if ver == version1 {
		return &Reader{r: src.br}, nil
	}
	return &BlockReader{src: src}, nil
}
