// Package wire is the serving protocol of moca-served: length-prefixed
// frames carrying JSON payloads, spoken between the
// long-running server (internal/wire/server) and its clients
// (internal/wire/client, moca-sim -remote).
//
// Frame layout (network byte order):
//
//	uint32  length   // of everything after this field: 1 (type) + payload
//	byte    type     // Type* constant
//	[]byte  payload  // JSON-encoded message for that type (may be empty)
//
// A connection opens with a HELLO/HELLO-OK version handshake, then the
// client submits jobs (SUBMIT carries the canonical run key: system name,
// app or mix, measure and profile-window quotas) and may poll (STATUS),
// subscribe to progress ticks and live metrics snapshots (STREAM), or
// abandon a job (CANCEL). The server answers with ACCEPTED/STATUS frames,
// streams PROGRESS and SNAPSHOT frames while the run executes, and
// finishes each job with exactly one RESULT or ERROR frame.
//
// Decoding is defensive: a frame that is truncated, oversized, or empty
// yields a typed error (ErrTruncated, ErrTooLarge, ErrEmptyFrame) and
// never panics, whatever bytes arrive — the codec fuzz test holds the
// codec to that.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// ProtocolVersion is negotiated by the HELLO handshake; the server
// rejects clients speaking a different major version.
const ProtocolVersion = 1

// DefaultMaxFrame bounds a frame's length field (type byte + payload).
// Result frames carry a full sim.Result JSON document (tens of KB); 8 MB
// leaves room for metrics-heavy snapshots while stopping a hostile or
// corrupt length prefix from ballooning allocation.
const DefaultMaxFrame = 8 << 20

// Frame types. Client-to-server types have the high bit clear,
// server-to-client types have it set.
const (
	TypeHello      byte = 0x01 // Hello: version handshake
	TypeSubmit     byte = 0x02 // Submit: start (or join) a job
	TypeStatus     byte = 0x03 // StatusReq: poll a job's state
	TypeCancel     byte = 0x04 // Cancel: abandon a job
	TypeStream     byte = 0x05 // StreamReq: subscribe to progress/snapshots
	TypeTraceStart byte = 0x06 // TraceStart: open or re-attach a trace-fed run
	TypeTraceBlock byte = 0x07 // binary trace block frame (see AppendTraceBlock)
	TypeTraceEnd   byte = 0x08 // TraceEnd: no more blocks; deliver the result

	TypeHelloOK     byte = 0x81 // HelloOK: handshake accepted
	TypeAccepted    byte = 0x82 // Accepted: job registered
	TypeJobState    byte = 0x83 // JobStatus: state poll answer
	TypeProgress    byte = 0x84 // Progress: periodic completion tick
	TypeSnapshot    byte = 0x85 // Snapshot: live metrics while running
	TypeResult      byte = 0x86 // ResultMsg: terminal success
	TypeError       byte = 0x87 // ErrorMsg: terminal failure (or protocol error, ID 0)
	TypeTraceResume byte = 0x88 // TraceResume: session opened; resume position
	TypeTraceAck    byte = 0x89 // TraceAck: blocks up to Pos are owned by the server
)

// Typed decode errors. Connection handlers close the connection when one
// surfaces; tests and the fuzzer match on them with errors.Is.
var (
	// ErrTooLarge: the length prefix exceeds the connection's frame cap.
	ErrTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrEmptyFrame: the length prefix is zero (no room for the type byte).
	ErrEmptyFrame = errors.New("wire: empty frame")
	// ErrTruncated: the stream ended inside a frame.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrVersion: the HELLO handshake versions do not match.
	ErrVersion = errors.New("wire: protocol version mismatch")
	// ErrBadPayload: a frame's JSON payload does not decode as the message
	// its type demands.
	ErrBadPayload = errors.New("wire: malformed payload")
)

// Hello opens every connection (client to server).
type Hello struct {
	Version int `json:"version"`
}

// HelloOK accepts the handshake (server to client).
type HelloOK struct {
	Version int `json:"version"`
}

// Submit asks the server to run one simulation. ID is chosen by the
// client and echoed on every frame concerning this job; it must differ
// from the ID of every job the connection has registered before, finished
// ones included (the server refuses a reused ID with a bad-request
// ERROR). The remaining fields form the canonical run key: identical
// keys from any number of connections multiplex onto a single
// simulation. AppendSubmit and DecodeSubmit are its codec.
type Submit struct {
	ID uint32 `json:"id"`
	// System is the CLI-style system name moca-sim accepts (ddr3, rl, hbm,
	// lp, heter-app, moca, migrate, with optional @config2/@config3).
	System string `json:"system"`
	// Exactly one of App (single application) or Mix (4-app workload set).
	App string `json:"app,omitempty"`
	Mix string `json:"mix,omitempty"`
	// Measure is the measured instruction quota per core; ProfileWindow
	// the offline-profiling window. Zero selects the server defaults.
	Measure       uint64 `json:"measure,omitempty"`
	ProfileWindow uint64 `json:"profile_window,omitempty"`
	// Metrics requests the observability snapshot in the result.
	Metrics bool `json:"metrics,omitempty"`
}

// StatusReq polls one job's state.
type StatusReq struct {
	ID uint32 `json:"id"`
}

// Cancel abandons one job. The server detaches this connection's interest;
// the simulation itself stops only when no other client remains joined to
// it. The job terminates with an ERROR frame carrying code "canceled".
type Cancel struct {
	ID uint32 `json:"id"`
}

// StreamReq subscribes the connection to PROGRESS (and, when the job was
// submitted with Metrics, SNAPSHOT) frames for one job.
type StreamReq struct {
	ID uint32 `json:"id"`
}

// Accepted acknowledges a SUBMIT. AppendAccepted and DecodeAccepted are
// its codec.
type Accepted struct {
	ID uint32 `json:"id"`
}

// Job states reported by JobStatus.
const (
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobStatus answers a STATUS poll.
type JobStatus struct {
	ID    uint32 `json:"id"`
	State string `json:"state"`
}

// Progress is a periodic completion tick: done of total per-core
// instructions (warmup + measure) retired by the run's slowest core.
type Progress struct {
	ID    uint32 `json:"id"`
	Done  uint64 `json:"done"`
	Total uint64 `json:"total"`
}

// Snapshot carries a live obs.Snapshot (JSON) captured at a simulation
// window barrier.
type Snapshot struct {
	ID  uint32          `json:"id"`
	Obs json.RawMessage `json:"obs"`
}

// ResultMsg terminates a successful job. Result holds the sim.Result JSON
// document. sim.Result's encoding is deterministic, so every client joined
// to the same run receives byte-identical bytes. The server frames the
// document with AppendResultFrame and keeps the encoded document of any
// result it has delivered more than once, so a hot result is encoded
// once; a result delivered once is encoded for that delivery and not kept.
type ResultMsg struct {
	ID     uint32          `json:"id"`
	Result json.RawMessage `json:"result"`
}

// Error codes carried by ErrorMsg.
const (
	CodeCanceled = "canceled" // job canceled (by this or the last client)
	CodeFailed   = "failed"   // simulation or setup error
	CodeBadReq   = "bad-request"
	CodeProto    = "protocol" // framing/handshake violation; connection closes
	CodeDraining = "draining" // server is shutting down; submit rejected
	CodeBusy     = "busy"     // trace session already attached elsewhere
	CodeTrace    = "trace"    // pushed trace block failed to decode
)

// ErrorMsg terminates a failed job (ID echoes the job) or reports a
// protocol-level fault (ID 0, after which the server closes the
// connection).
type ErrorMsg struct {
	ID   uint32 `json:"id"`
	Code string `json:"code"`
	Msg  string `json:"msg"`
}

// Trace streaming. A client that holds a v2 block trace (internal/trace)
// pushes it to the server block by block; the server feeds the decoded
// instructions straight into a live simulation. Delivery is synchronous
// per block — every TRACE_BLOCK is answered with a TRACE_ACK naming the
// position now owned by the server — so a client that disconnects
// mid-corpus reconnects with the same session token, receives the last
// acknowledged position in TRACE_RESUME, and continues from that exact
// block boundary without resending (or the server re-simulating) anything.

// TracePos mirrors trace.Position on the wire: the byte offset of a block
// boundary in the client's trace file and the stream index of its first
// item. ByteOff is client-side state the server merely echoes back (it is
// whatever the client declared when pushing); Seq is validated by the
// server against the decoded block headers.
type TracePos struct {
	ByteOff uint64 `json:"byte_off"`
	Seq     uint64 `json:"seq"`
}

// TraceStart opens a trace-streaming session, or re-attaches to a live
// one after a disconnect. Session is a client-chosen token identifying
// the session across connections; System/App/Measure describe the
// simulation exactly as moca-trace replay does (they must repeat verbatim
// on re-attach). ID follows Submit's rule: never the ID of an earlier
// job on the connection. The server answers with TRACE_RESUME carrying
// the position to push from — zero for a fresh session.
type TraceStart struct {
	ID      uint32 `json:"id"`
	Session string `json:"session"`
	System  string `json:"system"`
	App     string `json:"app"`
	Measure uint64 `json:"measure,omitempty"`
}

// TraceResume answers a TRACE_START: push blocks starting at Pos.
type TraceResume struct {
	ID  uint32   `json:"id"`
	Pos TracePos `json:"pos"`
}

// TraceAck answers one TRACE_BLOCK: every item below Pos.Seq is owned by
// the server and must not be resent; Pos is durable across reconnects for
// the session's lifetime.
type TraceAck struct {
	ID  uint32   `json:"id"`
	Pos TracePos `json:"pos"`
}

// TraceEnd declares the trace complete. The server closes the session's
// instruction stream and answers with the job's terminal RESULT or ERROR
// frame once the simulation finishes.
type TraceEnd struct {
	ID uint32 `json:"id"`
}

// traceBlockHdrLen is the binary preamble of a TRACE_BLOCK payload:
// uint32 BE job ID + uint64 BE next byte offset, then the raw block frame.
const traceBlockHdrLen = 12

// AppendTraceBlock assembles a TRACE_BLOCK payload: the job ID, the
// client-side byte offset of the boundary after this block (echoed in the
// ack), and the block frame exactly as stored on disk (marker through
// payload, trace.BlockScanner.Frame) — the block bytes cross the wire
// without re-encoding or recompression.
func AppendTraceBlock(dst []byte, id uint32, nextOff uint64, frame []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, id)
	dst = binary.BigEndian.AppendUint64(dst, nextOff)
	return append(dst, frame...)
}

// SplitTraceBlock splits a TRACE_BLOCK payload into its job ID, the
// declared next byte offset, and the raw block frame. The frame slice
// aliases payload.
func SplitTraceBlock(payload []byte) (id uint32, nextOff uint64, frame []byte, err error) {
	if len(payload) < traceBlockHdrLen+1 {
		return 0, 0, nil, fmt.Errorf("%w: TRACE_BLOCK: %d byte payload", ErrBadPayload, len(payload))
	}
	id = binary.BigEndian.Uint32(payload)
	nextOff = binary.BigEndian.Uint64(payload[4:])
	return id, nextOff, payload[traceBlockHdrLen:], nil
}

// The RESULT envelope. AppendResult writes it and SplitResult reads it,
// so the document inside is copied in and sliced out but never rescanned.
const (
	resultHead = `{"id":`
	resultMid  = `,"result":`
)

// AppendResult appends the RESULT payload for job id carrying doc, a JSON
// document in encoding/json's canonical compact form (what json.Marshal
// and sim.Result.MarshalJSON emit). The bytes are exactly those of
// json.Marshal(ResultMsg{ID: id, Result: doc}), so any JSON client reads
// them, but doc is copied rather than compacted again.
func AppendResult(dst []byte, id uint32, doc []byte) []byte {
	dst = append(dst, resultHead...)
	dst = strconv.AppendUint(dst, uint64(id), 10)
	dst = append(dst, resultMid...)
	if len(doc) == 0 {
		dst = append(dst, "null"...) // json.Marshal's encoding of a nil RawMessage
	} else {
		dst = append(dst, doc...)
	}
	return append(dst, '}')
}

// SplitResult splits a RESULT payload in AppendResult's layout into the
// job ID and the result document, which aliases payload. It checks the
// envelope only and leaves the document to the caller's decoder, so the
// payload is scanned once; a payload laid out any other way is rejected
// with ErrBadPayload. Whenever SplitResult accepts a payload whose
// document is valid JSON, Decode into ResultMsg yields the same ID and
// document bytes.
func SplitResult(payload []byte) (id uint32, doc []byte, err error) {
	rest, ok := bytes.CutPrefix(payload, []byte(resultHead))
	if !ok {
		return 0, nil, fmt.Errorf("%w: RESULT: envelope does not open with %s", ErrBadPayload, resultHead)
	}
	var n uint64
	digits := 0
	for digits < len(rest) && rest[digits] >= '0' && rest[digits] <= '9' {
		n = n*10 + uint64(rest[digits]-'0')
		digits++
		if n > math.MaxUint32 {
			return 0, nil, fmt.Errorf("%w: RESULT: job ID overflows uint32", ErrBadPayload)
		}
	}
	if digits == 0 || (digits > 1 && rest[0] == '0') {
		return 0, nil, fmt.Errorf("%w: RESULT: malformed job ID", ErrBadPayload)
	}
	rest, ok = bytes.CutPrefix(rest[digits:], []byte(resultMid))
	if !ok || len(rest) < 2 || rest[len(rest)-1] != '}' {
		return 0, nil, fmt.Errorf("%w: RESULT: malformed envelope", ErrBadPayload)
	}
	doc = rest[:len(rest)-1]
	// Decode would drop whitespace around the document; the canonical
	// layout has none.
	if isSpace(doc[0]) || isSpace(doc[len(doc)-1]) {
		return 0, nil, fmt.Errorf("%w: RESULT: whitespace around the document", ErrBadPayload)
	}
	return uint32(n), doc, nil
}

// isSpace reports JSON insignificant whitespace.
func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

// WriteFrame writes one frame. payload may be nil. max bounds the frame
// exactly as the peer's ReadFrame will (0 = DefaultMaxFrame), so an
// oversized write fails locally with ErrTooLarge instead of poisoning the
// connection.
func WriteFrame(w io.Writer, typ byte, payload []byte, max uint32) error {
	if max == 0 {
		max = DefaultMaxFrame
	}
	n := uint64(len(payload)) + 1
	if n > uint64(max) {
		return fmt.Errorf("%w: %d byte frame, limit %d", ErrTooLarge, n, max)
	}
	buf := make([]byte, 5+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(n))
	buf[4] = typ
	copy(buf[5:], payload)
	_, err := w.Write(buf)
	return err
}

// WriteMsg JSON-encodes v and writes it as one frame of the given type.
func WriteMsg(w io.Writer, typ byte, v any, max uint32) error {
	buf, err := AppendMsg(nil, typ, v, max)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// AppendMsg appends to dst the frame WriteMsg writes for v, so several
// frames can go out in one write. On error dst is returned unchanged.
func AppendMsg(dst []byte, typ byte, v any, max uint32) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return dst, fmt.Errorf("wire: encoding %T: %w", v, err)
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, typ)
	return closeFrame(append(dst, payload...), start, max)
}

// AppendResultFrame appends to dst the whole RESULT frame for job id
// carrying doc: the frame header and AppendResult's payload, built in
// place, so the document is copied once, into the buffer that is written.
// max bounds the frame as WriteFrame does; on error dst is returned
// unchanged.
func AppendResultFrame(dst []byte, id uint32, doc []byte, max uint32) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, TypeResult)
	return closeFrame(AppendResult(dst, id, doc), start, max)
}

// closeFrame fills in the length prefix of the frame that starts at
// dst[start] and runs to the end of dst, or cuts the frame off again if it
// exceeds max.
func closeFrame(dst []byte, start int, max uint32) ([]byte, error) {
	if max == 0 {
		max = DefaultMaxFrame
	}
	n := uint64(len(dst) - start - 4)
	if n > uint64(max) {
		return dst[:start], fmt.Errorf("%w: %d byte frame, limit %d", ErrTooLarge, n, max)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// ReadFrame reads one frame, enforcing the size cap (0 = DefaultMaxFrame)
// before allocating. io.EOF surfaces only at a clean frame boundary; a
// stream ending mid-frame is ErrTruncated.
func ReadFrame(r io.Reader, max uint32) (typ byte, payload []byte, err error) {
	if max == 0 {
		max = DefaultMaxFrame
	}
	n, err := readHeader(r, 4)
	if err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: length prefix: %v", ErrTruncated, err)
	}
	if n == 0 {
		return 0, nil, ErrEmptyFrame
	}
	if n > max {
		return 0, nil, fmt.Errorf("%w: %d byte frame, limit %d", ErrTooLarge, n, max)
	}
	t, err := readHeader(r, 1)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: type byte: %v", ErrTruncated, err)
	}
	typ = byte(t)
	payload = make([]byte, n-1)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: payload (%d bytes): %v", ErrTruncated, n-1, err)
	}
	return typ, payload, nil
}

// readHeader reads a big-endian header field of size bytes (at most 4)
// with io.ReadFull's errors: io.EOF only if no byte came. From an
// io.ByteReader (the server's and client's bufio.Readers, a bytes.Reader)
// it reads byte by byte, so no header buffer escapes to the heap through
// the io.Reader interface; other readers fill a fresh buffer.
func readHeader(r io.Reader, size int) (uint32, error) {
	var v uint32
	if br, ok := r.(io.ByteReader); ok {
		for i := 0; i < size; i++ {
			c, err := br.ReadByte()
			if err != nil {
				if err == io.EOF && i > 0 {
					err = io.ErrUnexpectedEOF
				}
				return 0, err
			}
			v = v<<8 | uint32(c)
		}
		return v, nil
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, err
	}
	for _, c := range buf {
		v = v<<8 | uint32(c)
	}
	return v, nil
}

// Decode unmarshals a frame payload into msg, mapping JSON faults to
// ErrBadPayload.
func Decode(payload []byte, msg any) error {
	if err := json.Unmarshal(payload, msg); err != nil {
		return fmt.Errorf("%w: %T: %v", ErrBadPayload, msg, err)
	}
	return nil
}
