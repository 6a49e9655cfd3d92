package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"moca/internal/mem"
	"moca/internal/sim"
)

// frame encodes one frame (panics on encoding faults: test-fixture only).
func frame(typ byte, payload []byte) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, typ, payload, 0); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []struct {
		typ     byte
		payload string
	}{
		{TypeHello, `{"version":1}`},
		{TypeSubmit, `{"id":7,"system":"moca","app":"mcf"}`},
		{TypeResult, `{"id":7,"result":{"elapsed_ps":1}}`},
		{TypeCancel, ``}, // empty payload is a legal frame
	}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m.typ, []byte(m.payload), 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range msgs {
		typ, payload, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if typ != m.typ || string(payload) != m.payload {
			t.Fatalf("read (0x%02x, %q), want (0x%02x, %q)", typ, payload, m.typ, m.payload)
		}
	}
	if _, _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("drained stream returned %v, want io.EOF", err)
	}
}

func TestFrameTypedErrors(t *testing.T) {
	t.Run("zero-length", func(t *testing.T) {
		_, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), 0)
		if !errors.Is(err, ErrEmptyFrame) {
			t.Fatalf("got %v, want ErrEmptyFrame", err)
		}
	})
	t.Run("oversized", func(t *testing.T) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 1<<30)
		_, _, err := ReadFrame(bytes.NewReader(hdr[:]), 0)
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("got %v, want ErrTooLarge", err)
		}
	})
	t.Run("oversized-write-rejected-locally", func(t *testing.T) {
		err := WriteFrame(io.Discard, TypeResult, make([]byte, 100), 64)
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("got %v, want ErrTooLarge", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		full := frame(TypeHello, []byte(`{"version":1}`))
		for cut := 1; cut < len(full); cut++ {
			_, _, err := ReadFrame(bytes.NewReader(full[:cut]), 0)
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut at %d: got %v, want ErrTruncated", cut, err)
			}
		}
	})
	t.Run("clean-eof", func(t *testing.T) {
		_, _, err := ReadFrame(bytes.NewReader(nil), 0)
		if err != io.EOF {
			t.Fatalf("got %v, want bare io.EOF at a frame boundary", err)
		}
	})
	t.Run("bad-payload", func(t *testing.T) {
		var h Hello
		err := Decode([]byte(`{"version":`), &h)
		if !errors.Is(err, ErrBadPayload) {
			t.Fatalf("got %v, want ErrBadPayload", err)
		}
	})
}

// FuzzReadFrame: whatever bytes arrive, the codec must return a typed
// error or a valid frame — never panic, never misreport a frame boundary.
// Decoded frames must re-encode to the identical bytes (with the trailing
// garbage of the stream untouched).
func FuzzReadFrame(f *testing.F) {
	// One seed per frame type, both directions, so the fuzzer starts with
	// every dispatch arm reachable (moca-vet's wiredispatch analyzer
	// checks this list stays exhaustive as the protocol grows).
	for _, typ := range []byte{
		TypeHello, TypeSubmit, TypeStatus, TypeCancel, TypeStream,
		TypeTraceStart, TypeTraceBlock, TypeTraceEnd,
		TypeHelloOK, TypeAccepted, TypeJobState, TypeProgress,
		TypeSnapshot, TypeResult, TypeError, TypeTraceResume, TypeTraceAck,
	} {
		f.Add(frame(typ, []byte(`{"id":1}`)), uint32(0))
	}
	f.Add(frame(TypeHello, []byte(`{"version":1}`)), uint32(0))
	f.Add(frame(TypeSubmit, []byte(`{"id":1,"system":"ddr3","app":"mcf"}`)), uint32(0))
	f.Add([]byte{0, 0, 0, 0}, uint32(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}, uint32(0))
	f.Add([]byte{0, 0, 0, 5, 0x86, 'a', 'b'}, uint32(16))
	f.Add([]byte{}, uint32(1))

	f.Fuzz(func(t *testing.T, data []byte, max uint32) {
		r := bytes.NewReader(data)
		typ, payload, err := ReadFrame(r, max)
		if err != nil {
			switch {
			case err == io.EOF,
				errors.Is(err, ErrEmptyFrame),
				errors.Is(err, ErrTooLarge),
				errors.Is(err, ErrTruncated):
			default:
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		// A successfully decoded frame re-encodes byte-identically.
		limit := max
		if limit == 0 {
			limit = DefaultMaxFrame
		}
		var buf bytes.Buffer
		if werr := WriteFrame(&buf, typ, payload, limit); werr != nil {
			t.Fatalf("re-encoding a decoded frame failed: %v", werr)
		}
		consumed := len(data) - r.Len()
		if !bytes.Equal(buf.Bytes(), data[:consumed]) {
			t.Fatalf("round trip diverged:\n got %x\nwant %x", buf.Bytes(), data[:consumed])
		}
	})
}

func TestErrorStringsCarryContext(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<30)
	_, _, err := ReadFrame(bytes.NewReader(hdr[:]), 1024)
	if err == nil || !strings.Contains(err.Error(), "1024") {
		t.Fatalf("size-limit error lacks the limit: %v", err)
	}
}

// TestAppendResultMatchesMarshal: the RESULT writer produces exactly the
// bytes json.Marshal(ResultMsg) does, so JSON clients keep working, and
// SplitResult reads back the same ID and document.
func TestAppendResultMatchesMarshal(t *testing.T) {
	docs := []string{
		``, // a nil document encodes as null
		`null`,
		`{}`,
		`{"elapsed_ps":1,"apps":["mcf","lbm"],"m":{"a":-1.5e-7}}`,
		`"\u003cscript\u003e \u0026 \u2028"`, // json.Marshal's HTML-safe escapes
	}
	for _, id := range []uint32{0, 7, 1 << 31, ^uint32(0)} {
		for _, d := range docs {
			var doc []byte
			if d != "" {
				doc = []byte(d)
			}
			want, err := json.Marshal(ResultMsg{ID: id, Result: doc})
			if err != nil {
				t.Fatal(err)
			}
			got := AppendResult([]byte("prefix"), id, doc)
			if !bytes.Equal(got[len("prefix"):], want) {
				t.Fatalf("AppendResult(%d, %s) = %s, want %s", id, d, got[len("prefix"):], want)
			}
			gotID, gotDoc, err := SplitResult(want)
			if err != nil {
				t.Fatalf("SplitResult(%s): %v", want, err)
			}
			if d == "" {
				d = "null"
			}
			if gotID != id || string(gotDoc) != d {
				t.Fatalf("SplitResult(%s) = (%d, %s), want (%d, %s)", want, gotID, gotDoc, id, d)
			}
		}
	}
}

func TestSplitResultRejects(t *testing.T) {
	for _, p := range []string{
		``,
		`{}`,
		`{"id":1}`,
		`{"id":1,"result":}`,
		`{"id":,"result":{}}`,
		`{"id":01,"result":{}}`,
		`{"id":-1,"result":{}}`,
		`{"id":4294967296,"result":{}}`,
		`{"id":99999999999999999999999,"result":{}}`,
		`{"id":1,"result": {}}`,
		`{"id":1,"result":{} }`,
		`{"id":1, "result":{}}`,
		`{"result":{},"id":1}`,
		`{"ID":1,"result":{}}`,
	} {
		if id, doc, err := SplitResult([]byte(p)); !errors.Is(err, ErrBadPayload) {
			t.Errorf("SplitResult(%s) = (%d, %s, %v), want ErrBadPayload", p, id, doc, err)
		}
	}
}

// FuzzSplitResult: the RESULT reader never panics and never reads a
// document differently from a JSON decoder. SplitResult checks only the
// envelope and leaves the document to the caller's decoder (the client
// decodes it into a sim.Result), so agreement is required for every
// accepted payload whose document is valid JSON. The document decodes
// into a sim.Result exactly when encoding/json decodes it, to the same
// value, so the canonical decoder agrees with the reference on every
// RESULT. Any valid input also serves as a document for the writer, which
// must match json.Marshal.
func FuzzSplitResult(f *testing.F) {
	res := &sim.Result{Name: "MOCA", Policy: "moca", Elapsed: 177720000,
		Cores:       []sim.CoreResult{{App: "mcf", TLBHitRate: 0.3172, PagesByModule: map[int]int{0: 1830, 2: 7}}},
		Channels:    []sim.ChannelResult{{Name: "HBM-m1-ch0", Kind: 1, CapacityBytes: 8 << 20}},
		ModuleKinds: []mem.Kind{0, 1}}
	doc, err := res.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"id":1,"result":{"elapsed_ps":1}}`), uint32(1))
	f.Add([]byte(`{"id":0,"result":null}`), uint32(0))
	f.Add([]byte(`{"id":4294967295,"result":[1,"<a>"]}`), ^uint32(0))
	f.Add([]byte(`{"id":1,"result":1,"id":2}`), uint32(2))
	f.Add([]byte(`{"id":1,"result":{} }`), uint32(3))
	f.Add([]byte(`{"id":01,"result":{}}`), uint32(4))
	f.Add([]byte(`{ "a" : "\u2028 & <" }`), uint32(5))
	f.Add([]byte{}, uint32(6))
	f.Add(AppendResult(nil, 9, doc), uint32(9))

	f.Fuzz(func(t *testing.T, payload []byte, id uint32) {
		if gotID, doc, err := SplitResult(payload); err != nil {
			if !errors.Is(err, ErrBadPayload) {
				t.Fatalf("untyped error: %v", err)
			}
		} else if json.Valid(doc) {
			var rm ResultMsg
			if err := Decode(payload, &rm); err != nil {
				t.Fatalf("SplitResult accepted %q, Decode rejects it: %v", payload, err)
			}
			if rm.ID != gotID || !bytes.Equal(rm.Result, doc) {
				t.Fatalf("SplitResult(%q) = (%d, %q), Decode = (%d, %q)", payload, gotID, doc, rm.ID, rm.Result)
			}
			// A leading space sends the reference decode down the
			// encoding/json path, whatever the canonical decoder would do.
			var got, want sim.Result
			gotErr := got.UnmarshalJSON(doc)
			wantErr := want.UnmarshalJSON(append([]byte(" "), doc...))
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("result document %q: decode error %v, encoding/json %v", doc, gotErr, wantErr)
			}
			if gotErr == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("result document %q decodes differently from encoding/json", doc)
			}
		}

		if !json.Valid(payload) {
			return
		}
		// json.Marshal of a RawMessage yields the canonical compact form.
		doc, err := json.Marshal(json.RawMessage(payload))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(ResultMsg{ID: id, Result: doc})
		if err != nil {
			t.Fatal(err)
		}
		got := AppendResult(nil, id, doc)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendResult(%d, %q) = %q, json.Marshal = %q", id, doc, got, want)
		}
		gotID, gotDoc, err := SplitResult(got)
		if err != nil || gotID != id || !bytes.Equal(gotDoc, doc) {
			t.Fatalf("SplitResult(AppendResult(%d, %q)) = (%d, %q, %v)", id, doc, gotID, gotDoc, err)
		}
	})
}
