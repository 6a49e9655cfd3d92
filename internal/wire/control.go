package wire

import (
	"encoding/json"
	"slices"
	"strconv"

	"moca/internal/canon"
)

// The control frames of a hot-key hit — SUBMIT one way, ACCEPTED the
// other — have typed writers and readers, as RESULT has AppendResult and
// SplitResult, so a hit spends nothing on reflection. The writers emit
// exactly json.Marshal's bytes. The readers accept exactly those bytes
// and decline anything else to encoding/json, which stays the reference
// (FuzzControlFrames).

// submitBound is the longest SUBMIT payload with empty strings; strings
// add their own length unless they need escaping.
const submitBound = len(`{"id":4294967295,"system":"","app":"","mix":"","measure":18446744073709551615,"profile_window":18446744073709551615,"metrics":true}`)

// AppendSubmit appends the SUBMIT payload for s: exactly the bytes of
// json.Marshal(s). A string that encoding/json would escape sends the
// whole payload through json.Marshal.
//
//moca:hotpath
func AppendSubmit(dst []byte, s Submit) []byte {
	start := len(dst)
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, uint64(s.ID), 10)
	dst = append(dst, `,"system":`...)
	dst, ok := canon.AppendStr(dst, s.System)
	if ok && s.App != "" {
		dst = append(dst, `,"app":`...)
		dst, ok = canon.AppendStr(dst, s.App)
	}
	if ok && s.Mix != "" {
		dst = append(dst, `,"mix":`...)
		dst, ok = canon.AppendStr(dst, s.Mix)
	}
	if !ok {
		return appendMarshaled(dst[:start], s)
	}
	if s.Measure != 0 {
		dst = append(dst, `,"measure":`...)
		dst = strconv.AppendUint(dst, s.Measure, 10)
	}
	if s.ProfileWindow != 0 {
		dst = append(dst, `,"profile_window":`...)
		dst = strconv.AppendUint(dst, s.ProfileWindow, 10)
	}
	if s.Metrics {
		dst = append(dst, `,"metrics":true`...)
	}
	return append(dst, '}')
}

// appendMarshaled is AppendSubmit's fallback for strings that need
// escaping. json.Marshal cannot fail on a Submit: every field is a
// string, an unsigned integer or a bool.
func appendMarshaled(dst []byte, s Submit) []byte {
	b, _ := json.Marshal(s)
	return append(dst, b...)
}

// AppendSubmitFrame appends the whole SUBMIT frame for s, growing dst
// once to the frame's size first. max bounds the frame as WriteFrame
// does; on error dst is returned unchanged.
//
//moca:hotpath
func AppendSubmitFrame(dst []byte, s Submit, max uint32) ([]byte, error) {
	dst = slices.Grow(dst, 5+submitBound+len(s.System)+len(s.App)+len(s.Mix))
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, TypeSubmit)
	return closeFrame(AppendSubmit(dst, s), start, max)
}

// DecodeSubmit decodes a SUBMIT payload into a fresh Submit. The bytes
// AppendSubmit writes decode without reflection; anything else goes to
// Decode, whose result and error it returns.
//
//moca:hotpath
func DecodeSubmit(payload []byte) (Submit, error) {
	if s, ok := decodeSubmitCanonical(payload); ok {
		return s, nil
	}
	var s Submit
	err := Decode(payload, &s)
	return s, err
}

// decodeSubmitCanonical decodes exactly the bytes json.Marshal writes for
// a Submit: keys in field order, each omitempty field present only when
// it is not zero, and strings holding nothing encoding/json escapes. It
// reports false for anything else.
func decodeSubmitCanonical(data []byte) (Submit, bool) {
	d := canon.NewDec(data)
	var s Submit
	d.Lit(`{"id":`)
	s.ID = d.Uint32()
	d.Lit(`,"system":`)
	s.System = d.Str()
	// omitempty writes no empty string, zero or false.
	if d.Opt(`,"app":`) {
		if s.App = d.Str(); s.App == "" {
			d.Fail()
		}
	}
	if d.Opt(`,"mix":`) {
		if s.Mix = d.Str(); s.Mix == "" {
			d.Fail()
		}
	}
	if d.Opt(`,"measure":`) {
		if s.Measure = d.Uint(); s.Measure == 0 {
			d.Fail()
		}
	}
	if d.Opt(`,"profile_window":`) {
		if s.ProfileWindow = d.Uint(); s.ProfileWindow == 0 {
			d.Fail()
		}
	}
	s.Metrics = d.Opt(`,"metrics":true`)
	d.Lit(`}`)
	if !d.Done() {
		return Submit{}, false
	}
	return s, true
}

// AppendAccepted appends the ACCEPTED payload for job id: exactly the
// bytes of json.Marshal(Accepted{ID: id}).
//
//moca:hotpath
func AppendAccepted(dst []byte, id uint32) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, uint64(id), 10)
	return append(dst, '}')
}

// AppendAcceptedFrame appends the whole ACCEPTED frame for job id. max
// bounds the frame as WriteFrame does; on error dst is returned
// unchanged.
//
//moca:hotpath
func AppendAcceptedFrame(dst []byte, id uint32, max uint32) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, TypeAccepted)
	return closeFrame(AppendAccepted(dst, id), start, max)
}

// DecodeAccepted decodes an ACCEPTED payload into a fresh Accepted: the
// bytes AppendAccepted writes without reflection, anything else through
// Decode.
//
//moca:hotpath
func DecodeAccepted(payload []byte) (Accepted, error) {
	if a, ok := decodeAcceptedCanonical(payload); ok {
		return a, nil
	}
	var a Accepted
	err := Decode(payload, &a)
	return a, err
}

// decodeAcceptedCanonical decodes exactly the bytes json.Marshal writes
// for an Accepted and reports false for anything else.
func decodeAcceptedCanonical(data []byte) (Accepted, bool) {
	d := canon.NewDec(data)
	d.Lit(`{"id":`)
	id := d.Uint32()
	d.Lit(`}`)
	if !d.Done() {
		return Accepted{}, false
	}
	return Accepted{ID: id}, true
}
