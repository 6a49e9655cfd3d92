package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"moca/internal/canon"
)

// checkSubmitWriters asserts that AppendSubmit and AppendSubmitFrame
// write exactly what json.Marshal and WriteMsg do for s.
func checkSubmitWriters(t *testing.T, s Submit) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendSubmit([]byte("prefix"), s); !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("AppendSubmit(%+v) = %q, json.Marshal = %q", s, got[len("prefix"):], want)
	}
	var frame bytes.Buffer
	if err := WriteMsg(&frame, TypeSubmit, s, 0); err != nil {
		t.Fatal(err)
	}
	got, err := AppendSubmitFrame([]byte("prefix"), s, 0)
	if err != nil || !bytes.Equal(got[len("prefix"):], frame.Bytes()) {
		t.Fatalf("AppendSubmitFrame(%+v) = %q (%v), WriteMsg = %q", s, got[len("prefix"):], err, frame.Bytes())
	}
}

// checkAcceptedWriters asserts the same of the ACCEPTED writers.
func checkAcceptedWriters(t *testing.T, id uint32) {
	t.Helper()
	want, err := json.Marshal(Accepted{ID: id})
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendAccepted([]byte("prefix"), id); !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("AppendAccepted(%d) = %q, json.Marshal = %q", id, got[len("prefix"):], want)
	}
	var frame bytes.Buffer
	if err := WriteMsg(&frame, TypeAccepted, Accepted{ID: id}, 0); err != nil {
		t.Fatal(err)
	}
	got, err := AppendAcceptedFrame([]byte("prefix"), id, 0)
	if err != nil || !bytes.Equal(got[len("prefix"):], frame.Bytes()) {
		t.Fatalf("AppendAcceptedFrame(%d) = %q (%v), WriteMsg = %q", id, got[len("prefix"):], err, frame.Bytes())
	}
}

// checkControlReaders asserts the readers' contract on data: each
// canonical decoder declines it or returns what json.Unmarshal into a
// zero value returns, from data that json.Marshal writes for that value;
// and DecodeSubmit and DecodeAccepted return what Decode does. It reports
// whether the canonical SUBMIT decoder accepted data.
func checkControlReaders(t *testing.T, data []byte) bool {
	t.Helper()
	var wantSub Submit
	wantSubErr := Decode(data, &wantSub)
	gotSub, ok := decodeSubmitCanonical(data)
	if ok {
		if wantSubErr != nil || gotSub != wantSub {
			t.Fatalf("SUBMIT %q: canonical decode %+v, encoding/json %+v (%v)", data, gotSub, wantSub, wantSubErr)
		}
		if back, _ := json.Marshal(gotSub); !bytes.Equal(back, data) {
			t.Fatalf("SUBMIT %q accepted, but json.Marshal writes %q", data, back)
		}
	}
	if got, err := DecodeSubmit(data); got != wantSub || (err == nil) != (wantSubErr == nil) {
		t.Fatalf("DecodeSubmit(%q) = %+v, %v; Decode = %+v, %v", data, got, err, wantSub, wantSubErr)
	}

	var wantAcc Accepted
	wantAccErr := Decode(data, &wantAcc)
	if gotAcc, ok := decodeAcceptedCanonical(data); ok {
		if wantAccErr != nil || gotAcc != wantAcc {
			t.Fatalf("ACCEPTED %q: canonical decode %+v, encoding/json %+v (%v)", data, gotAcc, wantAcc, wantAccErr)
		}
		if back, _ := json.Marshal(gotAcc); !bytes.Equal(back, data) {
			t.Fatalf("ACCEPTED %q accepted, but json.Marshal writes %q", data, back)
		}
	}
	if got, err := DecodeAccepted(data); got != wantAcc || (err == nil) != (wantAccErr == nil) {
		t.Fatalf("DecodeAccepted(%q) = %+v, %v; Decode = %+v, %v", data, got, err, wantAcc, wantAccErr)
	}
	return ok
}

// TestControlFramesMatchMarshal: the SUBMIT and ACCEPTED writers match
// json.Marshal on omitted fields, extreme integers and strings that
// encoding/json escapes; what they write decodes canonically back to the
// value whenever no string needed escaping.
func TestControlFramesMatchMarshal(t *testing.T) {
	subs := []Submit{
		{},
		{ID: 1, System: "ddr3", App: "mcf"},
		{ID: 7, System: "moca@config2", Mix: "2L1B1N", Measure: 300_000, ProfileWindow: 300_000, Metrics: true},
		{ID: math.MaxUint32, System: "é ✓", App: "a", Mix: "b", Measure: math.MaxUint64, ProfileWindow: 1},
		{System: `a"b`},
		{System: "ddr3", App: `back\slash`},
		{System: "ddr3", Mix: "<mix>&"},
		{System: "tab\there"},
		{System: " "},
		{System: "ddr3", App: "\xff"},
		{System: "�"},
	}
	for _, s := range subs {
		checkSubmitWriters(t, s)
		payload := AppendSubmit(nil, s)
		accepted := checkControlReaders(t, payload)
		plain := canon.Plain(s.System) && canon.Plain(s.App) && canon.Plain(s.Mix)
		if accepted != plain {
			t.Fatalf("canonical decode of %q: accepted %v, want %v", payload, accepted, plain)
		}
		if got, err := DecodeSubmit(payload); plain && (err != nil || got != s) {
			t.Fatalf("DecodeSubmit(AppendSubmit(%+v)) = %+v, %v", s, got, err)
		}
	}
	for _, id := range []uint32{0, 1, 1 << 31, math.MaxUint32} {
		checkAcceptedWriters(t, id)
		if got, ok := decodeAcceptedCanonical(AppendAccepted(nil, id)); !ok || got.ID != id {
			t.Fatalf("canonical decode of ACCEPTED %d: %+v, %v", id, got, ok)
		}
	}
}

// TestControlReadersDecline: payloads encoding/json reads but json.Marshal
// never writes go to the fallback, which decodes them as before.
func TestControlReadersDecline(t *testing.T) {
	for _, p := range []string{
		`{"id":1,"system":"ddr3","app":""}`,
		`{"id":1,"system":"ddr3","measure":0}`,
		`{"id":1,"system":"ddr3","profile_window":0}`,
		`{"id":1,"system":"ddr3","metrics":false}`,
		`{"id":1,"system":"ddr3","mix":"m","app":"a"}`,
		`{"system":"ddr3","id":1}`,
		`{"ID":1,"system":"ddr3"}`,
		`{"id":01,"system":"ddr3"}`,
		`{"id":1.0,"system":"ddr3"}`,
		`{"id":1,"system":"ddr3","extra":2}`,
		`{"id":1,"system":"ddr3"} `,
		` {"id":1}`,
		`{"id":1,"id":2}`,
		`{"id":4294967296}`,
		`{}`,
		`null`,
		`{"id":1,"system":"ddr3",}`,
		``,
	} {
		if checkControlReaders(t, []byte(p)) {
			t.Errorf("canonical SUBMIT decoder accepted %s", p)
		}
		if _, ok := decodeAcceptedCanonical([]byte(p)); ok {
			t.Errorf("canonical ACCEPTED decoder accepted %s", p)
		}
	}
}

// setAll sets every field of the struct v points to to a non-zero value
// chosen by its kind, and fails on a kind it does not know.
func setAll(t *testing.T, v any) {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(rv.Type().Field(i).Name)
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
			f.SetUint(uint64(i + 1))
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("%s.%s: kind %s; teach setAll and the codec", rv.Type().Name(), rv.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestControlCodecsCoverSchema pins the control-frame codecs to their
// types: every field of Submit and Accepted is set by reflection, so a
// field added without a writer and reader line fails here instead of
// vanishing from the wire or sending every frame down the fallback.
func TestControlCodecsCoverSchema(t *testing.T) {
	var s Submit
	setAll(t, &s)
	checkSubmitWriters(t, s)
	if got, ok := decodeSubmitCanonical(AppendSubmit(nil, s)); !ok || got != s {
		t.Fatalf("canonical decode of a full Submit: %+v, %v; want %+v", got, ok, s)
	}
	var a Accepted
	setAll(t, &a)
	checkAcceptedWriters(t, a.ID)
	if got, ok := decodeAcceptedCanonical(AppendAccepted(nil, a.ID)); !ok || got != a {
		t.Fatalf("canonical decode of a full Accepted: %+v, %v; want %+v", got, ok, a)
	}
}

// TestControlCodecAllocs: into a buffer with room, the writers allocate
// nothing; DecodeAccepted allocates nothing and DecodeSubmit only its
// strings.
func TestControlCodecAllocs(t *testing.T) {
	s := Submit{ID: 9, System: "ddr3", App: "mcf", Measure: 300_000, ProfileWindow: 300_000}
	buf := make([]byte, 0, 256)
	payload := AppendSubmit(nil, s)
	accepted := AppendAccepted(nil, 9)
	for name, tc := range map[string]struct {
		want float64
		f    func()
	}{
		"AppendSubmitFrame":   {0, func() { _, _ = AppendSubmitFrame(buf, s, 0) }},
		"AppendAcceptedFrame": {0, func() { _, _ = AppendAcceptedFrame(buf, 9, 0) }},
		"DecodeAccepted":      {0, func() { _, _ = DecodeAccepted(accepted) }},
		"DecodeSubmit":        {2, func() { _, _ = DecodeSubmit(payload) }},
	} {
		if got := testing.AllocsPerRun(100, tc.f); got != tc.want {
			t.Errorf("%s allocates %v times, want %v", name, got, tc.want)
		}
	}
}

// FuzzControlFrames: for arbitrary field values the SUBMIT and ACCEPTED
// writers emit json.Marshal's bytes, and for arbitrary bytes the readers
// decline or agree with json.Unmarshal into a zero value.
func FuzzControlFrames(f *testing.F) {
	f.Add([]byte(`{"id":1,"system":"ddr3","app":"mcf","measure":30000,"profile_window":100000}`),
		uint32(1), "ddr3", "mcf", "", uint64(30000), uint64(100000), false)
	f.Add([]byte(`{"id":4294967295,"system":"moca@config3","mix":"4L","metrics":true}`),
		uint32(math.MaxUint32), "moca@config3", "", "4L", uint64(0), uint64(0), true)
	f.Add([]byte(`{"id":7}`), uint32(7), `<&>`, " ", "\x00", uint64(math.MaxUint64), uint64(1), true)
	f.Add([]byte(`{"id":1,"system":"ddr3","app":""}`), uint32(0), "", "", "", uint64(0), uint64(0), false)
	f.Add([]byte(`{"id":1,"system":"é�","metrics":false}`), uint32(2), "é", "\xff", `"`, uint64(1), uint64(0), false)
	f.Add([]byte(`{"id":01}`), uint32(3), `\`, "a", "b", uint64(2), uint64(3), true)
	f.Add([]byte(` {"id":1}`), uint32(4), "x", "y", "z", uint64(4), uint64(5), false)
	f.Add([]byte(`null`), uint32(5), "", "", "", uint64(0), uint64(0), false)

	f.Fuzz(func(t *testing.T, data []byte, id uint32, system, app, mix string, measure, window uint64, metrics bool) {
		checkControlReaders(t, data)

		s := Submit{ID: id, System: system, App: app, Mix: mix, Measure: measure, ProfileWindow: window, Metrics: metrics}
		checkSubmitWriters(t, s)
		payload := AppendSubmit(nil, s)
		accepted := checkControlReaders(t, payload)
		if plain := canon.Plain(system) && canon.Plain(app) && canon.Plain(mix); accepted != plain {
			t.Fatalf("canonical decode of %q: accepted %v, want %v", payload, accepted, plain)
		}
		checkAcceptedWriters(t, id)
		checkControlReaders(t, AppendAccepted(nil, id))
	})
}
