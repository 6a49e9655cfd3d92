package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// canonicalDocs runs every golden configuration with metrics off and
// returns each result's MarshalJSON: the documents the run cache and
// moca-served carry, which decodeCanonical exists for.
func canonicalDocs(tb testing.TB) map[string][]byte {
	tb.Helper()
	docs := make(map[string][]byte)
	for _, tc := range goldenCases(tb) {
		res := runGolden(tb, tc)
		data, err := res.MarshalJSON()
		if err != nil {
			tb.Fatal(err)
		}
		docs[tc.name] = data
	}
	return docs
}

func runGolden(tb testing.TB, tc goldenCase) *Result {
	tb.Helper()
	sys, err := New(tc.cfg, tc.procs)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := sys.Run(tc.warmup, tc.measure)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// checkCanonical asserts the decoder's contract on data: a decline, or
// a Result equal to encoding/json's (energies included) that re-encodes
// to data exactly. It reports whether data was accepted.
func checkCanonical(t *testing.T, data []byte) bool {
	t.Helper()
	got, ok := decodeCanonical(data)
	if !ok {
		return false
	}
	want, err := decodeReflect(data)
	if err != nil {
		t.Fatalf("canonical decoder accepted a document encoding/json rejects (%v): %.120q", err, data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("canonical and encoding/json decodes differ:\n%+v\n%+v", got, want)
	}
	back, err := got.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatalf("accepted document does not re-encode to itself:\n in: %.200q\nout: %.200q", data, back)
	}
	return true
}

// fillNonZero sets every exported field reachable from v to a non-zero
// value, leaving pointers nil; *n varies the values. A kind it does not
// know fails the test: extend it together with decodeCanonical.
func fillNonZero(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	ints := []int64{math.MinInt64, -7, 1, 1234567890123, math.MaxInt64}
	uints := []uint64{1, 10, 987654321, math.MaxUint64}
	floats := []float64{0.125, 3.5544e-7, 1.7659530468750001e-6, -2.5e21, 123456.789, 5e-324}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillNonZero(t, v.Field(i), n)
			}
		}
	case reflect.Pointer:
		// Obs and Profile: the canonical document has them null.
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fillNonZero(t, s.Index(i), n)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		// 10 sorts before 2 as a string: the encoder's order, not the
		// numeric one.
		for _, k := range []int64{2, 10, -3, 0} {
			key := reflect.New(v.Type().Key()).Elem()
			key.SetInt(k)
			val := reflect.New(v.Type().Elem()).Elem()
			fillNonZero(t, val, n)
			m.SetMapIndex(key, val)
		}
		v.Set(m)
	case reflect.String:
		v.SetString(strings.Repeat("x", *n%3) + "DDR3-m0-ch1 ✓ é")
	case reflect.Int, reflect.Int64:
		v.SetInt(ints[*n%len(ints)])
	case reflect.Uint64:
		v.SetUint(uints[*n%len(uints)])
	case reflect.Float64:
		v.SetFloat(floats[*n%len(floats)])
	default:
		t.Fatalf("fillNonZero: unhandled %s field of kind %s", v.Type(), v.Kind())
	}
}

// TestCanonicalDecodeCoversSchema pins decodeCanonical to Result's type
// tree: with every field of every nested type set, MarshalJSON's output
// must take the canonical path and round-trip. A field added to Result or
// any type inside it, without a matching decoder line, fails here instead
// of silently sending every cache hit down the encoding/json fallback.
// Every golden configuration's result must take the canonical path too.
func TestCanonicalDecodeCoversSchema(t *testing.T) {
	for name, data := range canonicalDocs(t) {
		if !checkCanonical(t, data) {
			t.Errorf("%s: canonical decoder declined MarshalJSON's own output", name)
		}
	}
	for round := 0; round < 5; round++ {
		var r Result
		n := round
		fillNonZero(t, reflect.ValueOf(&r).Elem(), &n)
		r.memEnergyJ = 1.5e-3
		r.coreEnergyJ = 2.25
		data, err := r.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !checkCanonical(t, data) {
			t.Fatalf("canonical decoder declined a fully populated result; update decode.go for the new schema:\n%s", data)
		}
		got, _ := decodeCanonical(data)
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("round %d: decoded result differs from the original:\n%+v\n%+v", round, got, r)
		}
	}
}

// nonCanonicalVariants rewrites one canonical document into forms
// encoding/json accepts or rejects but decodeCanonical must decline.
func nonCanonicalVariants(t testing.TB, doc []byte) map[string][]byte {
	var indented bytes.Buffer
	if err := json.Indent(&indented, doc, "", " "); err != nil {
		t.Fatal(err)
	}
	replace := func(old, new string) []byte {
		if !bytes.Contains(doc, []byte(old)) {
			t.Fatalf("document lacks %q", old)
		}
		return bytes.Replace(doc, []byte(old), []byte(new), 1)
	}
	var r Result
	if err := r.UnmarshalJSON(doc); err != nil {
		t.Fatal(err)
	}
	r.Name = "a<b"
	escaped, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(doc, []byte(`,"Policy":`))
	j := bytes.Index(doc, []byte(`,"Cores":`))
	reordered := append(append(append([]byte(`{`), doc[i+1:j]...), ','), doc[1:i]...)
	reordered = append(reordered, doc[j:]...)
	return map[string][]byte{
		"whitespace":     indented.Bytes(),
		"reordered":      reordered,
		"escaped-name":   escaped,
		"unescaped-html": replace(`"Name":"`, `"Name":"<&>`),
		"exponent-uint":  replace(`"Evictions":`, `"Evictions":1e3,"x":`),
		"negative-uint":  replace(`"Faults":`, `"Faults":-1,"y":`),
		"negative-zero":  replace(`"Kind":0,`, `"Kind":-0,`),
		"leading-zero":   replace(`"Kind":0,`, `"Kind":00,`),
		"case-variant":   replace(`"Elapsed":`, `"elapsed":`),
		"unknown-key":    replace(`"Obs":null`, `"Obs":null,"Extra":1`),
		"obs-object":     replace(`"Obs":null`, `"Obs":{"counters":{"a":1}}`),
		"profile-object": replace(`"Profile":null`, `"Profile":{}`),
		"trailing":       append(append([]byte(nil), doc...), ' '),
		"null":           []byte("null"),
	}
}

// TestResultDecodeFallback: non-canonical documents decline the fast
// path and decode exactly as encoding/json decodes them, errors included.
func TestResultDecodeFallback(t *testing.T) {
	docs := canonicalDocs(t)
	for name, data := range nonCanonicalVariants(t, docs["fixed-ddr3-1core"]) {
		if _, ok := decodeCanonical(data); ok {
			t.Errorf("%s: canonical decoder accepted a non-canonical document", name)
		}
		want, wantErr := decodeReflect(data)
		var got Result
		err := got.UnmarshalJSON(data)
		if (err != nil) != (wantErr != nil) {
			t.Errorf("%s: UnmarshalJSON error %v, encoding/json %v", name, err, wantErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fallback decode differs from encoding/json", name)
		}
	}
}

// TestResultUnmarshalRejectsNonObject: null, or any other non-object,
// is an error, never an empty Result.
func TestResultUnmarshalRejectsNonObject(t *testing.T) {
	for _, doc := range []string{"null", " null", "[]", `"x"`, "1", "true", ""} {
		var r Result
		if err := r.UnmarshalJSON([]byte(doc)); err == nil {
			t.Errorf("UnmarshalJSON(%q) accepted a non-object", doc)
		}
		var w struct{ R Result }
		if err := json.Unmarshal([]byte(`{"R":`+doc+`}`), &w); err == nil && doc != "" {
			t.Errorf("a nested %q result decoded without error", doc)
		}
	}
}

// TestResultUnmarshalReplacesReceiver: decoding into a used Result
// leaves nothing of its old contents, on either path.
func TestResultUnmarshalReplacesReceiver(t *testing.T) {
	docs := canonicalDocs(t)
	small := docs["fixed-ddr3-1core"]
	variants := nonCanonicalVariants(t, small)
	for _, data := range [][]byte{small, variants["whitespace"]} {
		var fresh Result
		if err := fresh.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		var used Result
		if err := used.UnmarshalJSON(docs["fixed-hbm-4core"]); err != nil {
			t.Fatal(err)
		}
		used.OS.PagesByModule[99] = 1
		if err := used.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(used, fresh) {
			t.Errorf("decoding into a used Result kept old contents:\n%+v\n%+v", used, fresh)
		}
	}
}

// FuzzResultDecode: for any input, decodeCanonical declines or returns
// exactly encoding/json's Result, energies included, which re-encodes to
// the input bytes.
func FuzzResultDecode(f *testing.F) {
	docs := canonicalDocs(f)
	for _, data := range docs {
		f.Add(data)
	}
	for _, data := range nonCanonicalVariants(f, docs["fixed-ddr3-1core"]) {
		f.Add(data)
	}
	metrics := goldenCases(f)[0]
	metrics.cfg.Obs.Metrics = true
	withObs, err := runGolden(f, metrics).MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withObs)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCanonical(t, data)
	})
}

var sinkResult Result

// BenchmarkResultUnmarshal: decoding the four-core heterogeneous golden
// result (a typical sweep document), canonically and by encoding/json.
func BenchmarkResultUnmarshal(b *testing.B) {
	data := canonicalDocs(b)["heterapp-config1-4core"]
	b.Run("canonical", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := sinkResult.UnmarshalJSON(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := decodeReflect(data)
			if err != nil {
				b.Fatal(err)
			}
			sinkResult = res
		}
	})
}
