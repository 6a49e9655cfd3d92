package profile_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"moca/internal/classify"
	"moca/internal/core"
	"moca/internal/heap"
	"moca/internal/profile"
	"moca/internal/workload"
)

// suiteDocs profiles every suite app at a short window and returns each
// profile as the run cache stores it (json.Marshal), keyed by app.
func suiteDocs(tb testing.TB) map[string][]byte {
	tb.Helper()
	fw := core.NewFramework()
	fw.ProfileWindow = 20_000
	docs := make(map[string][]byte)
	for _, spec := range workload.Suite() {
		pr, err := fw.Profile(spec)
		if err != nil {
			tb.Fatal(err)
		}
		data, err := json.Marshal(pr)
		if err != nil {
			tb.Fatal(err)
		}
		docs[spec.Name] = data
	}
	return docs
}

// fullProfile has every field of Profile and ObjectProfile set, and the
// edge values the canonical decoder must get right: a negative zero and
// floats encoding/json writes with an exponent.
func fullProfile() profile.Profile {
	return profile.Profile{
		App:          "app ✓",
		Instructions: math.MaxUint64,
		Thresholds:   classify.Thresholds{LatMPKI: 1e-7, BWStallCycles: 2.5e21},
		Objects: []profile.ObjectProfile{{
			ID: math.MaxUint32, Key: 1 << 63, Label: "nodes é", Site: 7, Context: []heap.Site{1, 2, 3},
			SizeBytes: 4096, Allocs: 2, LLCMisses: 10, MemLoads: 9, StallCycles: 8, Stores: 7, Loads: 6,
			MPKI: 0.125, StallPerMiss: math.Copysign(0, -1), WPKI: 5e-324, WriteRatio: 0.5, Class: classify.LatencySensitive,
		}},
	}
}

// edgeDocs are profiles encoding/json writes (which the canonical decoder
// must accept) and rewrites of them it must decline: escapes, -0 where an
// integer goes, exponent floats in a form encoding/json does not write,
// an empty or null context, an empty label, whitespace.
func edgeDocs(tb testing.TB) (accept, decline map[string][]byte) {
	tb.Helper()
	marshal := func(pr profile.Profile) []byte {
		data, err := json.Marshal(pr)
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	full := marshal(fullProfile())
	bare := fullProfile()
	bare.Objects[0].Label, bare.Objects[0].Context = "", []heap.Site{}
	noLabel := marshal(bare)
	var noObjects, emptyObjects profile.Profile
	emptyObjects.Objects = []profile.ObjectProfile{}
	escaped := fullProfile()
	escaped.Objects[0].Label = `a<b"c\`
	indented, err := fullProfile().Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	replace := func(doc []byte, old, new string) []byte {
		if !bytes.Contains(doc, []byte(old)) {
			tb.Fatalf("document lacks %q: %s", old, doc)
		}
		return bytes.Replace(doc, []byte(old), []byte(new), 1)
	}
	accept = map[string][]byte{
		"full":          full,
		"missing-label": noLabel,
		"null-objects":  marshal(noObjects),
		"empty-objects": marshal(emptyObjects),
	}
	decline = map[string][]byte{
		"escaped-label":    marshal(escaped),
		"indented":         indented,
		"negative-zero":    replace(full, `"class":1`, `"class":-0`),
		"exponent-upper":   replace(full, `"LatMPKI":1e-7`, `"LatMPKI":1E-7`),
		"exponent-padded":  replace(full, `"LatMPKI":1e-7`, `"LatMPKI":1e-07`),
		"exponent-uint":    replace(full, `"allocs":2`, `"allocs":2e0`),
		"empty-context":    replace(noLabel, `"site":7`, `"site":7,"context":[]`),
		"null-context":     replace(noLabel, `"site":7`, `"site":7,"context":null`),
		"empty-label":      replace(noLabel, `"key":`, `"label":"","key":`),
		"label-after-site": replace(noLabel, `,"size_bytes"`, `,"label":"x","size_bytes"`),
		"id-overflow":      replace(full, `"id":4294967295`, `"id":4294967296`),
		"unknown-key":      replace(full, `"class":1`, `"class":1,"extra":0`),
		"trailing":         append(append([]byte(nil), full...), ' '),
		"null":             []byte("null"),
	}
	return accept, decline
}

// checkCanonical asserts the decoder's contract on data: a decline, or a
// Profile equal to encoding/json's that re-encodes to data exactly. It
// reports whether data was accepted.
func checkCanonical(t *testing.T, data []byte) bool {
	t.Helper()
	got, ok := profile.DecodeCanonical(data)
	if !ok {
		return false
	}
	var want profile.Profile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("canonical decoder accepted a document encoding/json rejects (%v): %.120q", err, data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("canonical and encoding/json decodes differ:\n%+v\n%+v", got, want)
	}
	back, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatalf("accepted document does not re-encode to itself:\n in: %.200q\nout: %.200q", data, back)
	}
	return true
}

// TestProfileDecodeCoversSchema pins the canonical decoder to the Profile
// type tree: fullProfile sets every field, so a field added without a
// decoder line fails here instead of sending every cached profile down
// the encoding/json fallback. Every suite profile takes the canonical
// path too.
func TestProfileDecodeCoversSchema(t *testing.T) {
	full := fullProfile()
	for _, v := range []reflect.Value{reflect.ValueOf(full), reflect.ValueOf(full.Objects[0])} {
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() && v.Type().Field(i).Name != "StallPerMiss" {
				t.Errorf("fullProfile leaves %s.%s zero; set it and decode it", v.Type().Name(), v.Type().Field(i).Name)
			}
		}
	}
	accept, _ := edgeDocs(t)
	for name, data := range suiteDocs(t) {
		accept["suite/"+name] = data
	}
	for name, data := range accept {
		if !checkCanonical(t, data) {
			t.Errorf("%s: canonical decoder declined json.Marshal's output: %.200s", name, data)
		}
	}
}

// TestProfileDecodeFallback: documents json.Marshal does not write
// decline the canonical path, and Unmarshal decodes them as encoding/json
// does, errors included.
func TestProfileDecodeFallback(t *testing.T) {
	_, decline := edgeDocs(t)
	for name, data := range decline {
		if _, ok := profile.DecodeCanonical(data); ok {
			t.Errorf("%s: canonical decoder accepted %.200s", name, data)
		}
		var want profile.Profile
		wantErr := json.Unmarshal(data, &want)
		if name == "null" {
			wantErr = errors.New("not an object")
		}
		got, err := profile.Unmarshal(data)
		if (err != nil) != (wantErr != nil) {
			t.Errorf("%s: Unmarshal error %v, encoding/json %v", name, err, wantErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fallback decode differs from encoding/json", name)
		}
	}
}

// FuzzProfileDecode: for any input, the canonical decoder declines or
// returns exactly encoding/json's Profile, which re-encodes to the input.
func FuzzProfileDecode(f *testing.F) {
	for _, data := range suiteDocs(f) {
		f.Add(data)
	}
	accept, decline := edgeDocs(f)
	for _, docs := range []map[string][]byte{accept, decline} {
		for _, data := range docs {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCanonical(t, data)
	})
}
