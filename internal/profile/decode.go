package profile

import (
	"moca/internal/canon"
	"moca/internal/classify"
	"moca/internal/heap"
)

// decodeCanonical decodes a Profile without reflection, but only from
// exactly the bytes json.Marshal writes for one (the run cache's profile
// entries): every key a fixed literal in struct order, label and context
// present only when non-empty, integers in strconv's form, floats in
// encoding/json's, strings holding nothing encoding/json escapes. It
// reports false for anything else (Marshal's indented output included),
// and Unmarshal then falls back to encoding/json, which stays the
// reference decoder (FuzzProfileDecode).
func decodeCanonical(data []byte) (Profile, bool) {
	d := canonDec{canon.NewDec(data)}
	var pr Profile
	d.Lit(`{"app":`)
	pr.App = d.Str()
	d.Lit(`,"instructions":`)
	pr.Instructions = d.Uint()
	d.Lit(`,"thresholds":{"LatMPKI":`)
	pr.Thresholds.LatMPKI = d.Float()
	d.Lit(`,"BWStallCycles":`)
	pr.Thresholds.BWStallCycles = d.Float()
	d.Lit(`},"objects":`)
	if d.Open('[') {
		// The suite's apps name 5 to 13 objects each.
		pr.Objects = make([]ObjectProfile, 0, 16)
		for d.More(']', len(pr.Objects)) {
			pr.Objects = append(pr.Objects, d.object())
		}
	}
	d.Lit(`}`)
	if !d.Done() {
		return Profile{}, false
	}
	return pr, true
}

// canonDec is decodeCanonical's cursor: the shared canonical scanner,
// with the Profile schema's readers as its methods.
type canonDec struct{ canon.Dec }

func (d *canonDec) object() (o ObjectProfile) {
	d.Lit(`{"id":`)
	o.ID = heap.NameID(d.Uint32())
	d.Lit(`,"key":`)
	o.Key = heap.NameKey(d.Uint())
	if d.Opt(`,"label":`) {
		if o.Label = d.Str(); o.Label == "" {
			d.Fail() // omitempty never writes an empty label
		}
	}
	d.Lit(`,"site":`)
	o.Site = heap.Site(d.Uint())
	if d.Opt(`,"context":`) {
		// omitempty writes neither null nor an empty context.
		if !d.Open('[') || !d.More(']', 0) {
			d.Fail()
		}
		for d.OK() {
			o.Context = append(o.Context, heap.Site(d.Uint()))
			if !d.More(']', len(o.Context)) {
				break
			}
		}
	}
	d.Lit(`,"size_bytes":`)
	o.SizeBytes = d.Uint()
	d.Lit(`,"allocs":`)
	o.Allocs = d.Uint()
	d.Lit(`,"llc_misses":`)
	o.LLCMisses = d.Uint()
	d.Lit(`,"mem_loads":`)
	o.MemLoads = d.Uint()
	d.Lit(`,"stall_cycles":`)
	o.StallCycles = d.Uint()
	d.Lit(`,"stores":`)
	o.Stores = d.Uint()
	d.Lit(`,"loads":`)
	o.Loads = d.Uint()
	d.Lit(`,"mpki":`)
	o.MPKI = d.Float()
	d.Lit(`,"stall_per_miss":`)
	o.StallPerMiss = d.Float()
	d.Lit(`,"wpki":`)
	o.WPKI = d.Float()
	d.Lit(`,"write_ratio":`)
	o.WriteRatio = d.Float()
	d.Lit(`,"class":`)
	o.Class = classify.Class(d.Int())
	d.Lit(`}`)
	return o
}
