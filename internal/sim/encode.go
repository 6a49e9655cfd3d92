package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// BehaviorVersion identifies the simulator's behavioral revision: any
// change that can alter timing, accounting, or energy of a run must bump
// it. The experiment harness folds it into the salt of its persistent
// result cache, so stale results from an older simulator are evicted
// instead of silently reused.
// v2: hashed set-associative TLB (hit/miss counts differ from the old
// fully-associative LRU) and bounded prefetch usefulness filter.
// v3: windowed execution engine — every core->channel submission pays a
// fixed one-window link latency (windowCycles cycles), so memory timing
// shifts uniformly relative to v2.
// v4: event.* counts only events the queue runs; no virtual hits, no
// credited polling ticks; every other field equals v3.
const BehaviorVersion = 4

// resultWire is the wire format: Result's exported fields, then the
// unexported energy accumulators, so a Result survives a disk round-trip
// with MemEnergyJ/SystemEDP intact.
type resultWire struct {
	*resultAlias
	MemEnergyJ  float64 `json:"mem_energy_j"`
	CoreEnergyJ float64 `json:"core_energy_j"`
}

// resultAlias strips Result's methods so Marshal/Unmarshal don't recurse.
type resultAlias Result

// MarshalJSON implements json.Marshaler. Its output is encoding/json's
// compact form of resultWire: no whitespace, fields in struct order,
// map keys sorted.
func (r *Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(&resultWire{
		resultAlias: (*resultAlias)(r),
		MemEnergyJ:  r.memEnergyJ,
		CoreEnergyJ: r.coreEnergyJ,
	})
}

// UnmarshalJSON implements json.Unmarshaler. It replaces *r with the
// result data encodes, and rejects any document that is not a JSON
// object, null included, so an empty payload never reads as a zero
// result. MarshalJSON's own output for a result without an obs snapshot
// or profiles goes through decodeCanonical; anything else is decoded by
// encoding/json.
func (r *Result) UnmarshalJSON(data []byte) error {
	if res, ok := decodeCanonical(data); ok {
		*r = res
		return nil
	}
	res, err := decodeReflect(data)
	if err != nil {
		return fmt.Errorf("sim: decoding result: %w", err)
	}
	*r = res
	return nil
}

// decodeReflect is the encoding/json decoder: any JSON object
// json.Unmarshal accepts, into a fresh Result. Other documents are
// errors; json.Unmarshal alone would read null as a zero Result.
func decodeReflect(data []byte) (Result, error) {
	if trimmed := bytes.TrimLeft(data, " \t\r\n"); len(trimmed) == 0 || trimmed[0] != '{' {
		return Result{}, errors.New("not a JSON object")
	}
	var res Result
	aux := resultWire{resultAlias: (*resultAlias)(&res)}
	if err := json.Unmarshal(data, &aux); err != nil {
		return Result{}, err
	}
	res.memEnergyJ = aux.MemEnergyJ
	res.coreEnergyJ = aux.CoreEnergyJ
	return res, nil
}
