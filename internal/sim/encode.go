package sim

import (
	"encoding/json"
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

// resultWire adds the unexported energy accumulators to the wire format so
// a Result survives a disk round-trip with MemEnergyJ/SystemEDP intact.
// All other fields are plain exported data.
type resultWire struct {
	*resultAlias
	MemEnergyJ  float64 `json:"mem_energy_j"`
	CoreEnergyJ float64 `json:"core_energy_j"`
}

// resultAlias strips Result's methods so Marshal/Unmarshal don't recurse.
type resultAlias Result

// MarshalJSON implements json.Marshaler.
func (r *Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(&resultWire{
		resultAlias: (*resultAlias)(r),
		MemEnergyJ:  r.memEnergyJ,
		CoreEnergyJ: r.coreEnergyJ,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *Result) UnmarshalJSON(data []byte) error {
	aux := resultWire{resultAlias: (*resultAlias)(r)}
	if err := json.Unmarshal(data, &aux); err != nil {
		return fmt.Errorf("sim: decoding result: %w", err)
	}
	r.memEnergyJ = aux.MemEnergyJ
	r.coreEnergyJ = aux.CoreEnergyJ
	return nil
}
