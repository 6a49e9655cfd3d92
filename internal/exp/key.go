package exp

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"moca/internal/cache"
	"moca/internal/classify"
	"moca/internal/core"
	"moca/internal/obs"
	"moca/internal/sim"
	"moca/internal/workload"
)

// Cache keys content-address work by everything that determines its
// outcome, as canonical JSON (encoding/json sorts map keys, so identical
// inputs always produce identical bytes). A result key is spliced from
// separately encoded fragments by appendResultKey rather than marshalled
// in one piece, so a Runner encodes each system config and each app's
// process spec once and reuses the bytes across runs; the splice writes
// exactly what json.Marshal writes for resultKey. The simulator version
// salt is deliberately NOT part of the key: it is the first line of each
// on-disk entry instead, so a salt bump lands on the same file and evicts
// the stale entry rather than stranding it forever (see RunCache).

// resultKey is the canonical identity of one measured simulation: the
// fully resolved system configuration (minus presentation-only fields),
// the per-core process specs carrying the instrumentation the policy
// reads (ClassMap under MOCA, AppClass under Heter-App), and the windows,
// the profile window only under those two policies. appendResultKey
// writes its encoding; the key tests marshal it as the reference.
type resultKey struct {
	Kind    string         `json:"kind"` // "result"
	Cfg     sim.Config     `json:"cfg"`
	Procs   []sim.ProcSpec `json:"procs"`
	Measure uint64         `json:"measure"`
	Window  uint64         `json:"profile_window,omitempty"`
	// Metrics records whether the run carries an obs snapshot: a cached
	// metrics-off result must not satisfy a metrics-on request.
	Metrics bool `json:"metrics"`
}

// configKey encodes the resultKey.Cfg fragment of cfg's key.
// Presentation-only fields (Config.Name) and non-data fields (Config.Obs
// sinks) are excluded; everything else that shapes the run (modules,
// policy, chains, thresholds, scheduler knobs) is included.
func configKey(cfg sim.Config) ([]byte, error) {
	cfg.Name = ""
	cfg.Obs = obs.Options{}
	data, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("exp: serializing result cache key: %w", err)
	}
	return data, nil
}

// procKey encodes one element of the resultKey.Procs fragment: p with
// its non-data Stream cleared.
func procKey(p sim.ProcSpec) ([]byte, error) {
	p.Stream = nil
	data, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("exp: serializing result cache key: %w", err)
	}
	return data, nil
}

// appendResultKey appends the JSON encoding of a resultKey to b, given
// the encodings of its Cfg (configKey) and of each of its Procs (procKey).
func appendResultKey(b, cfgKey []byte, procKeys [][]byte, measure, profileWindow uint64, metrics bool) []byte {
	n := len(cfgKey) + 128 // and field names, punctuation, two uint64s
	for _, p := range procKeys {
		n += len(p) + 1
	}
	b = slices.Grow(b, n)
	b = append(b, `{"kind":"result","cfg":`...)
	b = append(b, cfgKey...)
	b = append(b, `,"procs":[`...)
	for i, p := range procKeys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, p...)
	}
	b = append(b, `],"measure":`...)
	b = strconv.AppendUint(b, measure, 10)
	if profileWindow != 0 {
		b = append(b, `,"profile_window":`...)
		b = strconv.AppendUint(b, profileWindow, 10)
	}
	b = append(b, `,"metrics":`...)
	b = strconv.AppendBool(b, metrics)
	return append(b, '}')
}

// profileKey is the canonical identity of one offline profiling run: the
// application spec plus every Framework knob that shapes the profile.
type profileKey struct {
	Kind        string               `json:"kind"` // "profile"
	App         workload.AppSpec     `json:"app"`
	ObjectThr   classify.Thresholds  `json:"object_thresholds"`
	AppThr      classify.Thresholds  `json:"app_thresholds"`
	NamingDepth int                  `json:"naming_depth"`
	Window      uint64               `json:"profile_window"`
	Modules     []sim.ModuleSpec     `json:"modules"`
	Prefetch    cache.PrefetchConfig `json:"prefetch"`
}

// profileCacheKey returns the canonical persistent-cache key for one
// application's offline profile under the framework's settings.
func profileCacheKey(fw *core.Framework, spec workload.AppSpec) ([]byte, error) {
	data, err := json.Marshal(profileKey{
		Kind:        "profile",
		App:         spec,
		ObjectThr:   fw.ObjectThresholds,
		AppThr:      fw.AppThresholds,
		NamingDepth: fw.NamingDepth,
		Window:      fw.ProfileWindow,
		Modules:     fw.ProfileModules,
		Prefetch:    fw.Prefetch,
	})
	if err != nil {
		return nil, fmt.Errorf("exp: serializing profile cache key: %w", err)
	}
	return data, nil
}
