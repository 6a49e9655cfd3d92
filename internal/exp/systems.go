package exp

import (
	"fmt"
	"slices"
	"strings"

	"moca/internal/mem"
	"moca/internal/sim"
)

// SystemByName resolves a command-line system name (ddr3, rl, hbm, lp,
// heter-app, moca, migrate, with an optional @config1/@config2/@config3
// capacity suffix) to a SystemDef. It is the one system-name table:
// moca-sim's -system, moca-trace replay's -system, and moca-served's
// SUBMIT and TRACE_START frames all resolve through it. The returned Name
// is the simulator config name ("homogen-ddr3", "moca", ...), so a
// result's Name is the same whichever of them ran it.
//
// The table is built once, and the names of one system share its Modules
// slice: callers must treat def.Modules as read-only.
func SystemByName(name string) (SystemDef, error) {
	if def, ok := systemTable[name]; ok {
		return def, nil
	}
	if _, suffix, ok := strings.Cut(name, "@"); ok && !slices.ContainsFunc(capacitySuffixes, func(c capacitySuffix) bool { return c.suffix == "@"+suffix }) {
		return SystemDef{}, fmt.Errorf("exp: unknown capacity config %q", suffix)
	}
	return SystemDef{}, fmt.Errorf("exp: unknown system %q", name)
}

// capacitySuffix is one capacity suffix a system name may carry and the
// heterogeneous config it selects; no suffix is config1.
type capacitySuffix struct {
	suffix string
	sel    sim.HeterConfig
}

var capacitySuffixes = []capacitySuffix{{"", sim.Config1}, {"@config1", sim.Config1}, {"@config2", sim.Config2}, {"@config3", sim.Config3}}

// systemTable maps every name SystemByName resolves to its SystemDef. A
// homogeneous system ignores the capacity suffix.
var systemTable = func() map[string]SystemDef {
	homogen := func(name string, kind mem.Kind) SystemDef {
		return SystemDef{Name: name, Modules: sim.Homogeneous(kind), Policy: sim.PolicyFixed}
	}
	ddr3, rl := homogen("homogen-ddr3", mem.DDR3), homogen("homogen-rl", mem.RLDRAM)
	hbm, lp := homogen("homogen-hbm", mem.HBM), homogen("homogen-lp", mem.LPDDR2)
	t := make(map[string]SystemDef)
	for _, c := range capacitySuffixes {
		mods := sim.Heterogeneous(c.sel)
		for _, e := range []struct {
			name string
			def  SystemDef
		}{
			{"ddr3", ddr3}, {"rl", rl}, {"rldram", rl}, {"hbm", hbm}, {"lp", lp}, {"lpddr2", lp},
			{"heter-app", SystemDef{Name: "heter-app", Modules: mods, Policy: sim.PolicyAppLevel}},
			{"moca", SystemDef{Name: "moca", Modules: mods, Policy: sim.PolicyMOCA}},
			{"migrate", SystemDef{Name: "migrate", Modules: mods, Policy: sim.PolicyMigrate}},
		} {
			t[e.name+c.suffix] = e.def
		}
	}
	return t
}()
