package exp

import (
	"fmt"
	"strings"

	"moca/internal/mem"
	"moca/internal/sim"
)

// SystemByName resolves a command-line system name (ddr3, rl, hbm, lp,
// heter-app, moca, migrate, with an optional @config2/@config3 capacity
// suffix) to a SystemDef. It is the one system-name table: moca-sim's
// -system, moca-trace replay's -system, and moca-served's SUBMIT and
// TRACE_START frames all resolve through it. The returned Name is the
// simulator config name ("homogen-ddr3", "moca", ...), so a result's Name
// is the same whichever of them ran it.
func SystemByName(name string) (SystemDef, error) {
	base, sel := name, sim.Config1
	if i := strings.Index(name, "@"); i >= 0 {
		base = name[:i]
		switch name[i+1:] {
		case "config1":
			sel = sim.Config1
		case "config2":
			sel = sim.Config2
		case "config3":
			sel = sim.Config3
		default:
			return SystemDef{}, fmt.Errorf("exp: unknown capacity config %q", name[i+1:])
		}
	}
	switch base {
	case "ddr3":
		return SystemDef{Name: "homogen-ddr3", Modules: sim.Homogeneous(mem.DDR3), Policy: sim.PolicyFixed}, nil
	case "rl", "rldram":
		return SystemDef{Name: "homogen-rl", Modules: sim.Homogeneous(mem.RLDRAM), Policy: sim.PolicyFixed}, nil
	case "hbm":
		return SystemDef{Name: "homogen-hbm", Modules: sim.Homogeneous(mem.HBM), Policy: sim.PolicyFixed}, nil
	case "lp", "lpddr2":
		return SystemDef{Name: "homogen-lp", Modules: sim.Homogeneous(mem.LPDDR2), Policy: sim.PolicyFixed}, nil
	case "heter-app":
		return SystemDef{Name: "heter-app", Modules: sim.Heterogeneous(sel), Policy: sim.PolicyAppLevel}, nil
	case "moca":
		return SystemDef{Name: "moca", Modules: sim.Heterogeneous(sel), Policy: sim.PolicyMOCA}, nil
	case "migrate":
		return SystemDef{Name: "migrate", Modules: sim.Heterogeneous(sel), Policy: sim.PolicyMigrate}, nil
	default:
		return SystemDef{}, fmt.Errorf("exp: unknown system %q", name)
	}
}

// ReplaySystemByName is SystemByName for trace replays (moca-trace replay
// and moca-served's TRACE_START). A replay runs one recorded stream with
// no profiling run behind it, so its process carries no class map and no
// application class; MOCA and Heter-App place pages by exactly those, and
// a replay under them would silently be neither. They are refused.
func ReplaySystemByName(name string) (SystemDef, error) {
	def, err := SystemByName(name)
	if err != nil {
		return SystemDef{}, err
	}
	if def.Policy == sim.PolicyMOCA || def.Policy == sim.PolicyAppLevel {
		return SystemDef{}, fmt.Errorf("exp: system %q places pages by profiled classes, which a trace replay does not carry; replay on migrate or a homogeneous system", name)
	}
	return def, nil
}
