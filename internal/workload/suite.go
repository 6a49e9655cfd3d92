package workload

import (
	"fmt"
	"sort"

	"moca/internal/heap"
)

// The synthetic suite mirrors the paper's application selection (Table
// III): four latency-sensitive SPEC/SDVBS apps, three bandwidth-sensitive,
// three non-memory-intensive. Object inventories are invented but
// calibrated so that (a) application-level classes match Table III, (b)
// per-object scatter is diverse as in Fig. 2, and (c) the case studies the
// paper narrates hold: disparity has two dominant objects with the
// less-intense one allocated (and first-touched) first; milc and mser have
// only a few hot objects among many cold ones; gcc is non-intensive
// overall yet owns one object above the MOCA latency threshold.
//
// Sizes are stated at "experiment scale", 1/64 of the paper's system (see
// DESIGN.md): the default heterogeneous system is 4 MB RLDRAM + 12 MB HBM
// + 2x8 MB LPDDR2, so single-application footprints exceed the RLDRAM
// module and four-app mixes pressure total capacity, exactly the capacity
// dynamics the paper's results hinge on.

const (
	kb = 1 << 10
	mb = 1 << 20
)

// suite is the application suite in Table III order, each app by name
// and constructor, so ByName and Names build no spec they do not return.
var suite = []struct {
	name string
	spec func() AppSpec
}{
	{"mcf", MCF}, {"milc", Milc}, {"libquantum", Libquantum}, {"disparity", Disparity}, // L
	{"mser", Mser}, {"lbm", LBM}, {"tracking", Tracking}, // B
	{"gcc", GCC}, {"sift", Sift}, {"stitch", Stitch}, // N
}

// Suite returns the full application suite in Table III order.
func Suite() []AppSpec {
	out := make([]AppSpec, len(suite))
	for i, a := range suite {
		out[i] = a.spec()
	}
	return out
}

// ByName builds the suite's application spec named name. Each call returns
// a fresh spec the caller may mutate.
func ByName(name string) (AppSpec, bool) {
	for _, a := range suite {
		if a.name == name {
			return a.spec(), true
		}
	}
	return AppSpec{}, false
}

// Names lists the suite's application names.
func Names() []string {
	out := make([]string, len(suite))
	for i, a := range suite {
		out[i] = a.name
	}
	return out
}

// MCF models SPEC mcf: network-simplex pointer chasing over node and arc
// arrays — the canonical latency-sensitive application.
func MCF() AppSpec {
	return AppSpec{
		Name:             "mcf",
		ComputePerMemory: 8,
		ComputeJitter:    3,
		Seed:             0x6d6366,
		Objects: []ObjectSpec{
			// The raw input graph is read once at startup: a large cold
			// object whose pages fault first, claiming the best-fit
			// module under application-level placement.
			{Label: "input_graph", Site: 0x4011f0, Context: []heap.Site{0x4009f0}, SizeBytes: 1536 * kb, Pattern: Stream, Weight: 0.015, StrideBytes: 64, WriteFrac: 0.1},
			{Label: "nodes", Site: 0x401200, Context: []heap.Site{0x400a00}, SizeBytes: 2500 * kb, Pattern: Chase, Weight: 0.38, WriteFrac: 0.05},
			{Label: "arcs", Site: 0x401210, Context: []heap.Site{0x400a00}, SizeBytes: 2500 * kb, Pattern: Chase, Weight: 0.30, WriteFrac: 0.02},
			{Label: "basket", Site: 0x401220, Context: []heap.Site{0x400a10}, SizeBytes: 256 * kb, Pattern: Resident, Weight: 0.12, WriteFrac: 0.30, HotBytes: 96 * kb},
			{Label: "dual", Site: 0x401230, Context: []heap.Site{0x400a10}, SizeBytes: 512 * kb, Pattern: Stream, Weight: 0.05, StrideBytes: 8},
		},
		StackWeight: 0.10, CodeWeight: 0.05,
	}
}

// Milc models SPEC milc: a few hot lattice-QCD field objects among many
// cold auxiliary buffers (the Fig. 2 milc shape).
func Milc() AppSpec {
	spec := AppSpec{
		Name:             "milc",
		ComputePerMemory: 10,
		ComputeJitter:    4,
		Seed:             0x6d696c63,
		Objects: []ObjectSpec{
			// Neighbor tables, built during setup and rarely revisited.
			{Label: "geom_tables", Site: 0x4020f0, Context: []heap.Site{0x401ef0}, SizeBytes: 1280 * kb, Pattern: Resident, Weight: 0.015, WriteFrac: 0.2, HotBytes: 16 * kb},
			{Label: "su3_lattice", Site: 0x402100, Context: []heap.Site{0x401f00}, SizeBytes: 3 * mb, Pattern: Chase, Weight: 0.30, WriteFrac: 0.10},
			{Label: "gauge_field", Site: 0x402110, Context: []heap.Site{0x401f00}, SizeBytes: 2 * mb, Pattern: StreamDep, Weight: 0.15, StrideBytes: 64, WriteFrac: 0.05},
			{Label: "momenta", Site: 0x402120, Context: []heap.Site{0x401f10}, SizeBytes: 1 * mb, Pattern: Stream, Weight: 0.08, StrideBytes: 8, WriteFrac: 0.25},
		},
		StackWeight: 0.18, CodeWeight: 0.05, GlobalsWeight: 0.02,
	}
	// Many cold helper buffers: distinct sites, tiny weights.
	for i := 0; i < 6; i++ {
		spec.Objects = append(spec.Objects, ObjectSpec{
			Label:     fmt.Sprintf("tmpvec%d", i),
			Site:      heap.Site(0x402200 + i*0x10),
			Context:   []heap.Site{0x401f20},
			SizeBytes: 96 * kb,
			Pattern:   Resident,
			Weight:    0.02,
			WriteFrac: 0.3,
			HotBytes:  24 * kb,
		})
	}
	return spec
}

// Libquantum models SPEC libquantum: a serialized sweep over one large
// quantum-register array — streaming footprint, latency-bound recurrence.
func Libquantum() AppSpec {
	return AppSpec{
		Name:             "libquantum",
		ComputePerMemory: 8,
		ComputeJitter:    3,
		Seed:             0x6c6962,
		Objects: []ObjectSpec{
			// The classical input state, streamed once during setup.
			{Label: "init_state", Site: 0x4030f0, Context: []heap.Site{0x402ff0}, SizeBytes: 1280 * kb, Pattern: Stream, Weight: 0.015, StrideBytes: 64, WriteFrac: 0.1},
			{Label: "qreg", Site: 0x403100, Context: []heap.Site{0x403000}, SizeBytes: 3584 * kb, Pattern: StreamDep, Weight: 0.35, StrideBytes: 64, WriteFrac: 0.25},
			{Label: "workspace", Site: 0x403110, Context: []heap.Site{0x403010}, SizeBytes: 512 * kb, Pattern: Resident, Weight: 0.15, WriteFrac: 0.4, HotBytes: 96 * kb},
		},
		StackWeight: 0.18, CodeWeight: 0.10,
	}
}

// Disparity models SDVBS disparity, the Section VI-A case study: the
// less-intense image buffer is allocated and initialized first (so under
// Heter-App its pages claim the scarce RLDRAM), while the hotter disparity
// map is allocated second.
func Disparity() AppSpec {
	return AppSpec{
		Name:             "disparity",
		ComputePerMemory: 7,
		ComputeJitter:    3,
		Seed:             0x646973,
		Objects: []ObjectSpec{
			{Label: "images", Site: 0x404100, Context: []heap.Site{0x404000}, SizeBytes: 3 * mb, Pattern: Stream, Weight: 0.28, StrideBytes: 16, WriteFrac: 0.05},
			{Label: "disparity_map", Site: 0x404110, Context: []heap.Site{0x404010}, SizeBytes: 2500 * kb, Pattern: Chase, Weight: 0.36, WriteFrac: 0.30},
			{Label: "kernel_buf", Site: 0x404120, Context: []heap.Site{0x404020}, SizeBytes: 128 * kb, Pattern: Resident, Weight: 0.08, WriteFrac: 0.3, HotBytes: 96 * kb},
		},
		StackWeight: 0.20, CodeWeight: 0.05,
	}
}

// Mser models SDVBS mser: one hot independently-accessed region map among
// many cold objects — bandwidth-sensitive.
func Mser() AppSpec {
	spec := AppSpec{
		Name:             "mser",
		ComputePerMemory: 4,
		ComputeJitter:    2,
		Seed:             0x6d736572,
		Objects: []ObjectSpec{
			// The input image, scanned once up front.
			{Label: "input_image", Site: 0x4050f0, Context: []heap.Site{0x404ff0}, SizeBytes: 1536 * kb, Pattern: Stream, Weight: 0.015, StrideBytes: 64, WriteFrac: 0.05},
			{Label: "region_map", Site: 0x405100, Context: []heap.Site{0x405000}, SizeBytes: 3584 * kb, Pattern: Burst, Weight: 0.45, StrideBytes: 32, WriteFrac: 0.15},
			{Label: "pixel_list", Site: 0x405110, Context: []heap.Site{0x405010}, SizeBytes: 1536 * kb, Pattern: Stream, Weight: 0.15, StrideBytes: 8, WriteFrac: 0.10},
		},
		StackWeight: 0.10, CodeWeight: 0.05,
	}
	for i := 0; i < 5; i++ {
		spec.Objects = append(spec.Objects, ObjectSpec{
			Label:     fmt.Sprintf("hist%d", i),
			Site:      heap.Site(0x405200 + i*0x10),
			Context:   []heap.Site{0x405020},
			SizeBytes: 64 * kb,
			Pattern:   Resident,
			Weight:    0.02,
			WriteFrac: 0.3,
			HotBytes:  32 * kb,
		})
	}
	return spec
}

// LBM models SPEC lbm: a lattice-Boltzmann stencil streaming two large
// grids with heavy writes — the canonical bandwidth-sensitive application.
func LBM() AppSpec {
	return AppSpec{
		Name:             "lbm",
		ComputePerMemory: 3,
		ComputeJitter:    1,
		Seed:             0x6c626d,
		Objects: []ObjectSpec{
			{Label: "src_grid", Site: 0x406100, Context: []heap.Site{0x406000}, SizeBytes: 3 * mb, Pattern: Stream, Weight: 0.33, StrideBytes: 16, WriteFrac: 0.05},
			{Label: "dst_grid", Site: 0x406110, Context: []heap.Site{0x406000}, SizeBytes: 3 * mb, Pattern: Stream, Weight: 0.33, StrideBytes: 16, WriteFrac: 0.80},
		},
		StackWeight: 0.08, CodeWeight: 0.04,
	}
}

// Tracking models SDVBS tracking: streaming image pyramids plus an
// independently-accessed feature table — bandwidth-sensitive.
func Tracking() AppSpec {
	return AppSpec{
		Name:             "tracking",
		ComputePerMemory: 6,
		ComputeJitter:    2,
		Seed:             0x747261,
		Objects: []ObjectSpec{
			// Raw input frames, decoded once.
			{Label: "raw_frames", Site: 0x4070f0, Context: []heap.Site{0x406ff0}, SizeBytes: 1280 * kb, Pattern: Stream, Weight: 0.01, StrideBytes: 64, WriteFrac: 0.1},
			{Label: "pyramid", Site: 0x407100, Context: []heap.Site{0x407000}, SizeBytes: 2560 * kb, Pattern: Stream, Weight: 0.30, StrideBytes: 16, WriteFrac: 0.10},
			{Label: "features", Site: 0x407110, Context: []heap.Site{0x407010}, SizeBytes: 768 * kb, Pattern: Burst, Weight: 0.12, StrideBytes: 32, WriteFrac: 0.20},
			{Label: "blur_buf", Site: 0x407120, Context: []heap.Site{0x407020}, SizeBytes: 512 * kb, Pattern: Resident, Weight: 0.10, WriteFrac: 0.3, HotBytes: 96 * kb},
		},
		StackWeight: 0.15, CodeWeight: 0.06,
	}
}

// GCC models SPEC gcc: non-memory-intensive overall, but with one symbol
// table whose pointer chasing exceeds the MOCA latency threshold — the
// Section VI-A observation that MOCA speeds up gcc by promoting that one
// object to RLDRAM. The node pool allocates many instances from one site,
// exercising the same-site-same-name rule.
func GCC() AppSpec {
	return AppSpec{
		Name:             "gcc",
		ComputePerMemory: 48,
		ComputeJitter:    12,
		Seed:             0x676363,
		Objects: []ObjectSpec{
			{Label: "symtab", Site: 0x408100, Context: []heap.Site{0x408000}, SizeBytes: 1536 * kb, Pattern: Chase, Weight: 0.035, WriteFrac: 0.10},
			{Label: "rtl", Site: 0x408110, Context: []heap.Site{0x408010}, SizeBytes: 1 * mb, Pattern: Resident, Weight: 0.25, WriteFrac: 0.30, HotBytes: 48 * kb},
			{Label: "tree", Site: 0x408120, Context: []heap.Site{0x408010}, SizeBytes: 512 * kb, Pattern: Resident, Weight: 0.20, WriteFrac: 0.30, HotBytes: 48 * kb},
			{Label: "node_pool", Site: 0x408130, Context: []heap.Site{0x408020}, SizeBytes: 8 * kb, Pattern: Resident, Weight: 0.10, WriteFrac: 0.40, Instances: 20},
		},
		StackWeight: 0.25, CodeWeight: 0.10, GlobalsWeight: 0.03,
	}
}

// Sift models SDVBS sift: cache-friendly descriptor computation.
func Sift() AppSpec {
	return AppSpec{
		Name:             "sift",
		ComputePerMemory: 28,
		ComputeJitter:    8,
		Seed:             0x736966,
		Objects: []ObjectSpec{
			{Label: "descriptors", Site: 0x409100, Context: []heap.Site{0x409000}, SizeBytes: 1 * mb, Pattern: Resident, Weight: 0.30, WriteFrac: 0.25, HotBytes: 96 * kb},
			{Label: "dog_stack", Site: 0x409110, Context: []heap.Site{0x409010}, SizeBytes: 768 * kb, Pattern: Resident, Weight: 0.20, WriteFrac: 0.20, HotBytes: 64 * kb},
			{Label: "keypoints", Site: 0x409120, Context: []heap.Site{0x409020}, SizeBytes: 256 * kb, Pattern: Stream, Weight: 0.05, StrideBytes: 16, WriteFrac: 0.10},
		},
		StackWeight: 0.25, CodeWeight: 0.08,
	}
}

// Stitch models SDVBS stitch: cache-friendly panorama blending.
func Stitch() AppSpec {
	return AppSpec{
		Name:             "stitch",
		ComputePerMemory: 32,
		ComputeJitter:    9,
		Seed:             0x737469,
		Objects: []ObjectSpec{
			{Label: "panorama", Site: 0x40a100, Context: []heap.Site{0x40a000}, SizeBytes: 2 * mb, Pattern: Stream, Weight: 0.04, StrideBytes: 32, WriteFrac: 0.50},
			{Label: "blend_buf", Site: 0x40a110, Context: []heap.Site{0x40a010}, SizeBytes: 512 * kb, Pattern: Resident, Weight: 0.25, WriteFrac: 0.30, HotBytes: 96 * kb},
			{Label: "warp_buf", Site: 0x40a120, Context: []heap.Site{0x40a020}, SizeBytes: 256 * kb, Pattern: Resident, Weight: 0.15, WriteFrac: 0.25, HotBytes: 64 * kb},
		},
		StackWeight: 0.25, CodeWeight: 0.08,
	}
}

// NamingProbe is a synthetic application (not part of the Table III
// suite) for the naming-depth ablation: both of its objects are allocated
// through the same wrapper function — identical return address — but from
// different calling contexts, one hot pointer-chaser and one cold buffer.
// The paper's 5-level naming separates them; return-address-only naming
// (depth 1) merges them into one misclassified object, the exact failure
// Fig. 3's convention exists to prevent.
func NamingProbe() AppSpec {
	const wrapperSite = heap.Site(0x40f100) // xmalloc()'s internal call site
	return AppSpec{
		Name:             "namingprobe",
		ComputePerMemory: 8,
		ComputeJitter:    2,
		Seed:             0x70726f6265,
		Objects: []ObjectSpec{
			{Label: "hot_graph", Site: wrapperSite, Context: []heap.Site{0x40f200, 0x40f300}, SizeBytes: 2 * mb, Pattern: Chase, Weight: 0.45, WriteFrac: 0.05},
			{Label: "cold_log", Site: wrapperSite, Context: []heap.Site{0x40f210, 0x40f310}, SizeBytes: 1 * mb, Pattern: Resident, Weight: 0.08, WriteFrac: 0.5, HotBytes: 32 * kb},
		},
		StackWeight: 0.15, CodeWeight: 0.05,
	}
}

// HotspotProbe is a synthetic application (not part of the Table III
// suite) whose one large object has strong page-level skew: 90% of its
// accesses hit a tenth of its pages. Dynamic page migration is built for
// exactly this shape, making the probe the fair stage for the
// MOCA-vs-migration comparison (Section IV-E).
func HotspotProbe() AppSpec {
	return AppSpec{
		Name:             "hotspotprobe",
		ComputePerMemory: 7,
		ComputeJitter:    2,
		Seed:             0x686f74,
		Objects: []ObjectSpec{
			{Label: "skewed_table", Site: 0x40e100, Context: []heap.Site{0x40e000}, SizeBytes: 6 * mb, Pattern: Hotspot, Weight: 0.45, WriteFrac: 0.15},
			{Label: "side_buf", Site: 0x40e110, Context: []heap.Site{0x40e010}, SizeBytes: 256 * kb, Pattern: Resident, Weight: 0.15, WriteFrac: 0.3, HotBytes: 64 * kb},
		},
		StackWeight: 0.15, CodeWeight: 0.05,
	}
}

// Mix is a named 4-application multi-program workload set, using the
// paper's xLyBzN naming (Section V-D).
type Mix struct {
	Name string
	Apps []string
}

// Mixes returns the ten 4-core workload sets used for Figs. 10-13. The
// last five include non-memory-intensive applications, as the paper's
// discussion requires.
func Mixes() []Mix {
	return []Mix{
		{Name: "4L", Apps: []string{"mcf", "milc", "libquantum", "disparity"}},
		{Name: "3L1B", Apps: []string{"mcf", "milc", "disparity", "lbm"}},
		{Name: "2L2B", Apps: []string{"mcf", "libquantum", "lbm", "mser"}},
		{Name: "1L3B", Apps: []string{"mcf", "lbm", "mser", "tracking"}},
		{Name: "2L2B-b", Apps: []string{"milc", "disparity", "mser", "tracking"}},
		{Name: "3L1N", Apps: []string{"milc", "libquantum", "disparity", "gcc"}},
		{Name: "2L1B1N", Apps: []string{"mcf", "milc", "lbm", "gcc"}},
		{Name: "1L1B2N", Apps: []string{"disparity", "tracking", "sift", "stitch"}},
		{Name: "2B2N", Apps: []string{"mser", "tracking", "gcc", "sift"}},
		{Name: "4N", Apps: []string{"gcc", "sift", "stitch", "gcc"}},
	}
}

// ConfigSweepMixes returns the five workload sets of Figs. 14-15.
func ConfigSweepMixes() []Mix {
	want := map[string]bool{"3L1B": true, "1L3B": true, "3L1N": true, "2L1B1N": true, "2B2N": true}
	var out []Mix
	for _, m := range Mixes() {
		if want[m.Name] {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MixByName finds a workload set by name.
func MixByName(name string) (Mix, bool) {
	for _, m := range Mixes() {
		if m.Name == name {
			return m, true
		}
	}
	return Mix{}, false
}

// Specs resolves the mix's app names to specs.
func (m Mix) Specs() ([]AppSpec, error) {
	var out []AppSpec
	for _, name := range m.Apps {
		s, ok := ByName(name)
		if !ok {
			return nil, fmt.Errorf("workload: mix %s references unknown app %q", m.Name, name)
		}
		out = append(out, s)
	}
	return out, nil
}
