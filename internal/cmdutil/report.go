package cmdutil

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"moca/internal/mem"
	"moca/internal/obs"
	"moca/internal/sim"
)

// Report writes a finished run to w: as the jsonReport document if
// asJSON, as tables (per-core IPC and MPKI, channels, page placement)
// otherwise. moca-sim and moca-trace replay both print through it, so a
// replay's output can be compared byte for byte with the generated run's.
func Report(w io.Writer, res *sim.Result, asJSON bool) error {
	if !asJSON {
		return reportText(w, res)
	}
	out := jsonReport{
		System:            res.Name,
		Policy:            res.Policy,
		ElapsedPs:         int64(res.Elapsed),
		Instructions:      res.TotalInstructions(),
		MemAccessTimePs:   int64(res.AvgMemAccessTime()),
		MemEnergyJ:        res.MemEnergyJ(),
		MemPowerW:         res.MemPowerW(),
		MemEDP:            res.MemEDP(),
		SystemEDP:         res.SystemEDP(),
		PagesByKind:       map[string]int{},
		FallbackPages:     res.OS.FallbackPages,
		MigrationEpochs:   res.Migration.Epochs,
		MigrationPromotes: res.Migration.Promotions,
		Metrics:           res.Obs,
	}
	for _, c := range res.Cores {
		out.Cores = append(out.Cores, jsonCore{
			App: c.App, IPC: c.IPC(), LLCMPKI: c.LLCMPKI(), StallPerMiss: c.StallPerMiss(),
		})
	}
	for _, ch := range res.Channels {
		out.Channels = append(out.Channels, jsonChannel{
			Name: ch.Name, Requests: ch.Stats.Requests(),
			AvgNs:      float64(ch.Stats.AvgLatency()) / 1000,
			RowHitRate: ch.Stats.RowHitRate(),
		})
	}
	for kind, n := range res.PagesOnKind() {
		out.PagesByKind[kind.String()] = n
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(data))
	return nil
}

// jsonReport is the machine-readable result schema.
type jsonReport struct {
	System            string         `json:"system"`
	Policy            string         `json:"policy"`
	ElapsedPs         int64          `json:"elapsed_ps"`
	Instructions      uint64         `json:"instructions"`
	MemAccessTimePs   int64          `json:"mem_access_time_ps"`
	MemEnergyJ        float64        `json:"mem_energy_j"`
	MemPowerW         float64        `json:"mem_power_w"`
	MemEDP            float64        `json:"mem_edp"`
	SystemEDP         float64        `json:"system_edp"`
	Cores             []jsonCore     `json:"cores"`
	Channels          []jsonChannel  `json:"channels"`
	PagesByKind       map[string]int `json:"pages_by_kind"`
	FallbackPages     uint64         `json:"fallback_pages"`
	MigrationEpochs   uint64         `json:"migration_epochs,omitempty"`
	MigrationPromotes uint64         `json:"migration_promotions,omitempty"`
	// Metrics is the observability snapshot (present with -metrics).
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

type jsonCore struct {
	App          string  `json:"app"`
	IPC          float64 `json:"ipc"`
	LLCMPKI      float64 `json:"llc_mpki"`
	StallPerMiss float64 `json:"stall_per_miss"`
}

type jsonChannel struct {
	Name       string  `json:"name"`
	Requests   uint64  `json:"requests"`
	AvgNs      float64 `json:"avg_ns"`
	RowHitRate float64 `json:"row_hit_rate"`
}

// reportText writes res as Report's tables.
func reportText(w io.Writer, res *sim.Result) error {
	fmt.Fprintf(w, "system: %s (policy %s)\n", res.Name, res.Policy)
	fmt.Fprintf(w, "window: %.2f ms simulated, %d instructions total\n",
		float64(res.Elapsed)/1e9, res.TotalInstructions())
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-6s %-12s %8s %10s %12s %10s\n", "core", "app", "IPC", "LLC MPKI", "stall/miss", "TLB hit")
	for i, c := range res.Cores {
		fmt.Fprintf(w, "%-6d %-12s %8.2f %10.2f %12.1f %9.1f%%\n",
			i, c.App, c.IPC(), c.LLCMPKI(), c.StallPerMiss(), c.TLBHitRate*100)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-22s %10s %10s %10s %10s\n", "channel", "requests", "avg ns", "row-hit", "queue ns")
	for _, ch := range res.Channels {
		st := ch.Stats
		if st.Requests() == 0 {
			fmt.Fprintf(w, "%-22s %10d\n", ch.Name, 0)
			continue
		}
		fmt.Fprintf(w, "%-22s %10d %10.1f %9.0f%% %10.1f\n",
			ch.Name, st.Requests(), float64(st.AvgLatency())/1000,
			st.RowHitRate()*100, float64(st.TotalQueueing)/float64(st.Requests())/1000)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "memory access time: %.1f ns/request\n", float64(res.AvgMemAccessTime())/1000)
	fmt.Fprintf(w, "memory power:       %.4f W (energy %.3e J)\n", res.MemPowerW(), res.MemEnergyJ())
	fmt.Fprintf(w, "memory EDP:         %.3e\n", res.MemEDP())
	fmt.Fprintf(w, "system EDP:         %.3e\n", res.SystemEDP())
	fmt.Fprintln(w)
	fmt.Fprintln(w, "page placement (pages per module kind):")
	pages := res.PagesOnKind()
	kinds := make([]mem.Kind, 0, len(pages))
	for kind := range pages {
		kinds = append(kinds, kind)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, kind := range kinds {
		fmt.Fprintf(w, "  %-8v %6d\n", kind, pages[kind])
	}
	if res.OS.FallbackPages > 0 {
		fmt.Fprintf(w, "  (%d pages fell back past their first-choice module)\n", res.OS.FallbackPages)
	}
	if m := res.Migration; m.Epochs > 0 {
		fmt.Fprintf(w, "migration: %d epochs, %d promotions, %d demotions, %d KB copied, %d shootdowns\n",
			m.Epochs, m.Promotions, m.Demotions, m.CopiedKB, m.Shootdowns)
	}
	if res.Obs != nil {
		fmt.Fprintln(w)
		fmt.Fprint(w, res.Obs.Table("metrics (measured window)").String())
		data, err := json.MarshalIndent(res.Obs, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nmetrics snapshot (JSON):\n%s\n", data)
	}
	return nil
}
