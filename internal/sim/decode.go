package sim

import (
	"moca/internal/alloc"
	"moca/internal/cache"
	"moca/internal/canon"
	"moca/internal/cpu"
	"moca/internal/event"
	"moca/internal/mem"
	"moca/internal/power"
)

// decodeCanonical decodes a Result without reflection, but only from
// exactly the bytes MarshalJSON emits for a result whose Obs and every
// core's Profile are nil. Every key is a fixed literal in struct order;
// integers are in strconv's form and floats in encoding/json's; map keys
// are ascending; strings hold nothing encoding/json would escape or
// replace. It reports false for anything else (whitespace, reordered,
// missing, unknown or case-variant keys, escapes, invalid UTF-8, a
// non-null Obs or Profile, trailing bytes), and UnmarshalJSON then falls
// back to encoding/json, which stays the reference decoder. So whenever
// it accepts data, the result equals encoding/json's and re-encodes to
// data byte for byte (FuzzResultDecode, TestCanonicalDecodeCoversSchema).
func decodeCanonical(data []byte) (Result, bool) {
	d := canonDec{canon.NewDec(data)}
	var r Result
	d.Lit(`{"Name":`)
	r.Name = d.Str()
	d.Lit(`,"Policy":`)
	r.Policy = d.Str()
	// The initial capacities hold the paper's largest systems (four
	// cores, four channels on four modules) in one allocation each.
	d.Lit(`,"Cores":`)
	if d.Open('[') {
		r.Cores = make([]CoreResult, 0, 4)
		for d.More(']', len(r.Cores)) {
			r.Cores = append(r.Cores, d.core())
		}
	}
	d.Lit(`,"Channels":`)
	if d.Open('[') {
		r.Channels = make([]ChannelResult, 0, 8)
		for d.More(']', len(r.Channels)) {
			r.Channels = append(r.Channels, d.channel())
		}
	}
	d.Lit(`,"OS":{"Faults":`)
	r.OS.Faults = d.Uint()
	d.Lit(`,"FallbackPages":`)
	r.OS.FallbackPages = d.Uint()
	d.Lit(`,"OOMFailures":`)
	r.OS.OOMFailures = d.Uint()
	d.Lit(`,"PagesByModule":`)
	r.OS.PagesByModule = canon.IntMap(&d.Dec, d.Uint)
	d.Lit(`},"Migration":`)
	r.Migration = d.migStats()
	d.Lit(`,"ModuleKinds":`)
	if d.Open('[') {
		r.ModuleKinds = make([]mem.Kind, 0, 8)
		for d.More(']', len(r.ModuleKinds)) {
			r.ModuleKinds = append(r.ModuleKinds, mem.Kind(d.Int()))
		}
	}
	d.Lit(`,"Elapsed":`)
	r.Elapsed = event.Time(d.Int64())
	d.Lit(`,"Obs":null,"mem_energy_j":`)
	r.memEnergyJ = d.Float()
	d.Lit(`,"core_energy_j":`)
	r.coreEnergyJ = d.Float()
	d.Lit(`}`)
	if !d.Done() {
		return Result{}, false
	}
	return r, true
}

func (d *canonDec) core() (c CoreResult) {
	d.Lit(`{"App":`)
	c.App = d.Str()
	d.Lit(`,"CPU":`)
	c.CPU = d.cpuStats()
	d.Lit(`,"Hier":{"DemandMisses":`)
	c.Hier.DemandMisses = d.Uint()
	d.Lit(`,"MergedMisses":`)
	c.Hier.MergedMisses = d.Uint()
	d.Lit(`,"MSHRFullStalls":`)
	c.Hier.MSHRFullStalls = d.Uint()
	d.Lit(`,"Writebacks":`)
	c.Hier.Writebacks = d.Uint()
	d.Lit(`,"BackPressure":`)
	c.Hier.BackPressure = d.Uint()
	d.Lit(`},"L1":`)
	c.L1 = d.cacheStats()
	d.Lit(`,"L2":`)
	c.L2 = d.cacheStats()
	d.Lit(`,"Prefetch":{"Issued":`)
	c.Prefetch.Issued = d.Uint()
	d.Lit(`,"Useful":`)
	c.Prefetch.Useful = d.Uint()
	d.Lit(`,"Late":`)
	c.Prefetch.Late = d.Uint()
	d.Lit(`,"Evicted":`)
	c.Prefetch.Evicted = d.Uint()
	d.Lit(`},"Window":`)
	c.Window = event.Time(d.Int64())
	d.Lit(`,"PagesByModule":`)
	c.PagesByModule = canon.IntMap(&d.Dec, d.Int)
	d.Lit(`,"TLBHitRate":`)
	c.TLBHitRate = d.Float()
	d.Lit(`,"Profile":null}`)
	return c
}

func (d *canonDec) cpuStats() (s cpu.Stats) {
	d.Lit(`{"Cycles":`)
	s.Cycles = d.Uint()
	d.Lit(`,"Instructions":`)
	s.Instructions = d.Uint()
	d.Lit(`,"Loads":`)
	s.Loads = d.Uint()
	d.Lit(`,"Stores":`)
	s.Stores = d.Uint()
	d.Lit(`,"ROBHeadStallCycles":`)
	s.ROBHeadStallCycles = d.Uint()
	d.Lit(`,"MemStallCycles":`)
	s.MemStallCycles = d.Uint()
	d.Lit(`,"MemLoads":`)
	s.MemLoads = d.Uint()
	d.Lit(`,"LQFullCycles":`)
	s.LQFullCycles = d.Uint()
	d.Lit(`,"ROBFullCycles":`)
	s.ROBFullCycles = d.Uint()
	d.Lit(`}`)
	return s
}

func (d *canonDec) cacheStats() (s cache.Stats) {
	d.Lit(`{"Accesses":`)
	s.Accesses = d.Uint()
	d.Lit(`,"Hits":`)
	s.Hits = d.Uint()
	d.Lit(`,"Misses":`)
	s.Misses = d.Uint()
	d.Lit(`,"Evictions":`)
	s.Evictions = d.Uint()
	d.Lit(`,"Writebacks":`)
	s.Writebacks = d.Uint()
	d.Lit(`}`)
	return s
}

func (d *canonDec) channel() (c ChannelResult) {
	d.Lit(`{"Name":`)
	c.Name = d.Str()
	d.Lit(`,"Kind":`)
	c.Kind = mem.Kind(d.Int())
	d.Lit(`,"CapacityBytes":`)
	c.CapacityBytes = d.Uint()
	d.Lit(`,"Stats":{"Reads":`)
	c.Stats.Reads = d.Uint()
	d.Lit(`,"Writes":`)
	c.Stats.Writes = d.Uint()
	d.Lit(`,"RowHits":`)
	c.Stats.RowHits = d.Uint()
	d.Lit(`,"RowMisses":`)
	c.Stats.RowMisses = d.Uint()
	d.Lit(`,"RowConflict":`)
	c.Stats.RowConflict = d.Uint()
	d.Lit(`,"Activations":`)
	c.Stats.Activations = d.Uint()
	d.Lit(`,"Precharges":`)
	c.Stats.Precharges = d.Uint()
	d.Lit(`,"Refreshes":`)
	c.Stats.Refreshes = d.Uint()
	d.Lit(`,"BusBusyTime":`)
	c.Stats.BusBusyTime = event.Time(d.Int64())
	d.Lit(`,"TotalQueueing":`)
	c.Stats.TotalQueueing = event.Time(d.Int64())
	d.Lit(`,"TotalService":`)
	c.Stats.TotalService = event.Time(d.Int64())
	d.Lit(`,"TotalLatency":`)
	c.Stats.TotalLatency = event.Time(d.Int64())
	d.Lit(`,"MaxQueueDepth":`)
	c.Stats.MaxQueueDepth = d.Int()
	d.Lit(`},"Energy":`)
	c.Energy = d.energy()
	d.Lit(`}`)
	return c
}

func (d *canonDec) energy() (e power.MemoryBreakdown) {
	d.Lit(`{"BackgroundJ":`)
	e.BackgroundJ = d.Float()
	d.Lit(`,"DynamicJ":`)
	e.DynamicJ = d.Float()
	d.Lit(`}`)
	return e
}

func (d *canonDec) migStats() (s alloc.MigStats) {
	d.Lit(`{"Epochs":`)
	s.Epochs = d.Uint()
	d.Lit(`,"Promotions":`)
	s.Promotions = d.Uint()
	d.Lit(`,"Demotions":`)
	s.Demotions = d.Uint()
	d.Lit(`,"Shootdowns":`)
	s.Shootdowns = d.Uint()
	d.Lit(`,"CopiedKB":`)
	s.CopiedKB = d.Uint()
	d.Lit(`}`)
	return s
}

// canonDec is decodeCanonical's cursor: the shared canonical scanner,
// with the Result schema's readers as its methods.
type canonDec struct{ canon.Dec }
