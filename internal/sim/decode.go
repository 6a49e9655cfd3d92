package sim

import (
	"bytes"
	"math"
	"strconv"
	"unicode/utf8"

	"moca/internal/alloc"
	"moca/internal/cache"
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
	d := canonDec{b: data, ok: true}
	var r Result
	d.lit(`{"Name":`)
	r.Name = d.str()
	d.lit(`,"Policy":`)
	r.Policy = d.str()
	// The initial capacities hold the paper's largest systems (four
	// cores, four channels on four modules) in one allocation each.
	d.lit(`,"Cores":`)
	if d.open('[') {
		r.Cores = make([]CoreResult, 0, 4)
		for d.more(']', len(r.Cores)) {
			r.Cores = append(r.Cores, d.core())
		}
	}
	d.lit(`,"Channels":`)
	if d.open('[') {
		r.Channels = make([]ChannelResult, 0, 8)
		for d.more(']', len(r.Channels)) {
			r.Channels = append(r.Channels, d.channel())
		}
	}
	d.lit(`,"OS":{"Faults":`)
	r.OS.Faults = d.uint()
	d.lit(`,"FallbackPages":`)
	r.OS.FallbackPages = d.uint()
	d.lit(`,"OOMFailures":`)
	r.OS.OOMFailures = d.uint()
	d.lit(`,"PagesByModule":`)
	r.OS.PagesByModule = intMap(&d, d.uint)
	d.lit(`},"Migration":`)
	r.Migration = d.migStats()
	d.lit(`,"ModuleKinds":`)
	if d.open('[') {
		r.ModuleKinds = make([]mem.Kind, 0, 8)
		for d.more(']', len(r.ModuleKinds)) {
			r.ModuleKinds = append(r.ModuleKinds, mem.Kind(d.int()))
		}
	}
	d.lit(`,"Elapsed":`)
	r.Elapsed = event.Time(d.int64())
	d.lit(`,"Obs":null,"mem_energy_j":`)
	r.memEnergyJ = d.float()
	d.lit(`,"core_energy_j":`)
	r.coreEnergyJ = d.float()
	d.lit(`}`)
	if !d.ok || len(d.b) != 0 {
		return Result{}, false
	}
	return r, true
}

func (d *canonDec) core() (c CoreResult) {
	d.lit(`{"App":`)
	c.App = d.str()
	d.lit(`,"CPU":`)
	c.CPU = d.cpuStats()
	d.lit(`,"Hier":{"DemandMisses":`)
	c.Hier.DemandMisses = d.uint()
	d.lit(`,"MergedMisses":`)
	c.Hier.MergedMisses = d.uint()
	d.lit(`,"MSHRFullStalls":`)
	c.Hier.MSHRFullStalls = d.uint()
	d.lit(`,"Writebacks":`)
	c.Hier.Writebacks = d.uint()
	d.lit(`,"BackPressure":`)
	c.Hier.BackPressure = d.uint()
	d.lit(`},"L1":`)
	c.L1 = d.cacheStats()
	d.lit(`,"L2":`)
	c.L2 = d.cacheStats()
	d.lit(`,"Prefetch":{"Issued":`)
	c.Prefetch.Issued = d.uint()
	d.lit(`,"Useful":`)
	c.Prefetch.Useful = d.uint()
	d.lit(`,"Late":`)
	c.Prefetch.Late = d.uint()
	d.lit(`,"Evicted":`)
	c.Prefetch.Evicted = d.uint()
	d.lit(`},"Window":`)
	c.Window = event.Time(d.int64())
	d.lit(`,"PagesByModule":`)
	c.PagesByModule = intMap(d, d.int)
	d.lit(`,"TLBHitRate":`)
	c.TLBHitRate = d.float()
	d.lit(`,"Profile":null}`)
	return c
}

func (d *canonDec) cpuStats() (s cpu.Stats) {
	d.lit(`{"Cycles":`)
	s.Cycles = d.uint()
	d.lit(`,"Instructions":`)
	s.Instructions = d.uint()
	d.lit(`,"Loads":`)
	s.Loads = d.uint()
	d.lit(`,"Stores":`)
	s.Stores = d.uint()
	d.lit(`,"ROBHeadStallCycles":`)
	s.ROBHeadStallCycles = d.uint()
	d.lit(`,"MemStallCycles":`)
	s.MemStallCycles = d.uint()
	d.lit(`,"MemLoads":`)
	s.MemLoads = d.uint()
	d.lit(`,"LQFullCycles":`)
	s.LQFullCycles = d.uint()
	d.lit(`,"ROBFullCycles":`)
	s.ROBFullCycles = d.uint()
	d.lit(`}`)
	return s
}

func (d *canonDec) cacheStats() (s cache.Stats) {
	d.lit(`{"Accesses":`)
	s.Accesses = d.uint()
	d.lit(`,"Hits":`)
	s.Hits = d.uint()
	d.lit(`,"Misses":`)
	s.Misses = d.uint()
	d.lit(`,"Evictions":`)
	s.Evictions = d.uint()
	d.lit(`,"Writebacks":`)
	s.Writebacks = d.uint()
	d.lit(`}`)
	return s
}

func (d *canonDec) channel() (c ChannelResult) {
	d.lit(`{"Name":`)
	c.Name = d.str()
	d.lit(`,"Kind":`)
	c.Kind = mem.Kind(d.int())
	d.lit(`,"CapacityBytes":`)
	c.CapacityBytes = d.uint()
	d.lit(`,"Stats":{"Reads":`)
	c.Stats.Reads = d.uint()
	d.lit(`,"Writes":`)
	c.Stats.Writes = d.uint()
	d.lit(`,"RowHits":`)
	c.Stats.RowHits = d.uint()
	d.lit(`,"RowMisses":`)
	c.Stats.RowMisses = d.uint()
	d.lit(`,"RowConflict":`)
	c.Stats.RowConflict = d.uint()
	d.lit(`,"Activations":`)
	c.Stats.Activations = d.uint()
	d.lit(`,"Precharges":`)
	c.Stats.Precharges = d.uint()
	d.lit(`,"Refreshes":`)
	c.Stats.Refreshes = d.uint()
	d.lit(`,"BusBusyTime":`)
	c.Stats.BusBusyTime = event.Time(d.int64())
	d.lit(`,"TotalQueueing":`)
	c.Stats.TotalQueueing = event.Time(d.int64())
	d.lit(`,"TotalService":`)
	c.Stats.TotalService = event.Time(d.int64())
	d.lit(`,"TotalLatency":`)
	c.Stats.TotalLatency = event.Time(d.int64())
	d.lit(`,"MaxQueueDepth":`)
	c.Stats.MaxQueueDepth = d.int()
	d.lit(`},"Energy":`)
	c.Energy = d.energy()
	d.lit(`}`)
	return c
}

func (d *canonDec) energy() (e power.MemoryBreakdown) {
	d.lit(`{"BackgroundJ":`)
	e.BackgroundJ = d.float()
	d.lit(`,"DynamicJ":`)
	e.DynamicJ = d.float()
	d.lit(`}`)
	return e
}

func (d *canonDec) migStats() (s alloc.MigStats) {
	d.lit(`{"Epochs":`)
	s.Epochs = d.uint()
	d.lit(`,"Promotions":`)
	s.Promotions = d.uint()
	d.lit(`,"Demotions":`)
	s.Demotions = d.uint()
	d.lit(`,"Shootdowns":`)
	s.Shootdowns = d.uint()
	d.lit(`,"CopiedKB":`)
	s.CopiedKB = d.uint()
	d.lit(`}`)
	return s
}

// canonDec is decodeCanonical's cursor. Once a check fails, ok stays
// false and every method returns a zero value without consuming input,
// so decoders read straight through and the caller checks ok once.
type canonDec struct {
	b  []byte // unread input
	ok bool
}

func (d *canonDec) fail() { d.ok = false }

// lit consumes the literal s.
func (d *canonDec) lit(s string) {
	if d.ok && len(d.b) >= len(s) && string(d.b[:len(s)]) == s {
		d.b = d.b[len(s):]
		return
	}
	d.fail()
}

// open consumes null and reports false, or consumes the opening byte c
// of an array or object and reports true.
func (d *canonDec) open(c byte) bool {
	if d.ok && len(d.b) >= 4 && string(d.b[:4]) == "null" {
		d.b = d.b[4:]
		return false
	}
	d.lit(string(c))
	return d.ok
}

// more reports whether another element follows in an array or object
// that has n elements so far, consuming the comma before it; at the
// closing byte it consumes it and reports false.
func (d *canonDec) more(closing byte, n int) bool {
	if !d.ok {
		return false
	}
	if len(d.b) > 0 && d.b[0] == closing {
		d.b = d.b[1:]
		return false
	}
	if n > 0 {
		d.lit(",")
	}
	return d.ok
}

// uint consumes an unsigned integer in strconv.FormatUint's form: one or
// more digits, no leading zero, no sign, no fraction or exponent.
func (d *canonDec) uint() uint64 {
	if !d.ok {
		return 0
	}
	var n uint64
	i := 0
	for ; i < len(d.b) && '0' <= d.b[i] && d.b[i] <= '9'; i++ {
		digit := uint64(d.b[i] - '0')
		if n > (math.MaxUint64-digit)/10 {
			d.fail()
			return 0
		}
		n = n*10 + digit
	}
	if i == 0 || (i > 1 && d.b[0] == '0') {
		d.fail()
		return 0
	}
	d.b = d.b[i:]
	return n
}

// int64 consumes a signed integer in strconv.FormatInt's form ("-0" is
// not one).
func (d *canonDec) int64() int64 {
	neg := d.ok && len(d.b) > 0 && d.b[0] == '-'
	if neg {
		d.b = d.b[1:]
	}
	u := d.uint()
	switch {
	case !d.ok:
		return 0
	case !neg && u <= math.MaxInt64:
		return int64(u)
	case neg && u != 0 && u <= 1<<63:
		return int64(-u)
	}
	d.fail()
	return 0
}

// int is int64 limited to the platform's int.
func (d *canonDec) int() int {
	v := d.int64()
	if int64(int(v)) != v {
		d.fail()
		return 0
	}
	return int(v)
}

// float consumes a float64 in exactly encoding/json's formatting of it.
func (d *canonDec) float() float64 {
	if !d.ok {
		return 0
	}
	i := 0
	for ; i < len(d.b); i++ {
		if c := d.b[i]; !('0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E') {
			break
		}
	}
	tok := d.b[:i]
	f, err := strconv.ParseFloat(string(tok), 64)
	var buf [32]byte
	if err != nil || !bytes.Equal(appendJSONFloat(buf[:0], f), tok) {
		d.fail()
		return 0
	}
	d.b = d.b[i:]
	return f
}

// appendJSONFloat formats a finite f as encoding/json does: 'f' format
// between 1e-6 and 1e21, else 'e' format with a one-digit negative
// exponent written without its leading zero.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// str consumes a string that encoding/json writes without escapes: valid
// UTF-8 with no control byte, '"', '\\', '<', '>', '&', U+2028 or U+2029.
func (d *canonDec) str() string {
	if !d.ok || len(d.b) == 0 || d.b[0] != '"' {
		d.fail()
		return ""
	}
	for i := 1; i < len(d.b); {
		c := d.b[i]
		if c < utf8.RuneSelf {
			if c == '"' {
				s := string(d.b[1:i])
				d.b = d.b[i+1:]
				return s
			}
			if c < 0x20 || c == '\\' || c == '<' || c == '>' || c == '&' {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(d.b[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			break
		}
		i += size
	}
	d.fail()
	return ""
}

// intMap consumes null or a map with int keys as encoding/json writes it:
// each key quoted in strconv.FormatInt's form, keys in strictly ascending
// byte order (so no duplicates), each value read by val.
func intMap[V any](d *canonDec, val func() V) map[int]V {
	if !d.open('{') {
		return nil
	}
	m := make(map[int]V)
	var prev []byte
	for d.more('}', len(m)) {
		d.lit(`"`)
		start := d.b
		k := d.int()
		key := start[:len(start)-len(d.b)]
		if prev != nil && bytes.Compare(prev, key) >= 0 {
			d.fail()
		}
		prev = key
		d.lit(`":`)
		v := val()
		if !d.ok {
			return nil
		}
		m[k] = v
	}
	return m
}
