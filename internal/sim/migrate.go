package sim

import (
	"fmt"

	"moca/internal/alloc"
	"moca/internal/cache"
	"moca/internal/event"
	"moca/internal/mem"
	"moca/internal/obs"
	"moca/internal/vm"
)

// setupMigration attaches the hot-page migration engine (the Section IV-E
// baseline) to the system: an access monitor on every channel shard and a
// recurring epoch event that promotes hot pages, charging copy traffic on
// both channels and cache shootdowns for moved pages.
func (s *System) setupMigration(cfg Config, infos []alloc.ModuleInfo) error {
	mcfg := cfg.Migration
	if len(mcfg.FastModules) == 0 {
		// Promotion targets: latency-optimized first, then bandwidth.
		for _, kind := range []mem.Kind{mem.RLDRAM, mem.HBM} {
			for _, info := range infos {
				if info.Kind == kind {
					mcfg.FastModules = append(mcfg.FastModules, info.ID)
				}
			}
		}
		if len(mcfg.FastModules) == 0 {
			return fmt.Errorf("sim: migration policy needs an RLDRAM or HBM module")
		}
	}
	mig, err := alloc.NewMigrator(s.os, mcfg)
	if err != nil {
		return err
	}
	s.migrator = mig
	for _, cs := range s.chans {
		cs.monitor = mig
	}

	epoch := cfg.MigrationEpoch
	if epoch <= 0 {
		epoch = 50 * event.Microsecond
	}
	d := &migDriver{s: s, mig: mig, epoch: epoch, migrations: s.reg.Counter("alloc.migrations")}
	s.q.PostAfter(epoch, d, mopEpoch, 0, nil)
	return nil
}

// migDriver owns the migration engine's event handling: the recurring epoch
// event plus the staggered page- and line-copy events, all pooled (one
// copyJob allocation per moved page instead of a closure per line).
type migDriver struct {
	s          *System
	mig        *alloc.Migrator
	epoch      event.Time
	migrations *obs.Counter
}

// copyJob is the shared payload of one page move's copy events.
type copyJob struct {
	oldBase, newBase uint64
}

// Migration event opcodes.
const (
	mopEpoch    int32 = iota // recurring epoch boundary
	mopCopyPage              // p = *copyJob: start copying one page
	mopCopyLine              // p = *copyJob, i64 = byte offset within the page
)

// Copy-engine pacing: pages staggered through the epoch, lines within a
// page at DMA-burst rate, so copy traffic interferes with demand traffic
// realistically instead of as one spike.
const (
	migPageStagger = 3 * event.Microsecond
	migLineGap     = 40 * event.Nanosecond
)

func (d *migDriver) OnEvent(_ event.Time, op int32, i64 int64, p any) {
	switch op {
	case mopEpoch:
		d.runEpoch()
		d.s.q.PostAfter(d.epoch, d, mopEpoch, 0, nil)
	case mopCopyPage:
		d.startPage(p.(*copyJob))
	case mopCopyLine:
		d.copyLine(p.(*copyJob), uint64(i64))
	}
}

func (d *migDriver) runEpoch() {
	s := d.s
	moves := d.mig.Epoch()
	if len(moves) > 0 {
		d.migrations.Add(uint64(len(moves)))
		if s.coordTrace != nil {
			for _, mv := range moves {
				s.coordTrace.Emit(obs.Event{
					At:   int64(s.q.Now()),
					Kind: obs.MigrationTriggered,
					Unit: "migrate",
					Core: mv.Proc,
					Addr: mv.VPage,
					Aux:  uint64(mv.To.Module),
				})
			}
		}
	}
	for i, mv := range moves {
		job := &copyJob{
			oldBase: vm.Compose(mv.From.Module, mv.From.Number, 0),
			newBase: vm.Compose(mv.To.Module, mv.To.Number, 0),
		}
		s.q.PostAfter(event.Time(i)*migPageStagger, d, mopCopyPage, 0, job)
	}
}

// startPage schedules the line copies of one page move. The page-table
// retarget already happened at the epoch boundary (the simulator carries no
// data, so only the timing of the copy matters).
func (d *migDriver) startPage(job *copyJob) {
	for off := uint64(0); off < vm.PageBytes; off += cache.LineBytes {
		d.s.q.PostAfter(event.Time(off/cache.LineBytes)*migLineGap, d, mopCopyLine, int64(off), job)
	}
}

// copyLine applies the costs of copying one line: shoot it out of every
// cache (dirty copies must travel with the page) and issue a read of the
// old frame's line plus a write to the new one. The coordinator queue only
// runs at window barriers, so the shootdowns have exclusive access to the
// core shards; the copy traffic crosses to the channel shards through the
// migration link and stays best-effort under controller backpressure.
func (d *migDriver) copyLine(job *copyJob, off uint64) {
	s := d.s
	for _, c := range s.cores {
		c.hier.InvalidateLine(job.oldBase + off)
	}
	s.migLink.Submit(job.oldBase+off, false, -1, 0, nil, 0)
	s.migLink.Submit(job.newBase+off, true, -1, 0, nil, 0)
}

// MigrationStats returns the migration engine's counters (zero value when
// the system does not migrate).
func (s *System) MigrationStats() alloc.MigStats {
	if s.migrator == nil {
		return alloc.MigStats{}
	}
	return s.migrator.Stats()
}
