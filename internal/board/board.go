// Package board assembles the simulated platform and plays the role of the
// paper's trusted bootloader (§7.2, §8.1): it constructs physical memory
// with the configured secure region and protection variant, powers on the
// CPU in the secure world, installs the monitor (which derives the
// attestation key from the hardware RNG), and finally "switch[es] to
// normal world to boot Linux" — leaving the machine in normal-world
// supervisor mode ready for the OS model.
package board

import (
	"repro/internal/arm"
	"repro/internal/mem"
	"repro/internal/monitor"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// Config selects the platform variant.
type Config struct {
	// Seed initialises the simulated hardware RNG. Paired noninterference
	// runs use equal seeds (§6.3: "we require that the seeds in the
	// initial states are the same").
	Seed uint64
	// Protection selects the §3.2 isolated-memory variant (default:
	// IOMMU filter, like the prototype's Raspberry Pi which "lacks
	// support for isolating secure-world memory" and relies on the
	// bootloader's static configuration).
	Protection mem.Protection
	// Layout overrides the physical address map (nil = DefaultLayout
	// with Protection applied).
	Layout *mem.Layout
	// Monitor is passed through to monitor.Install.
	Monitor monitor.Config
	// Telemetry, when non-nil, is attached to the monitor at boot so
	// every SMC from the first call onward is counted. nil boots an
	// uninstrumented platform (the default; zero overhead).
	Telemetry *telemetry.Recorder
	// DisableBlockCache boots the machine with the superblock translation
	// cache off, leaving the per-instruction fetch+decode path (A/B
	// benchmarking, differential tests). Semantics are identical either
	// way; only simulator speed changes.
	DisableBlockCache bool
}

// Platform is a booted machine.
type Platform struct {
	Machine   *arm.Machine
	Monitor   *monitor.Monitor
	Telemetry *telemetry.Recorder // nil unless Config.Telemetry was set
}

// Boot builds and boots the platform.
func Boot(cfg Config) (*Platform, error) {
	layout := mem.DefaultLayout()
	layout.Protection = cfg.Protection
	if cfg.Layout != nil {
		layout = *cfg.Layout
	}
	phys, err := mem.NewPhysical(layout)
	if err != nil {
		return nil, err
	}
	m := arm.NewMachine(phys, rng.New(cfg.Seed))
	if cfg.DisableBlockCache {
		m.EnableBlockCache(false)
	}

	// The CPU resets into secure supervisor mode; the bootloader runs
	// there and installs the monitor.
	mon, err := monitor.Install(m, cfg.Monitor)
	if err != nil {
		return nil, err
	}

	// World switch: normal-world supervisor mode with interrupts enabled,
	// PC parked at the base of insecure RAM (where an OS image would be).
	m.SetSCRNS(true)
	m.SetCPSR(arm.PSR{Mode: arm.ModeSvc, I: false, F: false})
	m.SetPC(layout.InsecureBase)
	if cfg.Telemetry != nil {
		mon.SetObserver(cfg.Telemetry)
	}
	return &Platform{Machine: m, Monitor: mon, Telemetry: cfg.Telemetry}, nil
}

// StatsSnapshot combines the recorder's counters with the machine-level
// gauges (cycle counter, retirement counters, TLB, PageDB census) into
// one exportable view. Works with a nil recorder: the per-call series
// are then absent but machine gauges still populate.
func (p *Platform) StatsSnapshot() telemetry.Snapshot {
	s := p.Telemetry.Snapshot()
	m := p.Machine
	s.Cycles = m.Cyc.Total()
	s.Retired = m.Retired()
	s.InsnClasses = m.InsnClassMap()
	c := m.TLB.Counters()
	s.TLB = telemetry.TLBStats{
		Hits: c.Hits, Misses: c.Misses, Fills: c.Fills,
		Flushes: c.Flushes, Entries: c.Entries,
	}
	rs := m.Phys.RestoreStats()
	s.Mem = telemetry.MemStats{
		DirtyPages:    m.Phys.DirtyPages(),
		TotalPages:    int(m.Phys.TotalWords() / mem.PageWords),
		Snapshots:     rs.Snapshots,
		DeltaRestores: rs.DeltaRestores,
		FullRestores:  rs.FullRestores,
		WordsCopied:   rs.WordsCopied,
		PagesCopied:   rs.PagesCopied,
	}
	bc := m.BlockCacheStats()
	s.BlockCache = telemetry.BlockCacheStats{
		Hits: bc.Hits, Misses: bc.Misses, Revalidated: bc.Revalidated,
		Invalidated: bc.Invalidated, Fills: bc.Fills, Resets: bc.Resets,
		Blocks: bc.Blocks, BlockInsns: bc.BlockInsns, Enabled: bc.Enabled,
	}
	// DecodePageDB reads through the monitor's charged accessors; a stats
	// snapshot is an out-of-band observation, so rewind the cycle counter
	// to keep the cycle model unperturbed.
	before := m.Cyc.Total()
	if db, err := p.Monitor.DecodePageDB(); err == nil {
		s.PageCensus = db.Census()
	}
	m.Cyc.Reset()
	m.Cyc.Charge(before)
	return s
}
