package telemetry

import (
	"encoding/json"

	"repro/internal/kapi"
)

// SMCName resolves an SMC call number to its KOM_* name.
func SMCName(call uint32) string { return kapi.SMCName(call) }

// SVCName resolves an SVC call number to its KOM_SVC_* name.
func SVCName(call uint32) string { return kapi.SVCName(call) }

// CallStats is the exported view of one call series.
type CallStats struct {
	Call   uint32 `json:"call" merge:"key"`
	Name   string `json:"name" prom:"call"`
	Count  uint64 `json:"count" prom:"komodo_smc_calls_total" help:"Monitor SMC invocations by call, summed over sampled idle workers."`
	Errors uint64 `json:"errors"`
	Cycles uint64 `json:"cycles" prom:"komodo_smc_cycles_total" help:"Simulated cycles spent in the monitor by SMC call, summed over sampled idle workers."`
	// DispatchCycles is the share of Cycles spent on SMC entry/exit
	// boilerplate (world switch, register save/restore); BodyCycles is
	// the handler's own work. DispatchCycles+BodyCycles == Cycles.
	DispatchCycles uint64 `json:"dispatch_cycles"`
	BodyCycles     uint64 `json:"body_cycles"`
	// Hist is the log2 cycle histogram (see HistBucket).
	Hist [NumHistBuckets]uint64 `json:"hist"`
}

// Mean returns the average cycles per call (0 if the call never ran).
func (c CallStats) Mean() uint64 {
	if c.Count == 0 {
		return 0
	}
	return c.Cycles / c.Count
}

// TLBStats is the MMU's translation-cache view, filled in by the platform
// (the TLB belongs to the machine, not the recorder).
type TLBStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Fills   uint64 `json:"fills"`
	Flushes uint64 `json:"flushes"`
	Entries int    `json:"entries"`
}

// MemStats is the physical-memory view of the dirty-page delta-restore
// machinery (internal/mem), filled in by the platform.
type MemStats struct {
	// DirtyPages is a gauge: pages written since the last snapshot or
	// restore (what the next delta restore would copy back).
	DirtyPages int `json:"dirty_pages" prom:"komodo_mem_dirty_pages" help:"Pages written since the last snapshot/restore (what the next delta restore will copy), summed over sampled idle workers."`
	// TotalPages sizes the gauge: what a full restore copies.
	TotalPages    int    `json:"total_pages"`
	Snapshots     uint64 `json:"snapshots"`
	DeltaRestores uint64 `json:"delta_restores" prom:"komodo_mem_restores_total,kind=delta" help:"Memory restores by path, summed over sampled idle workers."`
	FullRestores  uint64 `json:"full_restores" prom:"komodo_mem_restores_total,kind=full"`
	WordsCopied   uint64 `json:"words_copied" prom:"komodo_mem_restore_words_total" help:"Words copied by memory restores, summed over sampled idle workers."`
	PagesCopied   uint64 `json:"pages_copied"`
}

// DecodeCacheStats is always zero: the interpreter has no predecode cache
// any more, and nothing writes these fields. The type stays only because
// the servebench harness reads Snapshot.DecodeCache in-process (through
// server.Stats) for its arm.decode_hit_rate entry, which therefore
// reports 0. Delete it with that entry, in the next change to the
// benchmark.
type DecodeCacheStats struct {
	Hits, Misses uint64
}

// BlockCacheStats is the interpreter's superblock translation cache view
// (internal/arm), filled in by the platform. Blocks/BlockInsns give the
// mean dispatched block length.
type BlockCacheStats struct {
	Hits        uint64 `json:"hits" prom:"komodo_block_cache_total,event=hit" help:"Superblock translation-cache dispatches by outcome, summed over sampled idle workers."`
	Misses      uint64 `json:"misses" prom:"komodo_block_cache_total,event=miss"`
	Revalidated uint64 `json:"revalidated" prom:"komodo_block_cache_total,event=revalidated"`
	Invalidated uint64 `json:"invalidated" prom:"komodo_block_cache_total,event=invalidated"`
	Fills       uint64 `json:"fills"`
	Resets      uint64 `json:"resets"`
	Blocks      uint64 `json:"blocks" prom:"komodo_block_cache_insns_total,kind=blocks" help:"Instructions retired through cached superblocks (blocks gives the count of block executions; the ratio is the mean block length)."`
	BlockInsns  uint64 `json:"block_insns" prom:"komodo_block_cache_insns_total,kind=insns"`
	Enabled     bool   `json:"enabled"`
}

// TraceStats summarises the boundary-event ring.
type TraceStats struct {
	Recorded uint64 `json:"recorded"`
	Dropped  uint64 `json:"dropped"`
	Capacity int    `json:"capacity"`
}

// ReplayStats counts deterministic record/replay activity (internal/replay),
// filled in by the serving layer from the replay package's global counters.
type ReplayStats struct {
	Recorded uint64 `json:"recorded" prom:"komodo_replay_traces_total,event=recorded" help:"Record/replay activity: traces recorded, replayed, and found divergent."`
	Replayed uint64 `json:"replayed" prom:"komodo_replay_traces_total,event=replayed"`
	Diverged uint64 `json:"diverged" prom:"komodo_replay_traces_total,event=diverged"`
}

// Snapshot is a point-in-time JSON view of everything the stack has
// observed. The recorder fills its own series (SMC, SVC, lifecycle, page
// flow, trace); the platform layers in machine-owned gauges (cycles,
// retired instructions, instruction classes, TLB, page census). The
// prom and merge tags declare its /metrics families and how Merge
// combines platforms (internal/obs).
type Snapshot struct {
	Cycles  uint64 `json:"cycles"`
	Retired uint64 `json:"retired"`

	SMC []CallStats `json:"smc"`
	SVC []CallStats `json:"svc" prom:"-"`

	// EnterSetupCycles / ResumeSetupCycles are the latest Table 3 "Enter
	// only" / "Resume only" measurements: SMC entry to first enclave
	// instruction.
	// A merge across platforms keeps the largest.
	EnterSetupCycles  uint64 `json:"enter_setup_cycles" merge:"max"`
	ResumeSetupCycles uint64 `json:"resume_setup_cycles" merge:"max"`

	Lifecycle map[string]uint64 `json:"lifecycle"`
	PageMoves map[string]uint64 `json:"page_moves"`

	// InsnClasses counts retired instructions by class (filled by the
	// platform from the machine's interpreter).
	InsnClasses map[string]uint64 `json:"insn_classes"`
	TLB         TLBStats          `json:"tlb"`
	Mem         MemStats          `json:"mem"`
	DecodeCache DecodeCacheStats  `json:"-"` // always zero; see DecodeCacheStats
	BlockCache  BlockCacheStats   `json:"block_cache"`
	// PageCensus counts secure pages by current PageDB type (filled by
	// the platform from the decoded PageDB).
	PageCensus map[string]int `json:"page_census"`

	Trace  TraceStats  `json:"trace"`
	Replay ReplayStats `json:"replay"`
}

// exportSeries copies the non-empty series out of a callSeries array.
func exportSeries(series *[MaxCall]callSeries, name func(uint32) string) []CallStats {
	var out []CallStats
	for call := uint32(0); call < MaxCall; call++ {
		s := &series[call]
		n := s.count.Load()
		if n == 0 {
			continue
		}
		cs := CallStats{
			Call:           call,
			Name:           name(call),
			Count:          n,
			Errors:         s.errors.Load(),
			Cycles:         s.cycles.Load(),
			DispatchCycles: s.dispatch.Load(),
			BodyCycles:     s.body.Load(),
		}
		if cs.Name == "" {
			cs.Name = "unknown"
		}
		for b := range cs.Hist {
			cs.Hist[b] = s.hist[b].Load()
		}
		out = append(out, cs)
	}
	return out
}

// Snapshot exports the recorder-owned series. Counters are read
// atomically but not as one transaction: a snapshot taken while calls are
// in flight is a consistent-enough view for reporting, and exact when the
// platform is quiescent.
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	s.Lifecycle = map[string]uint64{}
	s.PageMoves = map[string]uint64{}
	if r == nil {
		return s
	}
	s.SMC = exportSeries(&r.smc, SMCName)
	s.SVC = exportSeries(&r.svc, SVCName)
	s.EnterSetupCycles = r.enterSetup.Load()
	s.ResumeSetupCycles = r.resumeSetup.Load()
	for l := Lifecycle(0); l < NumLifecycle; l++ {
		if n := r.lifecycle[l].Load(); n > 0 {
			s.Lifecycle[l.String()] = n
		}
	}
	for mv := uint32(0); mv < NumPageMoves; mv++ {
		if n := r.pageMoves[mv].Load(); n > 0 {
			s.PageMoves[pageMoveNames[mv]] = n
		}
	}
	s.Trace = TraceStats{
		Recorded: r.ring.Total(),
		Dropped:  r.ring.Dropped(),
		Capacity: r.ring.Capacity(),
	}
	return s
}

// MarshalIndent renders the snapshot as indented JSON (the -stats view).
func (s Snapshot) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
