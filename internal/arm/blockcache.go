package arm

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/mem"
)

// The superblock translation cache: a per-Machine, direct-mapped map from a
// block-head PC to the decoded straight-line run starting there, executed by
// a fused loop. It amortises both the fetch+decode and the *dispatch* of
// Run's per-instruction path: one tag + fetch-context + TLB-epoch +
// page-version check covers every instruction in the block, and the
// per-instruction retirement bookkeeping (cycle charge, retired count, class
// counters, elided-TLB-hit recording) is batched at block exit.
//
// Semantic invisibility is the contract: the interpreter with the cache must
// be bit-identical to the interpreter without it, including cycle charges.
// The argument:
//
//   - Blocks are straight-line: they end at (and include) any instruction
//     that can redirect control or change the execution regime — branches,
//     SVC/SMC/HLT, exception return, PSR writes, interrupt-mask changes,
//     system-register writes (TLBIALL, TTBR0, SCR). Between block entry and
//     that terminator the slow path would fetch consecutive words from the
//     same page.
//   - Blocks never cross a page boundary, so one page-version check at
//     block entry covers every word the block predecoded. mem.Physical
//     bumps a page's version on every write (CPU, DMA, physical tamper,
//     restore-copy), so a matching version means the words are unmodified.
//   - A TLB-epoch match at block entry means the fill-time translation of
//     the block's page is still the one the TLB serves, so every fetch the
//     block elides would have been a TLB hit charging no walk cycles; the
//     elided hits are batch-recorded so the TLB telemetry still describes
//     the architectural fetch stream. A stale epoch revalidates through one
//     architectural fetch of the block head (charging the walk the slow
//     path would charge) plus a word-compare of the cached run.
//   - Blocks only dispatch while interrupt delivery is quiescent (nothing
//     pending, no injection countdown armed) and tracing is off; otherwise
//     the per-instruction slow path runs, which checks interrupts before
//     every instruction exactly as before. Nothing can arm an interrupt
//     mid-block: CPSIE/MSR are terminators and injection is Go-level.
//   - A store inside the block that hits the block's own code page (the
//     only memory a block has predecoded) is caught by re-checking the page
//     version after every store; the block stops before the next — possibly
//     stale — instruction and invalidates itself, so self-modifying code
//     executes its patched words just like the uncached interpreter.
//
// Machine.Restore drops the whole cache (strict invalidation on snapshot
// restore), and the TLB epoch resets with the fresh TLB it installs.
const (
	bcacheBits  = 11
	bcacheSize  = 1 << bcacheBits // 2048 entries, direct-mapped on bcIndex(head PC)
	maxBlockLen = 256             // instructions per block (one page holds at most 1024)
)

type bcEntry struct {
	pc       uint32 // VA of the block head
	ctx      uint32 // fetch context (see fetchCtx)
	pa       uint32 // PA of the block head; the whole block is on this page
	pageVer  uint64 // page version of pa's page at fill/revalidate time
	tlbEpoch uint64
	valid    bool
	instrs   []Instr
	words    []uint32
	// fast marks instructions the fused loop executes inline on the raw
	// register file (see runBlock): data-processing and load/store ops
	// whose register operands are all unbanked (R0–R12). Everything else
	// — banked SP/LR operands, system ops, terminators, badReg words —
	// goes through step.
	fast []bool
	// classes precomputes the per-class retirement counts of a full block
	// execution, so the common no-trap exit adds six counters instead of
	// one per instruction.
	classes [NumInsnClasses]uint32
}

// fastEligible reports whether the fused loop may execute the instruction
// inline: OpNOP..OpSTRR are exactly the straight-line data-processing,
// flag-setting, barrier and load/store ops (everything before OpB in the
// opcode enumeration), and requiring every register field below SP keeps
// the inline path on the unbanked file m.r. badReg words (any field = 15)
// are excluded by the same bound.
func fastEligible(i Instr) bool {
	return i.Op <= OpSTRR && i.Rd < SP && i.Rn < SP && i.Rm < SP
}

// BlockCacheStats is the superblock cache's counter set for telemetry.
// Invalidated counts entries dropped by a page-version mismatch (stores
// into code pages, including a block storing into itself mid-run) or a
// failed revalidation; Revalidated counts stale-TLB-epoch entries repaired
// by one architectural fetch plus a word compare. Blocks/BlockInsns give
// the mean dispatched block length.
type BlockCacheStats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Revalidated uint64 `json:"revalidated"`
	Invalidated uint64 `json:"invalidated"`
	Fills       uint64 `json:"fills"`
	Resets      uint64 `json:"resets"`
	Blocks      uint64 `json:"blocks"`
	BlockInsns  uint64 `json:"block_insns"`
	Enabled     bool   `json:"enabled"`
}

// MeanBlockLen is the average number of instructions retired per block
// execution (0 if no block ever ran).
func (s BlockCacheStats) MeanBlockLen() float64 {
	if s.Blocks == 0 {
		return 0
	}
	return float64(s.BlockInsns) / float64(s.Blocks)
}

type blockCache struct {
	entries     []bcEntry
	hits        uint64
	misses      uint64
	revals      uint64
	invalidated uint64
	fills       uint64
	resets      uint64
	execs       uint64
	insns       uint64
	disabled    bool
}

// reset drops every block (snapshot restore, enable/disable toggles).
func (b *blockCache) reset() {
	if b.entries != nil {
		for i := range b.entries {
			b.entries[i].valid = false
		}
	}
	b.resets++
}

// blockEnds reports whether an instruction must terminate a superblock: it
// can redirect control flow, change the translation/interrupt regime, or
// trap. badReg words are included as terminators — they raise undef when
// executed, exactly as the slow path would.
func blockEnds(i Instr) bool {
	switch i.Op {
	case OpB, OpBL, OpBX, OpHLT, OpSVC, OpSMC, OpMSR, OpCPSID, OpCPSIE, OpWRSYS, OpMOVSPCLR:
		return true
	}
	return badReg(i)
}

// fetchCtx encodes the current translation regime into a comparable word.
// Secure user mode translates through TTBR0 (page-aligned, so bit 0 is
// free to mark "translated"); every other mode/world fetches physical
// addresses directly and is keyed by the world alone (bit 0 clear).
func (m *Machine) fetchCtx() uint32 {
	if m.cpsr.Mode == ModeUsr && m.World() == mem.Secure {
		return m.ttbr0[mem.Secure] | 1
	}
	return uint32(m.World()) << 1
}

// bcIndex maps a block's head PC to its cache slot. Folding in bits from
// above the low 8 kB keeps heads a multiple of 8 kB apart (the notary's
// blocks at VA 0x0 and 0x2000, say) out of each other's slot.
func bcIndex(pc uint32) uint32 {
	return ((pc >> 2) ^ (pc >> 13)) & (bcacheSize - 1)
}

// blockDispatch looks up (or builds) the superblock at PC and executes it.
// It returns the number of slow-path loop iterations the execution stands
// in for (instructions started, i.e. retired plus a trapping one), the
// trap if execution must stop, and whether it must stop. remaining caps
// the instructions started (<= 0 means unlimited), so budget exhaustion
// freezes the machine mid-block exactly where the uncached loop would.
func (m *Machine) blockDispatch(remaining int64) (int64, Trap, bool) {
	if m.bc.entries == nil {
		m.bc.entries = make([]bcEntry, bcacheSize)
	}
	ctx := m.fetchCtx()
	e := &m.bc.entries[bcIndex(m.pc)]
	if e.valid && e.pc == m.pc && e.ctx == ctx {
		if e.tlbEpoch == m.TLB.Epoch() {
			if m.Phys.PageVersion(e.pa) == e.pageVer {
				m.bc.hits++
				return m.runBlock(e, remaining, false)
			}
			// The block's code page was written since the fill: the
			// predecoded run may be stale. Strict invalidation; rebuild
			// from memory below.
			e.valid = false
			m.bc.invalidated++
		} else {
			// Stale epoch (TLB flush / PT store / TTBR0 load since the
			// fill): re-run the architectural fetch of the block head,
			// charging exactly what the slow path would (a page walk if
			// the TLB no longer holds the translation) and refilling the
			// TLB. If the head still resolves to the same PA and the
			// cached words still match memory, the decoded run is intact.
			pa, word, err := m.fetchPA()
			if err != nil {
				m.bc.misses++
				m.TakeException(TrapPrefetchAbort, m.pc)
				return 0, Trap{Kind: TrapPrefetchAbort, FaultAddr: m.pc, FaultErr: err}, true
			}
			if pa == e.pa && m.blockWordsMatch(e) {
				e.tlbEpoch = m.TLB.Epoch()
				e.pageVer = m.Phys.PageVersion(pa)
				m.bc.revals++
				return m.runBlock(e, remaining, true)
			}
			m.bc.misses++
			m.bc.invalidated++
			e.valid = false
			return m.fillFrom(e, ctx, pa, word, remaining)
		}
	}
	m.bc.misses++
	return m.fillBlock(e, ctx, remaining)
}

// blockWordsMatch reports whether the cached instruction words still equal
// memory. An unchanged page version proves it without reading; otherwise
// the words are compared directly (raw reads: the slow path's equivalent
// work is the per-fetch reads the block will elide, already accounted by
// the head fetch + epoch reasoning).
func (m *Machine) blockWordsMatch(e *bcEntry) bool {
	if m.Phys.PageVersion(e.pa) == e.pageVer {
		return true
	}
	w := m.World()
	for i, want := range e.words {
		got, err := m.Phys.Read(e.pa+4*uint32(i), w)
		if err != nil || got != want {
			return false
		}
	}
	return true
}

// fillBlock performs the architectural fetch of the block head and builds
// the block. Fetch/decode faults at the head mirror the slow path's
// prefetch-abort/undef handling exactly.
func (m *Machine) fillBlock(e *bcEntry, ctx uint32, remaining int64) (int64, Trap, bool) {
	pa, word, err := m.fetchPA()
	if err != nil {
		m.TakeException(TrapPrefetchAbort, m.pc)
		return 0, Trap{Kind: TrapPrefetchAbort, FaultAddr: m.pc, FaultErr: err}, true
	}
	return m.fillFrom(e, ctx, pa, word, remaining)
}

// fillFrom builds a block starting from an already-fetched head word,
// extending it with raw reads of the consecutive words on the same page
// until a terminator, an undecodable word, the page boundary, or the
// length cap. The raw reads are not architectural events: each word is
// re-verified against the page version before any cached copy of it
// executes.
func (m *Machine) fillFrom(e *bcEntry, ctx uint32, pa, word uint32, remaining int64) (int64, Trap, bool) {
	insn, err := Decode(word)
	if err != nil {
		m.TakeException(TrapUndef, m.pc)
		return 0, Trap{Kind: TrapUndef, FaultAddr: m.pc, FaultErr: err}, true
	}
	e.pc, e.ctx, e.pa = m.pc, ctx, pa
	e.pageVer = m.Phys.PageVersion(pa)
	e.tlbEpoch = m.TLB.Epoch()
	e.instrs = append(e.instrs[:0], insn)
	e.words = append(e.words[:0], word)
	e.fast = append(e.fast[:0], fastEligible(insn))
	if !blockEnds(insn) {
		// Words remaining on the head's page; the block never crosses it.
		limit := int((mem.PageSize - (pa & (mem.PageSize - 1))) / 4)
		if limit > maxBlockLen {
			limit = maxBlockLen
		}
		w := m.World() // translated fetches are secure-world reads, and fetchCtx only translates in the secure world
		for len(e.instrs) < limit {
			wd, rerr := m.Phys.Read(pa+4*uint32(len(e.instrs)), w)
			if rerr != nil {
				break
			}
			in, derr := Decode(wd)
			if derr != nil {
				break
			}
			e.instrs = append(e.instrs, in)
			e.words = append(e.words, wd)
			e.fast = append(e.fast, fastEligible(in))
			if blockEnds(in) {
				break
			}
		}
	}
	for c := range e.classes {
		e.classes[c] = 0
	}
	for i := range e.instrs {
		e.classes[classOf[e.instrs[i].Op]]++
	}
	e.valid = true
	m.bc.fills++
	return m.runBlock(e, remaining, true)
}

// runBlock executes up to max instructions of the block through the fused
// loop and batches the retirement bookkeeping. firstCounted says whether
// the head's fetch already went through the architectural path (fill and
// revalidate do; a cache hit elides it), so the batched TLB-hit recording
// counts each elided fetch exactly once.
//
// Inside the loop, m.pc is materialised lazily: fast instructions are
// straight-line and cannot observe the PC, so it is written only before a
// step fallback, as the fault return address when a fast load/store
// aborts, and (if the last executed instruction was fast) once at loop
// exit. step-executed instructions maintain the PC themselves, exactly as
// on the slow path.
func (m *Machine) runBlock(e *bcEntry, max int64, firstCounted bool) (int64, Trap, bool) {
	n := int64(len(e.instrs))
	if max > 0 && n > max {
		n = max
	}
	var started, retired int64
	var trap Trap
	stopped := false
	pcSynced := false // does m.pc reflect the last executed instruction?
loop:
	for i := int64(0); i < n; i++ {
		ins := &e.instrs[i]
		started++
		if !e.fast[i] {
			m.pc = e.pc + 4*uint32(i)
			pcSynced = true
			if badReg(*ins) {
				err := fmt.Errorf("arm: invalid register encoding at pc=%#x", m.pc)
				m.TakeException(TrapUndef, m.pc)
				trap = Trap{Kind: TrapUndef, FaultAddr: m.pc, FaultErr: err}
				stopped = true
				break
			}
			if t, stop := m.step(ins); stop {
				trap, stopped = t, true
				break
			}
			retired++
			if (ins.Op == OpSTR || ins.Op == OpSTRR) && m.Phys.PageVersion(e.pa) != e.pageVer {
				// The block stored into its own code page: the rest of
				// the predecoded run may be stale. Stop before the next
				// instruction and rebuild from memory on redispatch.
				e.valid = false
				m.bc.invalidated++
				break
			}
			continue
		}
		pcSynced = false
		// Inline execution of the unbanked data-processing and memory
		// ops: bit-for-bit the same semantics as the step cases, minus
		// the per-instruction dispatch overhead. fastEligible guarantees
		// Rd/Rn/Rm < 13, so m.r indexing is in bounds.
		switch ins.Op {
		case OpNOP, OpDSB, OpISB:
		case OpMOVW:
			m.r[ins.Rd] = ins.Imm
		case OpMOVT:
			m.r[ins.Rd] = ins.Imm<<16 | m.r[ins.Rd]&0xffff
		case OpMOV:
			m.r[ins.Rd] = m.r[ins.Rm]
		case OpMVN:
			m.r[ins.Rd] = ^m.r[ins.Rm]
		case OpADD:
			m.r[ins.Rd] = m.r[ins.Rn] + m.r[ins.Rm]
		case OpSUB:
			m.r[ins.Rd] = m.r[ins.Rn] - m.r[ins.Rm]
		case OpRSB:
			m.r[ins.Rd] = m.r[ins.Rm] - m.r[ins.Rn]
		case OpMUL:
			m.r[ins.Rd] = m.r[ins.Rn] * m.r[ins.Rm]
		case OpAND:
			m.r[ins.Rd] = m.r[ins.Rn] & m.r[ins.Rm]
		case OpORR:
			m.r[ins.Rd] = m.r[ins.Rn] | m.r[ins.Rm]
		case OpEOR:
			m.r[ins.Rd] = m.r[ins.Rn] ^ m.r[ins.Rm]
		case OpBIC:
			m.r[ins.Rd] = m.r[ins.Rn] &^ m.r[ins.Rm]
		case OpLSL:
			m.r[ins.Rd] = m.r[ins.Rn] << (m.r[ins.Rm] & 31)
		case OpLSR:
			m.r[ins.Rd] = m.r[ins.Rn] >> (m.r[ins.Rm] & 31)
		case OpASR:
			m.r[ins.Rd] = uint32(int32(m.r[ins.Rn]) >> (m.r[ins.Rm] & 31))
		case OpROR:
			sh := m.r[ins.Rm] & 31
			v := m.r[ins.Rn]
			m.r[ins.Rd] = v>>sh | v<<((32-sh)&31)
		case OpADDI:
			m.r[ins.Rd] = m.r[ins.Rn] + ins.Imm
		case OpSUBI:
			m.r[ins.Rd] = m.r[ins.Rn] - ins.Imm
		case OpRSBI:
			m.r[ins.Rd] = ins.Imm - m.r[ins.Rn]
		case OpANDI:
			m.r[ins.Rd] = m.r[ins.Rn] & ins.Imm
		case OpORRI:
			m.r[ins.Rd] = m.r[ins.Rn] | ins.Imm
		case OpEORI:
			m.r[ins.Rd] = m.r[ins.Rn] ^ ins.Imm
		case OpBICI:
			m.r[ins.Rd] = m.r[ins.Rn] &^ ins.Imm
		case OpLSLI:
			m.r[ins.Rd] = m.r[ins.Rn] << (ins.Imm & 31)
		case OpLSRI:
			m.r[ins.Rd] = m.r[ins.Rn] >> (ins.Imm & 31)
		case OpASRI:
			m.r[ins.Rd] = uint32(int32(m.r[ins.Rn]) >> (ins.Imm & 31))
		case OpRORI:
			sh := ins.Imm & 31
			v := m.r[ins.Rn]
			m.r[ins.Rd] = v>>sh | v<<((32-sh)&31)
		case OpCMP:
			m.setCmpFlags(m.r[ins.Rn], m.r[ins.Rm])
		case OpCMPI:
			m.setCmpFlags(m.r[ins.Rn], ins.Imm)
		case OpTST:
			m.setTstFlags(m.r[ins.Rn] & m.r[ins.Rm])
		case OpTSTI:
			m.setTstFlags(m.r[ins.Rn] & ins.Imm)
		case OpLDR, OpLDRR:
			addr := m.r[ins.Rn] + ins.Imm
			if ins.Op == OpLDRR {
				addr = m.r[ins.Rn] + m.r[ins.Rm]
			}
			v, err := m.memRead(addr)
			if err != nil {
				m.TakeException(TrapDataAbort, e.pc+4*uint32(i))
				trap = Trap{Kind: TrapDataAbort, FaultAddr: addr, FaultErr: err}
				stopped = true
				break loop
			}
			m.r[ins.Rd] = v
		case OpSTR, OpSTRR:
			addr := m.r[ins.Rn] + ins.Imm
			if ins.Op == OpSTRR {
				addr = m.r[ins.Rn] + m.r[ins.Rm]
			}
			if err := m.memWrite(addr, m.r[ins.Rd]); err != nil {
				m.TakeException(TrapDataAbort, e.pc+4*uint32(i))
				trap = Trap{Kind: TrapDataAbort, FaultAddr: addr, FaultErr: err}
				stopped = true
				break loop
			}
			retired++
			if m.Phys.PageVersion(e.pa) != e.pageVer {
				// Self-modifying store into the block's own code page:
				// see the step-path check above.
				e.valid = false
				m.bc.invalidated++
				break loop
			}
			continue
		}
		retired++
	}
	if !stopped && !pcSynced {
		m.pc = e.pc + 4*uint32(started)
	}
	m.retired += uint64(retired)
	m.Cyc.Charge(uint64(retired) * cycles.Insn)
	if retired == int64(len(e.instrs)) {
		for c := range e.classes {
			m.insnClass[c] += uint64(e.classes[c])
		}
	} else {
		for i := int64(0); i < retired; i++ {
			m.insnClass[classOf[e.instrs[i].Op]]++
		}
	}
	if e.ctx&1 != 0 {
		// Every started instruction's fetch would have hit the TLB on the
		// slow path; record the ones the block elided.
		k := uint64(started)
		if firstCounted {
			k--
		}
		if k > 0 {
			m.TLB.RecordHits(k)
		}
	}
	m.bc.execs++
	m.bc.insns += uint64(retired)
	return started, trap, stopped
}

// EnableBlockCache turns the superblock cache on or off (it is on by
// default). Toggling drops all blocks; semantics are identical either way —
// the knob exists for A/B benchmarking and the differential harness.
func (m *Machine) EnableBlockCache(on bool) {
	m.bc.disabled = !on
	m.bc.reset()
}

// BlockCacheStats reports the cache's machine-lifetime counters (simulator
// telemetry, not architectural state: Restore rewinds the machine but the
// counters keep accumulating, like the wall clock).
func (m *Machine) BlockCacheStats() BlockCacheStats {
	return BlockCacheStats{
		Hits:        m.bc.hits,
		Misses:      m.bc.misses,
		Revalidated: m.bc.revals,
		Invalidated: m.bc.invalidated,
		Fills:       m.bc.fills,
		Resets:      m.bc.resets,
		Blocks:      m.bc.execs,
		BlockInsns:  m.bc.insns,
		Enabled:     !m.bc.disabled,
	}
}
