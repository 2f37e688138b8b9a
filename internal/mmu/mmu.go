// Package mmu implements the simulated MMU: two-level hierarchical page
// tables over a 1 GB enclave virtual address space, page walks, permission
// checks, and a TLB with the consistency tracking the paper's machine model
// specifies (§5.1 "As well as page tables, we also model TLB consistency").
//
// Komodo encodes "a two-level hierarchical page table with a granularity
// chosen to reflect ARM's hardware page-table format" (§4). Our layout:
//
//	VA (1 GB limit, §7.2/Figure 4: TTBR0 maps only the first 1 GB):
//	  bits[31:30] = 0        (addresses ≥1 GB are not translated by TTBR0)
//	  bits[29:22] = L1 index (256 entries, each covering 4 MB)
//	  bits[21:12] = L2 index (1024 entries, each covering 4 kB)
//	  bits[11: 0] = page offset
//
//	L1 entry (word i of the L1 page-table page, i < 256):
//	  0 = invalid; otherwise bits[31:12] = L2 table page base, bit0 = 1.
//
//	L2 entry (word j of an L2 page-table page, j < 1024):
//	  0 = invalid; otherwise bits[31:12] = target page base,
//	  bit0 = valid, bit1 = writable, bit2 = executable,
//	  bit3 = NS (maps an insecure page).
//
// This differs from ARM's short-descriptor bit placement but preserves its
// structure (a 4 kB L2 granule, hierarchical walk, per-page permissions and
// a per-mapping security attribute), which is all the monitor's correctness
// argument depends on.
package mmu

import (
	"errors"
	"fmt"

	"repro/internal/mem"
)

// Address-space geometry.
const (
	// VASpaceSize is the 1 GB enclave virtual address space limit.
	VASpaceSize = 1 << 30
	// L1Entries is the number of first-level entries (4 MB each).
	L1Entries = 256
	// L2Entries is the number of second-level entries per table (4 kB each).
	L2Entries = 1024
	// L1Span is the VA range covered by one L1 entry.
	L1Span = VASpaceSize / L1Entries // 4 MB
)

// PTE permission/attribute bits (L2 entries).
const (
	PteValid uint32 = 1 << 0
	PteWrite uint32 = 1 << 1
	PteExec  uint32 = 1 << 2
	PteNS    uint32 = 1 << 3

	pteBaseMask = ^uint32(mem.PageSize - 1)
)

// Perms is the decoded permission set of a mapping. Read access is implied
// by validity, as in Komodo's model.
type Perms struct {
	Write bool
	Exec  bool
	NS    bool // target is an insecure (normal-world) page
}

// PTE builds an L2 entry for the page at base with the given permissions.
func PTE(base uint32, p Perms) uint32 {
	e := (base & pteBaseMask) | PteValid
	if p.Write {
		e |= PteWrite
	}
	if p.Exec {
		e |= PteExec
	}
	if p.NS {
		e |= PteNS
	}
	return e
}

// DecodePTE splits an L2 entry into page base and permissions. The second
// return is false if the entry is invalid.
func DecodePTE(e uint32) (base uint32, p Perms, valid bool) {
	if e&PteValid == 0 {
		return 0, Perms{}, false
	}
	return e & pteBaseMask, Perms{
		Write: e&PteWrite != 0,
		Exec:  e&PteExec != 0,
		NS:    e&PteNS != 0,
	}, true
}

// L1Index and L2Index extract the walk indices from a virtual address.
func L1Index(va uint32) int { return int(va>>22) & (L1Entries - 1) }
func L2Index(va uint32) int { return int(va>>12) & (L2Entries - 1) }

// InVASpace reports whether va is inside the translated 1 GB region.
func InVASpace(va uint32) bool { return va < VASpaceSize }

// Translation faults. The CPU converts these to prefetch/data aborts.
var (
	ErrOutOfRange = errors.New("mmu: virtual address beyond 1 GB enclave space")
	ErrNoMapping  = errors.New("mmu: translation fault")
	ErrBadTable   = errors.New("mmu: page-table walk touched invalid memory")
)

// Walk performs a two-level page-table walk through physical memory. The
// walk itself is a secure-world access (the monitor installs enclave page
// tables in secure pages). It does not consult the TLB.
func Walk(phys *mem.Physical, ttbr0, va uint32) (pa uint32, p Perms, err error) {
	if !InVASpace(va) {
		return 0, Perms{}, fmt.Errorf("%w: %#x", ErrOutOfRange, va)
	}
	l1e, rerr := phys.Read(ttbr0+uint32(L1Index(va))*4, mem.Secure)
	if rerr != nil {
		return 0, Perms{}, fmt.Errorf("%w: L1 at ttbr0=%#x: %v", ErrBadTable, ttbr0, rerr)
	}
	if l1e&PteValid == 0 {
		return 0, Perms{}, fmt.Errorf("%w: no L2 table for va %#x", ErrNoMapping, va)
	}
	l2base := l1e & pteBaseMask
	l2e, rerr := phys.Read(l2base+uint32(L2Index(va))*4, mem.Secure)
	if rerr != nil {
		return 0, Perms{}, fmt.Errorf("%w: L2 at %#x: %v", ErrBadTable, l2base, rerr)
	}
	base, perms, valid := DecodePTE(l2e)
	if !valid {
		return 0, Perms{}, fmt.Errorf("%w: va %#x", ErrNoMapping, va)
	}
	return base | (va & (mem.PageSize - 1)), perms, nil
}

// TLB caches completed translations at page granularity. Entries persist
// until an explicit flush: modifying a page table without flushing leaves
// stale entries visible, exactly the hazard the paper's model forces the
// implementation to reason about (§5.1). Consistent() tracks whether any
// page-table store or TTBR0 load has occurred since the last flush; the
// monitor's proof obligation — flush before entering an enclave — becomes a
// runtime check in our refinement harness.
type TLB struct {
	entries    map[uint32]tlbEntry // key: VA page base
	consistent bool
	fills      uint64
	hits       uint64
	misses     uint64
	flushes    uint64
	// epoch advances on every event after which a previously completed
	// translation might resolve differently on the next walk: a flush
	// (entries drop, the walk re-reads possibly modified tables) or a
	// consistency-breaking store/TTBR load. Derived caches keyed on a
	// translation result (the arm package's superblock cache) validate
	// against it instead of hooking every maintenance call site.
	epoch uint64

	// One-entry MRU cache in front of the map: instruction fetch hits the
	// same page for long runs, and the map lookup dominates the
	// interpreter's per-instruction cost (simulator performance only —
	// architecturally invisible).
	lastVA uint32
	last   tlbEntry
	lastOK bool
}

type tlbEntry struct {
	paBase uint32
	perms  Perms
}

// NewTLB returns an empty, consistent TLB.
func NewTLB() *TLB {
	return &TLB{entries: make(map[uint32]tlbEntry), consistent: true}
}

// Lookup returns a cached translation for the page containing va.
func (t *TLB) Lookup(va uint32) (paBase uint32, p Perms, ok bool) {
	page := va &^ uint32(mem.PageSize-1)
	if t.lastOK && t.lastVA == page {
		t.hits++
		return t.last.paBase, t.last.perms, true
	}
	e, ok := t.entries[page]
	if ok {
		t.hits++
		t.lastVA, t.last, t.lastOK = page, e, true
	} else {
		t.misses++
	}
	return e.paBase, e.perms, ok
}

// Fill caches a completed walk.
func (t *TLB) Fill(va, paBase uint32, p Perms) {
	t.fills++
	page := va &^ uint32(mem.PageSize-1)
	e := tlbEntry{paBase: paBase &^ uint32(mem.PageSize-1), perms: p}
	t.entries[page] = e
	t.lastVA, t.last, t.lastOK = page, e, true
}

// RecordHits counts n lookups that a derived cache proved would hit without
// performing them: the arm package's superblock cache proves a whole
// block's fetches would hit (epoch match at block entry) and records them
// in one call at block exit, so the TLB hit-rate telemetry describes the
// same architectural fetch stream either way.
func (t *TLB) RecordHits(n uint64) { t.hits += n }

// Flush invalidates all entries and marks the TLB consistent (the model
// supports only whole-TLB flushes, per §5.1).
func (t *TLB) Flush() {
	t.flushes++
	t.epoch++
	clear(t.entries)
	t.consistent = true
	t.lastOK = false
}

// MarkInconsistent records a page-table store or TTBR0 load without flush.
func (t *TLB) MarkInconsistent() {
	t.consistent = false
	t.epoch++
}

// Epoch returns the translation-validity epoch (see the field comment).
func (t *TLB) Epoch() uint64 { return t.epoch }

// Consistent reports whether the TLB is known to agree with the tables.
func (t *TLB) Consistent() bool { return t.consistent }

// Stats returns fill/hit/flush counters for evaluation.
func (t *TLB) Stats() (fills, hits, flushes uint64) { return t.fills, t.hits, t.flushes }

// Counters is the TLB's full counter set for telemetry. Every miss
// corresponds to a page walk; fills can exceed misses only if a caller
// fills without a preceding failed lookup.
type Counters struct {
	Hits    uint64
	Misses  uint64
	Fills   uint64
	Flushes uint64
	Entries int
}

// Counters returns the current counter values.
func (t *TLB) Counters() Counters {
	return Counters{Hits: t.hits, Misses: t.misses, Fills: t.fills, Flushes: t.flushes, Entries: len(t.entries)}
}

// Size returns the number of cached entries.
func (t *TLB) Size() int { return len(t.entries) }
