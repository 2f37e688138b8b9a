// Package mem models the simulated platform's physical memory, including
// the TrustZone partition between secure and insecure RAM and the memory
// protection variants Komodo's hardware requirements allow (§3.2 "Isolated
// memory"):
//
//   - an IOMMU-like filter that merely prevents normal-world (and device)
//     access to secure RAM — sufficient when physical attacks are out of
//     scope;
//   - on-chip scratchpad RAM, which a physical attacker can neither read
//     nor tamper with;
//   - an SGX-style memory encryption engine with integrity protection,
//     under which a physical attacker snooping the bus sees ciphertext and
//     any tampering is detected on the next CPU access.
//
// The machine is word-addressed: all accesses are 32-bit and word-aligned,
// matching the paper's machine model (§5.1: "our machine state models
// memory as a mapping from word-aligned addresses to 32-bit values").
package mem

import (
	"errors"
	"fmt"
	"maps"
	"math/bits"
)

// World identifies the TrustZone security state of an access.
type World int

const (
	// Normal is the normal world: the untrusted OS, applications, and
	// DMA-capable devices (the TZASC/IOMMU treats device traffic as
	// normal-world).
	Normal World = iota
	// Secure is the secure world: the monitor and enclaves.
	Secure
)

func (w World) String() string {
	if w == Secure {
		return "secure"
	}
	return "normal"
}

// Protection selects the §3.2 isolated-memory variant protecting secure RAM.
type Protection int

const (
	// ProtFilter is an IOMMU-like filter: normal-world accesses to secure
	// RAM are blocked, but a physical attacker (bus snoop, cold boot) sees
	// and can modify secure RAM contents. Physical attacks out of scope.
	ProtFilter Protection = iota
	// ProtScratchpad is on-chip RAM: secure contents never leave the SoC,
	// so physical attacks on it fail entirely.
	ProtScratchpad
	// ProtEncrypt is an SGX-style encryption engine with integrity
	// protection: DRAM holds ciphertext; physical tampering is detected
	// on the next CPU access to the affected word.
	ProtEncrypt
)

func (p Protection) String() string {
	switch p {
	case ProtFilter:
		return "iommu-filter"
	case ProtScratchpad:
		return "scratchpad"
	case ProtEncrypt:
		return "encrypt+integrity"
	}
	return fmt.Sprintf("Protection(%d)", int(p))
}

// Architectural constants.
const (
	// PageSize is 4 kB, the only page size Komodo's model supports
	// (§5.1: 4 kB "small" pages in the short descriptor format).
	PageSize = 4096
	// PageWords is the number of 32-bit words per page.
	PageWords = PageSize / 4
	// WordSize in bytes.
	WordSize = 4
)

// Access and integrity errors. The CPU model converts these into the
// corresponding architectural exceptions (data aborts).
var (
	ErrUnaligned       = errors.New("mem: unaligned word access")
	ErrUnmapped        = errors.New("mem: access to unmapped physical address")
	ErrSecureViolation = errors.New("mem: normal-world access to secure memory blocked")
	ErrIntegrity       = errors.New("mem: integrity check failed (physical tampering detected)")
	ErrShielded        = errors.New("mem: on-chip memory is not physically accessible")
)

// Layout describes the physical address map. Regions must be page-aligned
// and disjoint; NewPhysical validates this.
type Layout struct {
	InsecureBase uint32
	InsecureSize uint32
	SecureBase   uint32
	SecureSize   uint32
	Protection   Protection
}

// DefaultLayout mirrors the prototype platform: the bootloader reserves a
// configurable region of RAM as secure memory (§7.2, Figure 4). 16 MB of
// insecure RAM at 0x8000_0000 and 1 MB (256 pages) of secure RAM at
// 0x4000_0000.
func DefaultLayout() Layout {
	return Layout{
		InsecureBase: 0x8000_0000,
		InsecureSize: 16 << 20,
		SecureBase:   0x4000_0000,
		SecureSize:   1 << 20,
		Protection:   ProtFilter,
	}
}

// Physical is the platform's physical memory plus the TrustZone address
// space controller. It is single-core state: not safe for concurrent use.
type Physical struct {
	layout   Layout
	insecure []uint32
	secure   []uint32
	// tampered marks secure words whose DRAM image was physically
	// modified under ProtEncrypt; the next CPU access faults. nil while
	// no word is poisoned (the common case), so the snapshot/restore
	// hot path never allocates for it.
	tampered map[uint32]bool
	// encKey is the (simulated) memory-encryption keystream seed.
	encKey uint32

	// Dirty-page tracking for delta restore. dirtyIns/dirtySec are
	// bitmaps (one bit per 4 kB page) of pages written since the
	// generation-stamped baseline: the last Snapshot taken from, or
	// Restore applied to, this Physical. gen identifies that baseline;
	// a snapshot whose generation matches can be restored by copying
	// only the dirty pages.
	dirtyIns []uint64
	dirtySec []uint64
	gen      uint64
	genCtr   uint64

	// verIns/verSec are per-page version counters, bumped on every write
	// (and on every page a restore copies). A page's version changing is
	// the only way its contents can change, so version equality is a
	// sound content-unchanged check — the superblock cache in
	// internal/arm validates blocks against it.
	verIns []uint64
	verSec []uint64

	stats RestoreStats
}

// RestoreStats counts snapshot/restore activity and the work each restore
// did, for telemetry and the BENCH_*.json perf baselines.
type RestoreStats struct {
	Snapshots     uint64 `json:"snapshots"`
	DeltaRestores uint64 `json:"delta_restores"`
	FullRestores  uint64 `json:"full_restores"`
	// WordsCopied / PagesCopied accumulate over all restores; the Last*
	// fields describe only the most recent restore.
	WordsCopied     uint64 `json:"words_copied"`
	PagesCopied     uint64 `json:"pages_copied"`
	LastWordsCopied uint64 `json:"last_words_copied"`
	LastPagesCopied uint64 `json:"last_pages_copied"`
}

// NewPhysical builds memory for the given layout.
func NewPhysical(l Layout) (*Physical, error) {
	if l.InsecureBase%PageSize != 0 || l.SecureBase%PageSize != 0 ||
		l.InsecureSize%PageSize != 0 || l.SecureSize%PageSize != 0 {
		return nil, fmt.Errorf("mem: layout regions must be page-aligned: %+v", l)
	}
	if l.InsecureSize == 0 || l.SecureSize == 0 {
		return nil, errors.New("mem: layout regions must be non-empty")
	}
	if overlap(l.InsecureBase, l.InsecureSize, l.SecureBase, l.SecureSize) {
		return nil, errors.New("mem: secure and insecure regions overlap")
	}
	insPages := int(l.InsecureSize / PageSize)
	secPages := int(l.SecureSize / PageSize)
	return &Physical{
		layout:   l,
		insecure: make([]uint32, l.InsecureSize/4),
		secure:   make([]uint32, l.SecureSize/4),
		encKey:   0x5ec0_de15,
		dirtyIns: make([]uint64, (insPages+63)/64),
		dirtySec: make([]uint64, (secPages+63)/64),
		verIns:   make([]uint64, insPages),
		verSec:   make([]uint64, secPages),
	}, nil
}

func overlap(b1, s1, b2, s2 uint32) bool {
	e1, e2 := uint64(b1)+uint64(s1), uint64(b2)+uint64(s2)
	return uint64(b1) < e2 && uint64(b2) < e1
}

// Layout returns the address map.
func (p *Physical) Layout() Layout { return p.layout }

// InSecure reports whether addr falls in the secure region.
func (p *Physical) InSecure(addr uint32) bool {
	return addr >= p.layout.SecureBase && uint64(addr) < uint64(p.layout.SecureBase)+uint64(p.layout.SecureSize)
}

// InInsecure reports whether addr falls in the insecure region.
func (p *Physical) InInsecure(addr uint32) bool {
	return addr >= p.layout.InsecureBase && uint64(addr) < uint64(p.layout.InsecureBase)+uint64(p.layout.InsecureSize)
}

// Read performs a CPU (or DMA, with w==Normal) word read.
func (p *Physical) Read(addr uint32, w World) (uint32, error) {
	if addr%WordSize != 0 {
		return 0, fmt.Errorf("%w: %#x", ErrUnaligned, addr)
	}
	switch {
	case p.InSecure(addr):
		if w != Secure {
			return 0, fmt.Errorf("%w: read %#x", ErrSecureViolation, addr)
		}
		if p.layout.Protection == ProtEncrypt && p.tampered[addr] {
			return 0, fmt.Errorf("%w: read %#x", ErrIntegrity, addr)
		}
		return p.secure[(addr-p.layout.SecureBase)/4], nil
	case p.InInsecure(addr):
		return p.insecure[(addr-p.layout.InsecureBase)/4], nil
	default:
		return 0, fmt.Errorf("%w: read %#x", ErrUnmapped, addr)
	}
}

// Write performs a CPU (or DMA, with w==Normal) word write.
func (p *Physical) Write(addr, val uint32, w World) error {
	if addr%WordSize != 0 {
		return fmt.Errorf("%w: %#x", ErrUnaligned, addr)
	}
	switch {
	case p.InSecure(addr):
		if w != Secure {
			return fmt.Errorf("%w: write %#x", ErrSecureViolation, addr)
		}
		if p.layout.Protection == ProtEncrypt && p.tampered != nil {
			// A legitimate write re-encrypts the line, clearing any
			// pending integrity poison for that word.
			delete(p.tampered, addr)
		}
		off := addr - p.layout.SecureBase
		p.touchSecure(off/PageSize, 1)
		p.secure[off/4] = val
		return nil
	case p.InInsecure(addr):
		off := addr - p.layout.InsecureBase
		p.touchInsecure(off/PageSize, 1)
		p.insecure[off/4] = val
		return nil
	default:
		return fmt.Errorf("%w: write %#x", ErrUnmapped, addr)
	}
}

// touchSecure / touchInsecure record n word writes to page pg: set the
// dirty bit for delta restore and bump the page version once per word for
// content-change checks.
func (p *Physical) touchSecure(pg uint32, n uint64) {
	p.dirtySec[pg>>6] |= 1 << (pg & 63)
	p.verSec[pg] += n
}

func (p *Physical) touchInsecure(pg uint32, n uint64) {
	p.dirtyIns[pg>>6] |= 1 << (pg & 63)
	p.verIns[pg] += n
}

// ReadWords fills dst from consecutive words starting at addr. It is the
// bulk form of a Read loop over those addresses: the same words, and on
// failure the error of the first word that fails. Regions are
// page-aligned, so access is checked once per page and each page is one
// copy; secure pages with poisoned words under ProtEncrypt are still
// read word by word.
func (p *Physical) ReadWords(addr uint32, dst []uint32, w World) error {
	if addr%WordSize != 0 && len(dst) > 0 {
		_, err := p.Read(addr, w)
		return err
	}
	for len(dst) > 0 {
		n := min(len(dst), int(PageSize-addr%PageSize)/WordSize)
		switch {
		case p.InInsecure(addr):
			copy(dst[:n], p.insecure[(addr-p.layout.InsecureBase)/4:])
		case p.InSecure(addr) && w == Secure && len(p.tampered) == 0:
			copy(dst[:n], p.secure[(addr-p.layout.SecureBase)/4:])
		default:
			for i := range dst[:n] {
				v, err := p.Read(addr+uint32(i*WordSize), w)
				if err != nil {
					return err
				}
				dst[i] = v
			}
		}
		dst = dst[n:]
		addr += uint32(n * WordSize)
	}
	return nil
}

// WriteWords stores src at consecutive words starting at addr: the bulk
// form of a Write loop, leaving memory, dirty bits and page versions as
// that loop would, and failing with the same error after writing the
// same prefix.
func (p *Physical) WriteWords(addr uint32, src []uint32, w World) error {
	if addr%WordSize != 0 && len(src) > 0 {
		return p.Write(addr, src[0], w)
	}
	for len(src) > 0 {
		n := min(len(src), int(PageSize-addr%PageSize)/WordSize)
		switch {
		case p.InInsecure(addr):
			off := addr - p.layout.InsecureBase
			copy(p.insecure[off/4:], src[:n])
			p.touchInsecure(off/PageSize, uint64(n))
		case p.InSecure(addr) && w == Secure && len(p.tampered) == 0:
			off := addr - p.layout.SecureBase
			copy(p.secure[off/4:], src[:n])
			p.touchSecure(off/PageSize, uint64(n))
		default:
			for i, v := range src[:n] {
				if err := p.Write(addr+uint32(i*WordSize), v, w); err != nil {
					return err
				}
			}
		}
		src = src[n:]
		addr += uint32(n * WordSize)
	}
	return nil
}

// keystream is the simulated encryption engine's per-word pad. It only
// models *observational* ciphertext for the physical attacker; CPU-side
// accesses are transparent, as on real hardware.
func (p *Physical) keystream(addr uint32) uint32 {
	x := addr ^ p.encKey
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// SnoopDRAM models a physical attacker reading raw DRAM (bus snooping or a
// cold-boot attack, §3.1). What it observes depends on the protection
// variant.
func (p *Physical) SnoopDRAM(addr uint32) (uint32, error) {
	if addr%WordSize != 0 {
		return 0, fmt.Errorf("%w: %#x", ErrUnaligned, addr)
	}
	switch {
	case p.InSecure(addr):
		switch p.layout.Protection {
		case ProtScratchpad:
			return 0, fmt.Errorf("%w: snoop %#x", ErrShielded, addr)
		case ProtEncrypt:
			plain := p.secure[(addr-p.layout.SecureBase)/4]
			return plain ^ p.keystream(addr), nil
		default: // ProtFilter: physical attacks out of scope, DRAM is plaintext
			return p.secure[(addr-p.layout.SecureBase)/4], nil
		}
	case p.InInsecure(addr):
		return p.insecure[(addr-p.layout.InsecureBase)/4], nil
	default:
		return 0, fmt.Errorf("%w: snoop %#x", ErrUnmapped, addr)
	}
}

// TamperDRAM models a physical attacker overwriting raw DRAM.
func (p *Physical) TamperDRAM(addr, raw uint32) error {
	if addr%WordSize != 0 {
		return fmt.Errorf("%w: %#x", ErrUnaligned, addr)
	}
	switch {
	case p.InSecure(addr):
		switch p.layout.Protection {
		case ProtScratchpad:
			return fmt.Errorf("%w: tamper %#x", ErrShielded, addr)
		case ProtEncrypt:
			// The engine will detect the modification: poison the word.
			if p.tampered == nil {
				p.tampered = make(map[uint32]bool)
			}
			p.tampered[addr] = true
			p.touchSecure((addr-p.layout.SecureBase)/PageSize, 1)
			p.secure[(addr-p.layout.SecureBase)/4] = raw ^ p.keystream(addr)
			return nil
		default:
			p.touchSecure((addr-p.layout.SecureBase)/PageSize, 1)
			p.secure[(addr-p.layout.SecureBase)/4] = raw
			return nil
		}
	case p.InInsecure(addr):
		p.touchInsecure((addr-p.layout.InsecureBase)/PageSize, 1)
		p.insecure[(addr-p.layout.InsecureBase)/4] = raw
		return nil
	default:
		return fmt.Errorf("%w: tamper %#x", ErrUnmapped, addr)
	}
}

// --- Page-granularity helpers used by the monitor and the OS model ---

// SecurePageCount returns the number of 4 kB secure pages.
func (p *Physical) SecurePageCount() int { return int(p.layout.SecureSize / PageSize) }

// SecurePageBase returns the physical base address of secure page n.
func (p *Physical) SecurePageBase(n int) uint32 {
	return p.layout.SecureBase + uint32(n)*PageSize
}

// SecurePageIndex returns the secure page number containing addr, or -1.
func (p *Physical) SecurePageIndex(addr uint32) int {
	if !p.InSecure(addr) {
		return -1
	}
	return int((addr - p.layout.SecureBase) / PageSize)
}

// ReadPage copies the 1024 words of the page at base (which must be
// page-aligned) using world w for permission checks.
func (p *Physical) ReadPage(base uint32, w World) ([PageWords]uint32, error) {
	var out [PageWords]uint32
	if base%PageSize != 0 {
		return out, fmt.Errorf("%w: page base %#x", ErrUnaligned, base)
	}
	return out, p.ReadWords(base, out[:], w)
}

// WritePage writes 1024 words to the page at base.
func (p *Physical) WritePage(base uint32, words *[PageWords]uint32, w World) error {
	if base%PageSize != 0 {
		return fmt.Errorf("%w: page base %#x", ErrUnaligned, base)
	}
	return p.WriteWords(base, words[:], w)
}

// ZeroPage zero-fills the page at base.
func (p *Physical) ZeroPage(base uint32, w World) error {
	var z [PageWords]uint32
	return p.WritePage(base, &z, w)
}

// MemSnapshot captures the full contents of physical memory (for machine
// snapshot/restore, e.g. forking bisimulation states mid-run). It is
// generation-stamped: while the owning Physical's dirty-page tracking is
// still baselined on this snapshot, Restore copies back only the pages
// written since (delta restore), falling back to a full copy otherwise.
type MemSnapshot struct {
	insecure []uint32
	secure   []uint32
	// tampered is nil or empty when no word was poisoned at capture time
	// — the common case — so restores of clean snapshots allocate nothing.
	tampered map[uint32]bool

	owner *Physical
	gen   uint64
}

// Snapshot copies all memory contents and re-baselines dirty tracking:
// from this point the dirty bitmaps record exactly the pages that differ
// from the returned snapshot.
func (p *Physical) Snapshot() *MemSnapshot {
	s := &MemSnapshot{
		insecure: append([]uint32(nil), p.insecure...),
		secure:   append([]uint32(nil), p.secure...),
		owner:    p,
	}
	copyTamper(&s.tampered, p.tampered)
	p.genCtr++
	p.gen = p.genCtr
	s.gen = p.gen
	clearBits(p.dirtyIns)
	clearBits(p.dirtySec)
	p.stats.Snapshots++
	return s
}

// Restore rewinds memory to a snapshot taken from the same layout. When
// the snapshot is this Physical's current dirty-tracking baseline (the
// usual serving-pool case: one golden snapshot, restored after every
// request), only pages dirtied since it are copied back; any other
// snapshot gets a full copy. Both paths yield bit-identical memory; the
// delta path just skips pages that provably never changed.
func (p *Physical) Restore(s *MemSnapshot) error {
	if len(s.insecure) != len(p.insecure) || len(s.secure) != len(p.secure) {
		return errors.New("mem: snapshot layout mismatch")
	}
	var pages, words uint64
	if s.owner == p && s.gen == p.gen {
		pages += copyDirty(p.insecure, s.insecure, p.dirtyIns, p.verIns)
		pages += copyDirty(p.secure, s.secure, p.dirtySec, p.verSec)
		words = pages * PageWords
		p.stats.DeltaRestores++
	} else {
		copy(p.insecure, s.insecure)
		copy(p.secure, s.secure)
		bumpAll(p.verIns)
		bumpAll(p.verSec)
		pages = uint64(len(p.verIns) + len(p.verSec))
		words = uint64(len(p.insecure) + len(p.secure))
		p.stats.FullRestores++
		// Memory now matches s exactly: adopt it as the dirty-tracking
		// baseline so repeated restores of the same snapshot are deltas.
		// Foreign snapshots (owner != p) stay full-copy: their
		// generations are not comparable with ours, and memory no longer
		// matches any of our own snapshots — burn a fresh generation so a
		// stale p.gen can't alias an own snapshot's gen and send a later
		// Restore of it down the delta path with empty dirty bits.
		if s.owner == p {
			p.gen = s.gen
		} else {
			p.genCtr++
			p.gen = p.genCtr
		}
	}
	clearBits(p.dirtyIns)
	clearBits(p.dirtySec)
	p.stats.WordsCopied += words
	p.stats.PagesCopied += pages
	p.stats.LastWordsCopied = words
	p.stats.LastPagesCopied = pages

	copyTamper(&p.tampered, s.tampered)
	return nil
}

// copyTamper makes *dst hold exactly src's integrity poison, reusing
// *dst's map and allocating nothing when src is clean (the
// overwhelmingly common case).
func copyTamper(dst *map[uint32]bool, src map[uint32]bool) {
	switch {
	case len(src) == 0:
		clear(*dst)
	case *dst == nil:
		*dst = maps.Clone(src)
	default:
		clear(*dst)
		maps.Copy(*dst, src)
	}
}

// Rebase makes live memory the content of s without a full copy: when s
// is this Physical's current dirty-tracking baseline, only the pages
// dirtied since are copied into s (and the tamper map replaces s's). A
// fresh generation is then burned and stamped on s, and the dirty bits
// clear, exactly as if Snapshot had been taken — but s is updated in
// place, so the caller must own it outright. Burning the generation
// matters: anything keyed on the old one (a cached replay baseline, say)
// must not survive the rebase. Memory itself is not written, so page
// versions are unchanged. When s is not the current baseline Rebase
// returns false and changes nothing; take a Snapshot instead.
func (p *Physical) Rebase(s *MemSnapshot) bool {
	if s.owner != p || s.gen != p.gen {
		return false
	}
	copyDirty(s.insecure, p.insecure, p.dirtyIns, nil)
	copyDirty(s.secure, p.secure, p.dirtySec, nil)
	copyTamper(&s.tampered, p.tampered)
	p.genCtr++
	p.gen = p.genCtr
	s.gen = p.gen
	clearBits(p.dirtyIns)
	clearBits(p.dirtySec)
	return true
}

// copyDirty copies every dirty page from src into dst and returns the
// number of pages copied. When ver is non-nil the copied pages' versions
// bump (dst is live memory whose contents change now).
func copyDirty(dst, src []uint32, dirty []uint64, ver []uint64) uint64 {
	var pages uint64
	for wi, bits := range dirty {
		for bits != 0 {
			b := bits & (-bits) // lowest set bit
			pg := uint32(wi)<<6 | uint32(trailingZeros64(bits))
			off := int(pg) * PageWords
			copy(dst[off:off+PageWords], src[off:off+PageWords])
			if ver != nil {
				ver[pg]++
			}
			pages++
			bits ^= b
		}
	}
	return pages
}

func clearBits(b []uint64) {
	for i := range b {
		b[i] = 0
	}
}

func bumpAll(ver []uint64) {
	for i := range ver {
		ver[i]++
	}
}

func trailingZeros64(v uint64) int { return bits.TrailingZeros64(v) }

// DirtyPages counts pages written since the dirty-tracking baseline (the
// last Snapshot or Restore) — the komodo_mem_dirty_pages gauge.
func (p *Physical) DirtyPages() int {
	n := 0
	for _, w := range p.dirtyIns {
		n += bits.OnesCount64(w)
	}
	for _, w := range p.dirtySec {
		n += bits.OnesCount64(w)
	}
	return n
}

// PageVersion returns the version counter of the page containing addr (0
// for unmapped addresses). The version changes whenever the page's
// contents may have changed — every CPU/DMA write, physical tamper, and
// restore-copy bumps it — so equal versions imply identical contents.
func (p *Physical) PageVersion(addr uint32) uint64 {
	switch {
	case p.InInsecure(addr):
		return p.verIns[(addr-p.layout.InsecureBase)/PageSize]
	case p.InSecure(addr):
		return p.verSec[(addr-p.layout.SecureBase)/PageSize]
	}
	return 0
}

// RestoreStats reports cumulative snapshot/restore activity.
func (p *Physical) RestoreStats() RestoreStats { return p.stats }

// TotalWords returns the number of words a full restore copies (the
// whole physical address map).
func (p *Physical) TotalWords() uint64 { return uint64(len(p.insecure) + len(p.secure)) }
