package mem

import (
	"fmt"
	"math/bits"
)

// Memory export/import for the deterministic record/replay layer
// (internal/replay): a recording must carry the complete memory image the
// run started from, and a replayer must be able to impose that image on a
// freshly booted board. Both directions work in whole pages over the raw
// backing words, so an export round-trips bit-identically regardless of
// the protection variant (the backing pages hold the CPU-visible values;
// the encryption keystream is applied only on the simulated DRAM surface).

// PageImage is one page of an exported memory image.
type PageImage struct {
	Secure bool
	// Page is the page index within its region (not a physical address).
	Page  uint32
	Words [PageWords]uint32
}

// ExportPages returns every non-zero page of both regions, insecure region
// first, ascending page order. Together with the implicit all-zero
// remainder this is the complete memory content: ImportPages(ExportPages())
// reproduces it bit-identically on a same-layout Physical. The result is
// one allocation, sized by the allocated pages.
func (p *Physical) ExportPages() []PageImage {
	n := 0
	for _, secure := range []bool{false, true} {
		for _, pg := range p.region(secure).pages {
			if pg != nil {
				n++
			}
		}
	}
	out := make([]PageImage, 0, n)
	for _, secure := range []bool{false, true} {
		for i, pg := range p.region(secure).pages {
			if pg != nil && !allZero(pg[:]) {
				out = append(out, PageImage{Secure: secure, Page: uint32(i), Words: *pg})
			}
		}
	}
	if len(out) == 0 {
		return nil // an all-zero memory exports nil
	}
	return out
}

// region returns the insecure or the secure region.
func (p *Physical) region(secure bool) *region {
	if secure {
		return &p.sec
	}
	return &p.ins
}

// ImportPages replaces the entire memory content: both regions are zeroed,
// then the given pages are written. Bookkeeping follows full-restore
// semantics — every page version bumps, dirty bits clear, tamper poison
// clears, and the delta-restore generation is burned so no stale snapshot
// can delta-restore over the imported image. Every page index is checked
// before anything is written: an invalid import returns an error and
// leaves memory and its bookkeeping untouched.
func (p *Physical) ImportPages(pages []PageImage) error {
	for _, img := range pages {
		if int(img.Page) >= len(p.region(img.Secure).pages) {
			return fmt.Errorf("mem: import of page %d out of range", img.Page)
		}
	}
	p.ins.copyAll(nil)
	p.sec.copyAll(nil)
	for i := range pages {
		img := &pages[i]
		copyPage(&p.region(img.Secure).pages[img.Page], &img.Words)
	}
	p.tampered = nil
	clear(p.ins.dirty)
	clear(p.sec.dirty)
	p.genCtr++
	p.gen = p.genCtr
	p.stats.FullRestores++
	return nil
}

// FNV-1a parameters for Digest. zeroPageMul is prime64^PageWords mod 2^64:
// folding a zero word is one multiply by prime64, so an unallocated page
// folds in as one multiply by zeroPageMul.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

var zeroPageMul = func() uint64 {
	m := uint64(1)
	for range PageWords {
		m *= prime64
	}
	return m
}()

// Digest folds every memory word (insecure region then secure region, in
// address order) into an FNV-1a hash — the cheap bit-identity check the
// replayer uses to compare a replayed board's memory against the
// recording's final state. Unallocated pages cost one multiply each.
func (p *Physical) Digest() uint64 {
	h := uint64(offset64)
	for _, pages := range [...][]*page{p.ins.pages, p.sec.pages} {
		for _, pg := range pages {
			if pg == nil {
				h *= zeroPageMul
				continue
			}
			for _, w := range pg {
				h = (h ^ uint64(w)) * prime64
			}
		}
	}
	return h
}

// DirtyPageList returns the page indices written since the last
// Snapshot/Restore baseline, per region.
func (p *Physical) DirtyPageList() (ins, sec []uint32) {
	list := func(dirty []uint64) []uint32 {
		var out []uint32
		for wi, w := range dirty {
			for w != 0 {
				bit := bits.TrailingZeros64(w)
				out = append(out, uint32(wi*64+bit))
				w &^= 1 << bit
			}
		}
		return out
	}
	return list(p.ins.dirty), list(p.sec.dirty)
}
