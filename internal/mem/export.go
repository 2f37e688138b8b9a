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
// the protection variant (the backing arrays hold the CPU-visible values;
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
// reproduces it bit-identically on a same-layout Physical.
func (p *Physical) ExportPages() []PageImage {
	var out []PageImage
	collect := func(words []uint32, secure bool) {
		npages := len(words) / PageWords
		for pg := 0; pg < npages; pg++ {
			chunk := words[pg*PageWords : (pg+1)*PageWords]
			zero := true
			for _, w := range chunk {
				if w != 0 {
					zero = false
					break
				}
			}
			if zero {
				continue
			}
			img := PageImage{Secure: secure, Page: uint32(pg)}
			copy(img.Words[:], chunk)
			out = append(out, img)
		}
	}
	collect(p.insecure, false)
	collect(p.secure, true)
	return out
}

// ExportPage copies one page's current backing words.
func (p *Physical) ExportPage(secure bool, page uint32) (PageImage, error) {
	words := p.insecure
	if secure {
		words = p.secure
	}
	if int(page) >= len(words)/PageWords {
		return PageImage{}, fmt.Errorf("mem: export of page %d out of range", page)
	}
	img := PageImage{Secure: secure, Page: page}
	copy(img.Words[:], words[page*PageWords:(page+1)*PageWords])
	return img, nil
}

// ImportPages replaces the entire memory content: both regions are zeroed,
// then the given pages are written. Bookkeeping follows full-restore
// semantics — every page version bumps, dirty bits clear, tamper poison
// clears, and the delta-restore generation is burned so no stale snapshot
// can delta-restore over the imported image. Every page index is checked
// before anything is written: an invalid import returns an error and
// leaves memory and its bookkeeping untouched.
func (p *Physical) ImportPages(pages []PageImage) error {
	region := func(secure bool) []uint32 {
		if secure {
			return p.secure
		}
		return p.insecure
	}
	for _, img := range pages {
		if int(img.Page) >= len(region(img.Secure))/PageWords {
			return fmt.Errorf("mem: import of page %d out of range", img.Page)
		}
	}
	clear(p.insecure)
	clear(p.secure)
	for _, img := range pages {
		copy(region(img.Secure)[img.Page*PageWords:], img.Words[:])
	}
	p.tampered = nil
	bumpAll(p.verIns)
	bumpAll(p.verSec)
	clearBits(p.dirtyIns)
	clearBits(p.dirtySec)
	p.genCtr++
	p.gen = p.genCtr
	p.stats.FullRestores++
	return nil
}

// Digest folds every memory word (insecure region then secure region, in
// address order) into an FNV-1a hash — the cheap bit-identity check the
// replayer uses to compare a replayed board's memory against the
// recording's final state.
func (p *Physical) Digest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range p.insecure {
		h = (h ^ uint64(w)) * prime64
	}
	for _, w := range p.secure {
		h = (h ^ uint64(w)) * prime64
	}
	return h
}

// Generation returns the current delta-restore generation stamp. The
// recorder uses it to decide whether a cached baseline export still
// describes this memory (see internal/replay).
func (p *Physical) Generation() uint64 { return p.gen }

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
	return list(p.dirtyIns), list(p.dirtySec)
}
