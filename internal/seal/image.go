// Enclave checkpoint images: the payload format inside KindCheckpoint
// sealed blobs. The codec is position-independent — secure pages are
// referenced by *logical index* (0 = first owned page in ascending
// PageNr order), so an image taken on one board instantiates onto any
// set of free pages on another. Insecure mappings keep their physical
// addresses: insecure RAM is the same on every board.
//
// The same code runs in the concrete monitor, the functional spec, and
// offline tooling, so the three agree word-for-word on what a
// checkpoint contains.
package seal

import (
	"encoding/binary"
	"errors"
	"slices"

	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/pagedb"
	"repro/internal/sha2"
)

// ErrImage reports a structurally invalid checkpoint image. The monitor
// maps it (and any seal failure) to KOM_ERR_SEAL_INVALID.
var ErrImage = errors.New("seal: invalid checkpoint image")

// ErrEncode reports an enclave that cannot be imaged (e.g. a stopped
// enclave whose page tables were already partially removed).
var ErrEncode = errors.New("seal: enclave not imageable")

// Image page-type tags (independent of the monitor's PageDB encoding).
const (
	imgThread uint32 = 1
	imgL1     uint32 = 2
	imgL2     uint32 = 3
	imgData   uint32 = 4
	imgSpare  uint32 = 5
)

// imageVersion is the checkpoint payload format version.
const imageVersion uint32 = 1

// l1Absent marks an image with no L1 page table (only legal for stopped
// enclaves, whose structural invariants are already relaxed).
const l1Absent uint32 = 0xFFFFFFFF

// imageHeaderWords: version, state, N, l1 index, Measured[8], hash
// h[8], nbuf, lenL, lenH, 16-word hash block buffer.
const imageHeaderWords = 4 + 8 + 8 + 3 + 16

// Per-page payload word counts by image type (plus one type word each).
const (
	threadWords = 37
	l1Words     = mmu.L1Entries
	l2Words     = 2 * mmu.L2Entries // flag/target word pair per entry
	dataWords   = mem.PageWords
)

// Image is a decoded checkpoint: one enclave, relocated to logical page
// indices.
type Image struct {
	State    pagedb.ASState
	Measured [8]uint32
	Hash     sha2.Hash // running measurement state, resumes on restore
	L1Index  int       // logical index of the L1 page table, -1 if absent
	Pages    []PageImage
}

// PageImage is one owned page. Exactly one payload field is set, per
// Type; spare pages carry none.
type PageImage struct {
	Type   pagedb.PageType
	Thread *pagedb.Thread
	L1     *L1Map
	L2     *L2Map
	Data   *pagedb.Data
}

// L1Map is an L1 page table with logical L2 targets.
type L1Map struct {
	Present [mmu.L1Entries]bool
	Target  [mmu.L1Entries]int // logical index of the L2 table
}

// L2Map is an L2 page table with logical data targets (secure entries)
// or physical insecure addresses (insecure entries).
type L2Map struct {
	Entries [mmu.L2Entries]L2MapEntry
}

// L2MapEntry mirrors pagedb.L2Entry with a relocatable target.
type L2MapEntry struct {
	Valid  bool
	Secure bool
	Write  bool
	Exec   bool
	Target uint32 // logical data index if Secure, insecure PA otherwise
}

// ImageWords returns the encoded payload size for an enclave owning the
// given page mix, so callers can size the destination window before
// asking the monitor to checkpoint.
func ImageWords(threads, l1, l2, data, spares int) int {
	n := threads + l1 + l2 + data + spares // one type word per page
	return imageHeaderWords + n +
		threads*threadWords + l1*l1Words + l2*l2Words + data*dataWords
}

// EncodeEnclave appends to dst the image payload words of the enclave
// rooted at as in a decoded PageDB, growing dst at most once, to the
// image's ImageWords size. The page order — and therefore the logical
// index of every page — is OwnedBy(as): ascending PageNr, a fact the
// untrusted OS can reproduce to build its own manifest. d needs to hold
// only as and the pages it owns; every other entry may be left free.
func EncodeEnclave(dst []uint32, d *pagedb.DB, as pagedb.PageNr) ([]uint32, error) {
	a := d.Addrspace(as)
	if a == nil {
		return nil, ErrEncode
	}
	// owned is OwnedBy(as), kept on the stack for enclaves of up to 256
	// pages; a page's logical index is its position in owned.
	var ownedBuf [256]pagedb.PageNr
	owned := ownedBuf[:0]
	var count [pagedb.TypeSpare + 1]int // owned pages by type
	for i := range d.Pages {
		e := &d.Pages[i]
		if e.Type == pagedb.TypeFree || e.Type == pagedb.TypeAddrspace || e.Owner != as {
			continue
		}
		if e.Type < 0 || e.Type > pagedb.TypeSpare {
			return nil, ErrEncode
		}
		owned = append(owned, pagedb.PageNr(i))
		count[e.Type]++
	}
	// logical returns pg's logical index, and whether pg is owned and of
	// type want.
	logical := func(pg pagedb.PageNr, want pagedb.PageType) (uint32, bool) {
		i, ok := slices.BinarySearch(owned, pg)
		return uint32(i), ok && d.Pages[pg].Type == want
	}

	l1idx := l1Absent
	if a.L1PTSet {
		i, ok := logical(a.L1PT, pagedb.TypeL1PT)
		if !ok {
			return nil, ErrEncode
		}
		l1idx = i
	}

	out := slices.Grow(dst, ImageWords(count[pagedb.TypeThread], count[pagedb.TypeL1PT],
		count[pagedb.TypeL2PT], count[pagedb.TypeData], count[pagedb.TypeSpare]))
	out = append(out, imageVersion, uint32(a.State), uint32(len(owned)), l1idx)
	out = append(out, a.Measured[:]...)
	h, buf, nbuf, length := a.Measurement.Marshal()
	out = append(out, h[:]...)
	out = append(out, uint32(nbuf), uint32(length), uint32(length>>32))
	for i := 0; i < sha2.BlockSize; i += 4 {
		out = append(out, binary.BigEndian.Uint32(buf[i:]))
	}

	for _, pg := range owned {
		e := d.Get(pg)
		switch e.Type {
		case pagedb.TypeThread:
			t := e.Thread
			out = append(out, imgThread, t.EntryPoint, boolWord(t.Entered))
			out = append(out, t.Ctx.R[:]...)
			out = append(out, t.Ctx.SP, t.Ctx.LR, t.Ctx.PC, t.Ctx.CPSR)
			out = append(out, t.Handler, boolWord(t.InHandler))
			out = append(out, t.VerifyData[:]...)
			out = append(out, t.VerifyMeasure[:]...)
		case pagedb.TypeL1PT:
			out = append(out, imgL1)
			for s := 0; s < mmu.L1Entries; s++ {
				if !e.L1.Present[s] {
					out = append(out, 0)
					continue
				}
				i, ok := logical(e.L1.L2[s], pagedb.TypeL2PT)
				if !ok {
					return nil, ErrEncode
				}
				out = append(out, i+1)
			}
		case pagedb.TypeL2PT:
			out = append(out, imgL2)
			for s := 0; s < mmu.L2Entries; s++ {
				le := e.L2.Entries[s]
				if !le.Valid {
					out = append(out, 0, 0)
					continue
				}
				flags := uint32(1) | boolWord(le.Secure)<<1 | boolWord(le.Write)<<2 | boolWord(le.Exec)<<3
				target := le.InsecureAddr
				if le.Secure {
					i, ok := logical(le.Page, pagedb.TypeData)
					if !ok {
						return nil, ErrEncode
					}
					target = i
				}
				out = append(out, flags, target)
			}
		case pagedb.TypeData:
			out = append(out, imgData)
			out = append(out, e.Data.Contents[:]...)
		case pagedb.TypeSpare:
			out = append(out, imgSpare)
		}
	}
	return out, nil
}

func boolWord(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// DecodeImage parses and structurally validates an image payload. It is
// strict: every reserved encoding, dangling logical reference, shared
// L2 table, or length mismatch fails. A decoded image instantiated onto
// free pages always satisfies pagedb.Validate.
func DecodeImage(payload []uint32) (*Image, error) {
	r := &wordReader{ws: payload}
	ver, ok1 := r.word()
	state, ok2 := r.word()
	n, ok3 := r.word()
	l1idx, ok4 := r.word()
	if !ok1 || !ok2 || !ok3 || !ok4 || ver != imageVersion {
		return nil, ErrImage
	}
	if state != uint32(pagedb.ASFinal) && state != uint32(pagedb.ASStopped) {
		return nil, ErrImage
	}
	if n > 4096 {
		return nil, ErrImage
	}
	if l1idx != l1Absent {
		if l1idx >= n {
			return nil, ErrImage
		}
	} else if state != uint32(pagedb.ASStopped) {
		return nil, ErrImage
	}

	img := &Image{State: pagedb.ASState(state), L1Index: -1}
	if l1idx != l1Absent {
		img.L1Index = int(l1idx)
	}
	if !r.words(img.Measured[:]) {
		return nil, ErrImage
	}
	var h [8]uint32
	if !r.words(h[:]) {
		return nil, ErrImage
	}
	nbuf, ok1 := r.word()
	lenL, ok2 := r.word()
	lenH, ok3 := r.word()
	var bufWords [16]uint32
	if !ok1 || !ok2 || !ok3 || !r.words(bufWords[:]) {
		return nil, ErrImage
	}
	length := uint64(lenL) | uint64(lenH)<<32
	if nbuf >= sha2.BlockSize || uint64(nbuf) != length%sha2.BlockSize {
		return nil, ErrImage
	}
	var buf [sha2.BlockSize]byte
	copy(buf[:], sha2.WordsToBytes(bufWords[:]))
	img.Hash.Unmarshal(h, buf, int(nbuf), length)

	img.Pages = make([]PageImage, n)
	for i := range img.Pages {
		if err := decodePage(r, &img.Pages[i], n); err != nil {
			return nil, err
		}
	}
	if r.off != len(payload) {
		return nil, ErrImage // trailing garbage
	}
	return img, checkStructure(img)
}

func decodePage(r *wordReader, p *PageImage, n uint32) error {
	typ, ok := r.word()
	if !ok {
		return ErrImage
	}
	switch typ {
	case imgThread:
		t := &pagedb.Thread{}
		var ws [threadWords]uint32
		if !r.words(ws[:]) {
			return ErrImage
		}
		t.EntryPoint = ws[0]
		if ws[1] > 1 || ws[20] > 1 {
			return ErrImage
		}
		t.Entered = ws[1] == 1
		copy(t.Ctx.R[:], ws[2:15])
		t.Ctx.SP, t.Ctx.LR, t.Ctx.PC, t.Ctx.CPSR = ws[15], ws[16], ws[17], ws[18]
		t.Handler = ws[19]
		if t.Handler >= 1<<30 {
			return ErrImage
		}
		t.InHandler = ws[20] == 1
		copy(t.VerifyData[:], ws[21:29])
		copy(t.VerifyMeasure[:], ws[29:37])
		p.Type, p.Thread = pagedb.TypeThread, t
	case imgL1:
		m := &L1Map{}
		var ws [l1Words]uint32
		if !r.words(ws[:]) {
			return ErrImage
		}
		for s, w := range ws {
			if w == 0 {
				continue
			}
			if w > n {
				return ErrImage
			}
			m.Present[s] = true
			m.Target[s] = int(w - 1)
		}
		p.Type, p.L1 = pagedb.TypeL1PT, m
	case imgL2:
		m := &L2Map{}
		var ws [l2Words]uint32
		if !r.words(ws[:]) {
			return ErrImage
		}
		for s := 0; s < mmu.L2Entries; s++ {
			flags, target := ws[s*2], ws[s*2+1]
			if flags == 0 {
				if target != 0 {
					return ErrImage
				}
				continue
			}
			if flags&1 == 0 || flags > 15 {
				return ErrImage
			}
			e := L2MapEntry{
				Valid:  true,
				Secure: flags&2 != 0,
				Write:  flags&4 != 0,
				Exec:   flags&8 != 0,
				Target: target,
			}
			if e.Secure {
				if target >= n {
					return ErrImage
				}
			} else if target%mem.PageSize != 0 {
				return ErrImage
			}
			m.Entries[s] = e
		}
		p.Type, p.L2 = pagedb.TypeL2PT, m
	case imgData:
		d := &pagedb.Data{}
		if !r.words(d.Contents[:]) {
			return ErrImage
		}
		p.Type, p.Data = pagedb.TypeData, d
	case imgSpare:
		p.Type = pagedb.TypeSpare
	default:
		return ErrImage
	}
	return nil
}

// checkStructure enforces the cross-page invariants pagedb.Validate
// demands of a live enclave: L1 at the claimed index and nowhere else,
// L1 slots targeting L2 pages, L2 secure entries targeting data pages,
// no L2 table shared between two L1 slots, and thread-vs-state
// consistency. The thread Entered / ASInit rule is vacuous here: images
// only carry Final or Stopped states.
func checkStructure(img *Image) error {
	for i, p := range img.Pages {
		if (p.Type == pagedb.TypeL1PT) != (i == img.L1Index) {
			return ErrImage
		}
	}
	l2Parents := make(map[int]int)
	for _, p := range img.Pages {
		switch p.Type {
		case pagedb.TypeL1PT:
			for s := 0; s < mmu.L1Entries; s++ {
				if !p.L1.Present[s] {
					continue
				}
				t := p.L1.Target[s]
				if img.Pages[t].Type != pagedb.TypeL2PT {
					return ErrImage
				}
				if l2Parents[t]++; l2Parents[t] > 1 {
					return ErrImage
				}
			}
		case pagedb.TypeL2PT:
			for s := 0; s < mmu.L2Entries; s++ {
				e := p.L2.Entries[s]
				if e.Valid && e.Secure && img.Pages[e.Target].Type != pagedb.TypeData {
					return ErrImage
				}
			}
		}
	}
	return nil
}

// CheckInsecure reports whether every insecure mapping in the image
// targets an acceptable physical page (the caller supplies the board's
// insecure-range predicate).
func (img *Image) CheckInsecure(ok func(pa uint32) bool) bool {
	for _, p := range img.Pages {
		if p.Type != pagedb.TypeL2PT {
			continue
		}
		for s := 0; s < mmu.L2Entries; s++ {
			e := p.L2.Entries[s]
			if e.Valid && !e.Secure && !ok(e.Target) {
				return false
			}
		}
	}
	return true
}

// Instantiate writes the image into d onto the given pages: pages[0]
// becomes the addrspace, pages[1+i] logical page i. The caller has
// already verified the pages are free and distinct; d is mutated in
// place (spec callers pass a clone).
func (img *Image) Instantiate(d *pagedb.DB, pages []pagedb.PageNr) {
	as := pages[0]
	a := &pagedb.Addrspace{
		State:    img.State,
		RefCount: len(img.Pages),
		Measured: img.Measured,
	}
	a.Measurement = img.Hash
	if img.L1Index >= 0 {
		a.L1PT = pages[1+img.L1Index]
		a.L1PTSet = true
	}
	d.Pages[as] = pagedb.Entry{Type: pagedb.TypeAddrspace, Owner: as, AS: a}

	for i, p := range img.Pages {
		pg := pages[1+i]
		e := pagedb.Entry{Type: p.Type, Owner: as}
		switch p.Type {
		case pagedb.TypeThread:
			t := *p.Thread
			e.Thread = &t
		case pagedb.TypeL1PT:
			l1 := &pagedb.L1PT{}
			for s := 0; s < mmu.L1Entries; s++ {
				if p.L1.Present[s] {
					l1.Present[s] = true
					l1.L2[s] = pages[1+p.L1.Target[s]]
				}
			}
			e.L1 = l1
		case pagedb.TypeL2PT:
			l2 := &pagedb.L2PT{}
			for s := 0; s < mmu.L2Entries; s++ {
				me := p.L2.Entries[s]
				if !me.Valid {
					continue
				}
				le := pagedb.L2Entry{Valid: true, Secure: me.Secure, Write: me.Write, Exec: me.Exec}
				if me.Secure {
					le.Page = pages[1+me.Target]
				} else {
					le.InsecureAddr = me.Target
				}
				l2.Entries[s] = le
			}
			e.L2 = l2
		case pagedb.TypeData:
			dd := *p.Data
			e.Data = &dd
		}
		d.Pages[pg] = e
	}
}

type wordReader struct {
	ws  []uint32
	off int
}

func (r *wordReader) word() (uint32, bool) {
	if r.off >= len(r.ws) {
		return 0, false
	}
	w := r.ws[r.off]
	r.off++
	return w, true
}

func (r *wordReader) words(dst []uint32) bool {
	if r.off+len(dst) > len(r.ws) {
		return false
	}
	copy(dst, r.ws[r.off:r.off+len(dst)])
	r.off += len(dst)
	return true
}
