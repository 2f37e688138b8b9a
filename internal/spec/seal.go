package spec

// Functional specification of the sealed-storage calls (docs/SEALING.md):
// SMCCheckpoint, SMCRestore and SVCGetSealKey. The crypto and the image
// codec are shared with the concrete monitor (internal/seal), so the spec
// predicts not only the error code and PageDB but the exact blob words
// the monitor writes — the refinement harness compares both.

import (
	"repro/internal/kapi"
	"repro/internal/mem"
	"repro/internal/pagedb"
	"repro/internal/seal"
	"repro/internal/sha2"
)

// SealRoot is the specification's sealing root: derived from the boot
// secret exactly as the monitor derives it at install.
func (p Params) SealRoot() [32]byte { return seal.DeriveRoot(p.AttestKey) }

// insecureWindowOK extends InsecureOK over a window of whole pages
// covering words words starting at pa.
func insecureWindowOK(p Params, pa, words uint32) bool {
	bytes := uint64(words) * 4
	if uint64(pa)+bytes > 1<<32 {
		return false
	}
	for off := uint64(0); off < bytes; off += mem.PageSize {
		if !p.InsecureOK(pa + uint32(off)) {
			return false
		}
	}
	return true
}

// Checkpoint specifies SMCCheckpoint(asPg, destPA, maxWords): seal the
// enclave rooted at asPg into a blob of at most maxWords words written
// at insecure address destPA. The PageDB is unchanged; the result value
// is the blob length in words. The returned blob is what the monitor
// must have written to insecure memory (nil on error).
//
// The nonce is drawn from p.Rand only after every validation has
// passed, matching the monitor's draw point so refinement replay stays
// aligned.
func Checkpoint(p Params, d *pagedb.DB, asPg pagedb.PageNr, destPA, maxWords uint32) (*pagedb.DB, uint32, []uint32, kapi.Err) {
	as, e := checkedAddrspace(d, asPg)
	if e != kapi.ErrSuccess {
		return d, 0, nil, e
	}
	if as.State != pagedb.ASFinal && as.State != pagedb.ASStopped {
		return d, 0, nil, kapi.ErrNotFinal
	}
	if maxWords == 0 || maxWords > seal.MaxPayloadWords {
		return d, 0, nil, kapi.ErrInvalidArg
	}
	if destPA%mem.PageSize != 0 || !insecureWindowOK(p, destPA, maxWords) {
		return d, 0, nil, kapi.ErrInsecureInvalid
	}
	payload, err := seal.EncodeEnclave(nil, d, asPg)
	if err != nil {
		return d, 0, nil, kapi.ErrInvalidArg
	}
	blobLen := uint32(len(payload)) + seal.OverheadWords
	if blobLen > maxWords {
		return d, 0, nil, kapi.ErrInvalidArg
	}
	nonce := [2]uint32{p.Rand(), p.Rand()}
	key := seal.DeriveKey(p.SealRoot(), as.Measured)
	blob := seal.Seal(key, nonce, seal.KindCheckpoint, as.Measured, payload)
	return d, blobLen, blob, kapi.ErrSuccess
}

// Restore specifies SMCRestore(srcPA, srcWords, listPA, nPages): open
// the sealed blob read from insecure memory and instantiate the enclave
// it carries onto the OS-donated free pages named in the page list. The
// result value is the new addrspace page number. blob and pageList are
// the insecure-memory snapshots the harness took before the call (the
// spec is pure and cannot read memory itself).
func Restore(p Params, d *pagedb.DB, srcPA, srcWords, listPA, nPages uint32, blob, pageList []uint32) (*pagedb.DB, uint32, kapi.Err) {
	if srcWords == 0 || srcWords > seal.MaxPayloadWords+seal.OverheadWords {
		return d, 0, kapi.ErrInvalidArg
	}
	if srcPA%mem.PageSize != 0 || !insecureWindowOK(p, srcPA, srcWords) {
		return d, 0, kapi.ErrInsecureInvalid
	}
	if nPages == 0 || nPages > mem.PageWords {
		return d, 0, kapi.ErrInvalidArg
	}
	if listPA%mem.PageSize != 0 || !insecureWindowOK(p, listPA, nPages) {
		return d, 0, kapi.ErrInsecureInvalid
	}
	if uint32(len(blob)) != srcWords || uint32(len(pageList)) != nPages {
		// The harness always snapshots exactly the validated windows;
		// anything else is a malformed request.
		return d, 0, kapi.ErrSealInvalid
	}
	hdr, payload, err := seal.Open(p.SealRoot(), blob)
	if err != nil || hdr.Kind != seal.KindCheckpoint {
		return d, 0, kapi.ErrSealInvalid
	}
	img, err := seal.DecodeImage(payload)
	if err != nil || img.Measured != hdr.Measurement {
		return d, 0, kapi.ErrSealInvalid
	}
	if nPages != uint32(1+len(img.Pages)) {
		return d, 0, kapi.ErrInvalidArg
	}
	pages := make([]pagedb.PageNr, nPages)
	for i, w := range pageList {
		if e := checkedFreePage(d, pagedb.PageNr(w)); e != kapi.ErrSuccess {
			return d, 0, e
		}
		for j := 0; j < i; j++ {
			if uint32(pages[j]) == w {
				return d, 0, kapi.ErrInvalidArg
			}
		}
		pages[i] = pagedb.PageNr(w)
	}
	if !img.CheckInsecure(p.InsecureOK) {
		return d, 0, kapi.ErrInsecureInvalid
	}
	nd := d.Clone()
	img.Instantiate(nd, pages)
	return nd, uint32(pages[0]), kapi.ErrSuccess
}

// SvcGetSealKey specifies the EGETKEY-analogue SVC: the calling
// enclave's measurement-bound sealing key, as 8 words in R1–R8. Pure
// and deterministic — replay through CheckEnter needs no nondeterminism.
func SvcGetSealKey(p Params, d *pagedb.DB, thread pagedb.PageNr) (*pagedb.DB, [8]uint32, kapi.Err) {
	as := d.Addrspace(d.Get(thread).Owner)
	key := seal.DeriveKey(p.SealRoot(), as.Measured)
	var vals [8]uint32
	copy(vals[:], sha2.BytesToWords(key[:]))
	return d, vals, kapi.ErrSuccess
}
