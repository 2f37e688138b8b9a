package monitor

// Sealed-storage SMCs (docs/SEALING.md): Checkpoint serialises a
// finalised or stopped enclave into a sealed blob written to insecure
// memory; Restore validates and re-instantiates such a blob onto
// OS-donated free pages. The sealing key is derived from the monitor's
// seal root and the enclave's measurement, so blobs migrate between
// boards exactly when both monitors share a boot secret — and never
// open under a different measurement.
//
// Validation order in each call mirrors the specification exactly
// (internal/spec/seal.go); that order is part of the spec.

import (
	"fmt"
	"slices"

	"repro/internal/cycles"
	"repro/internal/kapi"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/pagedb"
	"repro/internal/seal"
	"repro/internal/sha2"
)

// insecureWindowOK extends insecureOK over a window of whole pages
// covering `words` words starting at pa (which must be page-aligned).
func (k *Monitor) insecureWindowOK(pa, words uint32) bool {
	bytes := uint64(words) * 4
	if uint64(pa)+bytes > 1<<32 {
		return false
	}
	for off := uint64(0); off < bytes; off += mem.PageSize {
		if !k.insecureOK(pa + uint32(off)) {
			return false
		}
	}
	return true
}

// chargeSealCycles models the cost of one seal/unseal pass: key
// derivation plus the AEAD's HMAC invocations, linear in blob size.
func (k *Monitor) chargeSealCycles(blobWords int) {
	ksBlocks := uint64((blobWords + 7) / 8)
	k.m.Cyc.Charge(cycles.HMACFixed*4 +
		cycles.SHABlock*(sha2.HMACBlocks(blobWords*4)+ksBlocks))
}

func (k *Monitor) smcCheckpoint(asPg, destPA, maxWords uint32) (kapi.Err, uint32, error) {
	if e := k.checkAddrspace(asPg); e != kapi.ErrSuccess {
		return e, 0, nil
	}
	as := pagedb.PageNr(asPg)
	if st := k.asState(as); st != csFinal && st != csStopped {
		return kapi.ErrNotFinal, 0, nil
	}
	if maxWords == 0 || maxWords > seal.MaxPayloadWords {
		return kapi.ErrInvalidArg, 0, nil
	}
	if destPA%mem.PageSize != 0 || !k.insecureWindowOK(destPA, maxWords) {
		return kapi.ErrInsecureInvalid, 0, nil
	}

	blob, err := k.imageBlob(as)
	if err != nil {
		return 0, 0, err
	}
	if blob == nil {
		return kapi.ErrInvalidArg, 0, nil
	}
	blobLen := uint32(len(blob))
	if blobLen > maxWords {
		return kapi.ErrInvalidArg, 0, nil
	}

	// Draw the nonce only after every validation has passed, so the
	// spec's RNG replay consumes the draws at the same point.
	n0, n1 := k.m.RNG.Word(), k.m.RNG.Word()
	k.m.Cyc.Charge(cycles.RNGWord * 2)
	k.rngTrace = append(k.rngTrace, n0, n1)

	measured := k.asMeasured(as)
	key := seal.DeriveKey(k.sealRoot, measured)
	seal.SealInPlace(key, [2]uint32{n0, n1}, seal.KindCheckpoint, measured, blob)
	k.chargeSealCycles(len(blob))
	if err := k.m.Phys.WriteWords(destPA, blob, mem.Secure); err != nil {
		panic(fmt.Sprintf("monitor: checkpoint blob write: %v", err))
	}
	k.m.Cyc.Charge(cycles.WordWrite * uint64(len(blob)))
	return kapi.ErrSuccess, blobLen, nil
}

// ckptScratch is the checkpoint's reused storage: a PageDB that holds
// only the enclave being imaged, the payloads decoded into it, and the
// buffer the blob is encoded and sealed in.
type ckptScratch struct {
	db       *pagedb.DB
	payloads payloadStore
	blob     []uint32
}

// imageBlob images the enclave rooted at as into the reused blob buffer
// and returns the blob to seal in place: its payload words hold the
// image — the encoding the spec computes over its abstract PageDB — with
// room for the header before them and the tag after. A nil blob means
// the enclave cannot be imaged (seal.ErrEncode).
func (k *Monitor) imageBlob(as pagedb.PageNr) ([]uint32, error) {
	d, err := k.decodeEnclave(as)
	if err != nil {
		return nil, err
	}
	c := &k.ckpt
	if cap(c.blob) < seal.HeaderWords {
		c.blob = make([]uint32, seal.HeaderWords)
	}
	img, err := seal.EncodeEnclave(c.blob[:seal.HeaderWords], d, as)
	if err != nil {
		return nil, nil
	}
	c.blob = slices.Grow(img, seal.TagWords)[:len(img)+seal.TagWords]
	return c.blob, nil
}

// decodeEnclave decodes address space as and the pages it owns into the
// checkpoint's reused PageDB, leaving every other entry free. It reads
// the type and owner words of every page, as DecodePageDB does, but the
// payload of the imaged enclave's pages only.
func (k *Monitor) decodeEnclave(as pagedb.PageNr) (*pagedb.DB, error) {
	c := &k.ckpt
	if c.db == nil {
		c.db = pagedb.New(k.npages)
	}
	c.payloads.rewind()
	for i := range c.db.Pages {
		n := pagedb.PageNr(i)
		e := k.entryHead(n)
		if e.Type == pagedb.TypeFree || e.Owner != as {
			c.db.Pages[i] = pagedb.Entry{}
			continue
		}
		if err := k.decodePayload(n, &e, &c.payloads); err != nil {
			return nil, err
		}
		c.db.Pages[i] = e
	}
	return c.db, nil
}

func (k *Monitor) smcRestore(srcPA, srcWords, listPA, nPages uint32) (kapi.Err, uint32, error) {
	if srcWords == 0 || srcWords > seal.MaxPayloadWords+seal.OverheadWords {
		return kapi.ErrInvalidArg, 0, nil
	}
	if srcPA%mem.PageSize != 0 || !k.insecureWindowOK(srcPA, srcWords) {
		return kapi.ErrInsecureInvalid, 0, nil
	}
	if nPages == 0 || nPages > mem.PageWords {
		return kapi.ErrInvalidArg, 0, nil
	}
	if listPA%mem.PageSize != 0 || !k.insecureWindowOK(listPA, nPages) {
		return kapi.ErrInsecureInvalid, 0, nil
	}

	blob := make([]uint32, srcWords)
	if err := k.m.Phys.ReadWords(srcPA, blob, mem.Secure); err != nil {
		panic(fmt.Sprintf("monitor: restore blob read: %v", err))
	}
	k.m.Cyc.Charge(cycles.WordRead * uint64(srcWords))
	k.chargeSealCycles(len(blob))
	hdr, payload, err := seal.Open(k.sealRoot, blob)
	if err != nil || hdr.Kind != seal.KindCheckpoint {
		return kapi.ErrSealInvalid, 0, nil
	}
	img, err := seal.DecodeImage(payload)
	if err != nil || img.Measured != hdr.Measurement {
		return kapi.ErrSealInvalid, 0, nil
	}
	if nPages != uint32(1+len(img.Pages)) {
		return kapi.ErrInvalidArg, 0, nil
	}

	pages := make([]pagedb.PageNr, nPages)
	for i := range pages {
		w, err := k.m.Phys.Read(listPA+uint32(i*4), mem.Secure)
		if err != nil {
			panic(fmt.Sprintf("monitor: restore page list read: %v", err))
		}
		k.m.Cyc.Charge(cycles.WordRead)
		if !k.validPage(w) {
			return kapi.ErrInvalidPageNo, 0, nil
		}
		if k.pdType(pagedb.PageNr(w)) != ctFree {
			return kapi.ErrPageInUse, 0, nil
		}
		for j := 0; j < i; j++ {
			if uint32(pages[j]) == w {
				return kapi.ErrInvalidArg, 0, nil
			}
		}
		pages[i] = pagedb.PageNr(w)
	}
	if !img.CheckInsecure(k.insecureOK) {
		return kapi.ErrInsecureInvalid, 0, nil
	}

	k.instantiateImage(img, pages)
	return kapi.ErrSuccess, uint32(pages[0]), nil
}

// instantiateImage writes a validated image into secure memory on the
// donated pages: pages[0] is the addrspace, pages[1+i] logical page i.
func (k *Monitor) instantiateImage(img *seal.Image, pages []pagedb.PageNr) {
	as := pages[0]
	k.zeroPage(as)
	base := k.physPage(as)
	cs := uint32(csFinal)
	if img.State == pagedb.ASStopped {
		cs = csStopped
	}
	k.wr(base+asOffState, cs)
	if img.L1Index >= 0 {
		k.wr(base+asOffL1PT, uint32(pages[1+img.L1Index]))
		k.wr(base+asOffL1PTSet, 1)
	}
	k.wr(base+asOffRefCount, uint32(len(img.Pages)))
	for i, w := range img.Measured {
		k.wr(base+asOffMeasured+uint32(i*4), w)
	}
	h := img.Hash
	k.storeMeasurement(as, &h)
	k.pdSet(as, ctAddrspace, as)

	for i := range img.Pages {
		pg := pages[1+i]
		p := &img.Pages[i]
		switch p.Type {
		case pagedb.TypeThread:
			k.zeroPage(pg)
			b := k.physPage(pg)
			t := p.Thread
			k.wr(b+thOffEntry, t.EntryPoint)
			k.wr(b+thOffEntered, boolWord(t.Entered))
			for j := 0; j < 13; j++ {
				k.wr(b+thOffR0+uint32(j*4), t.Ctx.R[j])
			}
			k.wr(b+thOffSP, t.Ctx.SP)
			k.wr(b+thOffLR, t.Ctx.LR)
			k.wr(b+thOffPC, t.Ctx.PC)
			k.wr(b+thOffCPSR, t.Ctx.CPSR)
			k.wr(b+thOffHandler, t.Handler)
			k.wr(b+thOffInHandler, boolWord(t.InHandler))
			for j := 0; j < 8; j++ {
				k.wr(b+thOffVerData+uint32(j*4), t.VerifyData[j])
				k.wr(b+thOffVerMeas+uint32(j*4), t.VerifyMeasure[j])
			}
			k.pdSet(pg, ctThread, as)
		case pagedb.TypeL1PT:
			k.zeroPage(pg)
			b := k.physPage(pg)
			for s := 0; s < mmu.L1Entries; s++ {
				if p.L1.Present[s] {
					k.wr(b+uint32(s*4), k.physPage(pages[1+p.L1.Target[s]])|mmu.PteValid)
				}
			}
			k.m.NotePTStore()
			k.pdSet(pg, ctL1PT, as)
		case pagedb.TypeL2PT:
			k.zeroPage(pg)
			b := k.physPage(pg)
			for s := 0; s < mmu.L2Entries; s++ {
				e := p.L2.Entries[s]
				if !e.Valid {
					continue
				}
				m := kapi.NewMapping(0, e.Write, e.Exec)
				var pte uint32
				if e.Secure {
					pte = k.pteFor(k.physPage(pages[1+e.Target]), m, false)
				} else {
					pte = k.pteFor(e.Target, m, true)
				}
				k.wr(b+uint32(s*4), pte)
			}
			k.m.NotePTStore()
			k.pdSet(pg, ctL2PT, as)
		case pagedb.TypeData:
			if err := k.m.Phys.WritePage(k.physPage(pg), &p.Data.Contents, mem.Secure); err != nil {
				panic(fmt.Sprintf("monitor: restore data page: %v", err))
			}
			k.m.Cyc.Charge(cycles.PageCopy)
			k.tel.ObservePageMove(kapi.MoveToSecure, uint32(pg))
			k.pdSet(pg, ctData, as)
		case pagedb.TypeSpare:
			k.zeroPage(pg)
			k.pdSet(pg, ctSpare, as)
		}
	}
}

func boolWord(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
