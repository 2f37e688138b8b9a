// Package monitor is the concrete Komodo monitor: the implementation the
// paper writes in verified ARM assembly (§7), here as Go code operating on
// the concrete machine state of the simulated platform. Unlike the
// functional specification (internal/spec), which computes over the
// abstract PageDB, the monitor:
//
//   - keeps the PageDB as words in secure RAM (a global type/owner table
//     plus per-page payloads stored inside the pages themselves, as the
//     prototype does);
//   - writes real hardware-format page tables that the simulated MMU
//     walks, and keeps TLB consistency by flushing before enclave entry
//     and after SVCs that edit live tables;
//   - saves and restores register state through the machine's banked
//     register file, and enters enclaves with the architectural
//     MOVS PC, LR sequence (§7.2);
//   - charges the cycle costs of Table 3's operations.
//
// The refinement harness decodes the monitor's secure memory back into an
// abstract PageDB after every SMC and compares against the specification —
// the runtime analogue of the paper's proof that the implementation
// satisfies the spec.
package monitor

import (
	"repro/internal/mem"
	"repro/internal/pagedb"
)

// Secure-region layout. The bootloader reserves the first pages of secure
// RAM for the monitor itself (Figure 4: monitor data lives in the secure
// region alongside enclave pages):
//
//	secure page 0: PageDB global table — 2 words per enclave page
//	               (type, owner), 256 entries max.
//	secure page 1: monitor globals — attestation key, page count.
//	secure page 2..: enclave pages, numbered from PageNr 0.
const (
	// ReservedPages is the number of secure pages the monitor keeps for
	// itself; they are invisible to the PageDB.
	ReservedPages = 2

	pdbPage     = 0 // secure page index of the PageDB table
	globalsPage = 1 // secure page index of the globals page

	// PageDB table entry: 2 words per page.
	pdbEntryWords = 2
	pdbOffType    = 0
	pdbOffOwner   = 4

	// Globals page offsets (bytes).
	gOffNPages    = 0
	gOffAttestKey = 32 // 8 words
	gOffSealRoot  = 64 // 8 words: sealing root (docs/SEALING.md)

	// Concrete page-type encodings stored in the PageDB table.
	ctFree      = 0
	ctAddrspace = 1
	ctThread    = 2
	ctL1PT      = 3
	ctL2PT      = 4
	ctData      = 5
	ctSpare     = 6
)

// Addrspace page payload offsets (bytes within the addrspace page).
const (
	asOffState    = 0
	asOffL1PT     = 4
	asOffL1PTSet  = 8
	asOffRefCount = 12
	asOffMeasured = 32  // 8 words: final measurement
	asOffHashH    = 64  // 8 words: running SHA-256 chaining state
	asOffHashNbuf = 96  // buffered byte count
	asOffHashLenL = 100 // low word of byte length
	asOffHashLenH = 104 // high word of byte length
	asOffHashBuf  = 128 // 64-byte partial block buffer (16 words)
)

// Thread page payload offsets (bytes within the thread page).
const (
	thOffEntry     = 0
	thOffEntered   = 4
	thOffR0        = 8   // R0..R12: 13 words
	thOffSP        = 60  // user-banked SP
	thOffLR        = 64  // user-banked LR
	thOffPC        = 68  // saved PC
	thOffCPSR      = 72  // saved flags (PSR word encoding)
	thOffHandler   = 76  // registered fault-upcall address (§9.2 extension)
	thOffInHandler = 80  // executing the fault handler
	thOffVerData   = 96  // 8 words: staged attestation data
	thOffVerMeas   = 128 // 8 words: staged measurement
)

// Concrete addrspace state encodings.
const (
	csInit    = 0
	csFinal   = 1
	csStopped = 2
)

func abstractType(ct uint32) pagedb.PageType {
	switch ct {
	case ctAddrspace:
		return pagedb.TypeAddrspace
	case ctThread:
		return pagedb.TypeThread
	case ctL1PT:
		return pagedb.TypeL1PT
	case ctL2PT:
		return pagedb.TypeL2PT
	case ctData:
		return pagedb.TypeData
	case ctSpare:
		return pagedb.TypeSpare
	default:
		return pagedb.TypeFree
	}
}

// physPage returns the physical base address of PageNr n (enclave pages
// start after the reserved monitor pages).
func (k *Monitor) physPage(n pagedb.PageNr) uint32 {
	return k.m.Phys.SecurePageBase(int(n) + ReservedPages)
}

// pageNrOf maps a secure physical page base back to a PageNr, or -1.
func (k *Monitor) pageNrOf(base uint32) int {
	idx := k.m.Phys.SecurePageIndex(base)
	if idx < ReservedPages {
		return -1
	}
	n := idx - ReservedPages
	if n >= k.npages {
		return -1
	}
	return n
}

// pdbAddr returns the address of the PageDB table slot for page n.
func (k *Monitor) pdbAddr(n pagedb.PageNr) uint32 {
	return k.m.Phys.SecurePageBase(pdbPage) + uint32(n)*pdbEntryWords*mem.WordSize
}

func (k *Monitor) globalsAddr(off uint32) uint32 {
	return k.m.Phys.SecurePageBase(globalsPage) + off
}
