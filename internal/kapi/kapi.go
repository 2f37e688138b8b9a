// Package kapi defines the Komodo monitor's ABI: secure monitor call (SMC)
// and supervisor call (SVC) numbers, error codes, the Mapping word
// encoding, and what the monitor reports of its own execution (trace.go).
// It corresponds to the API of the paper's Table 1, shared between the
// functional specification (internal/spec), the concrete monitor
// (internal/monitor), and clients.
//
// Calling convention (mirroring the prototype's register ABI):
//
//	SMC:  R0 = call number, R1–R4 = arguments.
//	      Returns R0 = error code, R1 = result value (e.g. page count or
//	      enclave exit value).
//	SVC:  R0 = call number, R1–R8 = arguments (Attest/Verify traffic whole
//	      hash blocks through R1–R8, like the prototype's multi-step
//	      verify ABI).
//	      Returns R0 = error code, R1–R8 = results.
package kapi

import "fmt"

// SMC call numbers (Table 1, top half: "Secure monitor calls (SMCs, from OS)").
const (
	SMCGetPhysPages  uint32 = 1
	SMCInitAddrspace uint32 = 2
	SMCInitThread    uint32 = 3
	SMCInitL2PTable  uint32 = 4
	SMCAllocSpare    uint32 = 5 // dynamic memory (SGXv2 profile)
	SMCMapSecure     uint32 = 6
	SMCMapInsecure   uint32 = 7
	SMCFinalise      uint32 = 8
	SMCEnter         uint32 = 9
	SMCResume        uint32 = 10
	SMCStop          uint32 = 11
	SMCRemove        uint32 = 12

	// Sealed storage (docs/SEALING.md). Checkpoint serialises a finalised
	// or stopped enclave into a sealed blob in insecure memory; Restore
	// rebuilds the enclave from such a blob onto OS-donated free pages.
	// Both are keyed by a sealing key derived from the monitor's boot
	// secret and the enclave's measurement, so a blob only opens on a
	// board with the same boot secret, for the same enclave identity.
	SMCCheckpoint uint32 = 13
	SMCRestore    uint32 = 14
)

// SVC call numbers (Table 1, bottom half: "Supervisor calls (SVCs, from
// enclave)"). Verify is split into three steps, as in the prototype, so
// that all operands fit in registers: step 0 stages the attested data,
// step 1 stages the claimed measurement, and step 2 supplies the MAC and
// returns the verdict.
const (
	SVCExit         uint32 = 1
	SVCGetRandom    uint32 = 2
	SVCAttest       uint32 = 3
	SVCVerifyStep0  uint32 = 4
	SVCVerifyStep1  uint32 = 5
	SVCVerifyStep2  uint32 = 6
	SVCInitL2PTable uint32 = 7 // dynamic memory (SGXv2 profile)
	SVCMapData      uint32 = 8
	SVCUnmapData    uint32 = 9

	// The dispatcher interface — the paper's §9.2 future work, implemented
	// here as an extension: "a LibOS-style dispatcher interface with
	// explicit user-mode upcalls to resume a thread or report an
	// exception. This will permit the use of enclave self-paging...
	// without exposing page faults to the untrusted OS."
	//
	// SetFaultHandler registers an in-enclave upcall address; subsequent
	// enclave exceptions are delivered there (R0 = exception type, R1 =
	// faulting address) instead of terminating execution. FaultReturn
	// resumes the interrupted context. The OS observes nothing.
	SVCSetFaultHandler uint32 = 10
	SVCFaultReturn     uint32 = 11

	// GetSealKey returns the calling enclave's measurement-bound sealing
	// key in R1–R8 (the SGX EGETKEY analogue): HMAC of the monitor's seal
	// root keyed by the enclave's measurement. Deterministic — two
	// enclaves with the same measurement on the same board derive the
	// same key; any other enclave or board derives a different one.
	SVCGetSealKey uint32 = 12
)

var smcNames = map[uint32]string{
	SMCGetPhysPages:  "KOM_SMC_GET_PHYSPAGES",
	SMCInitAddrspace: "KOM_SMC_INIT_ADDRSPACE",
	SMCInitThread:    "KOM_SMC_INIT_THREAD",
	SMCInitL2PTable:  "KOM_SMC_INIT_L2PTABLE",
	SMCAllocSpare:    "KOM_SMC_ALLOC_SPARE",
	SMCMapSecure:     "KOM_SMC_MAP_SECURE",
	SMCMapInsecure:   "KOM_SMC_MAP_INSECURE",
	SMCFinalise:      "KOM_SMC_FINALISE",
	SMCEnter:         "KOM_SMC_ENTER",
	SMCResume:        "KOM_SMC_RESUME",
	SMCStop:          "KOM_SMC_STOP",
	SMCRemove:        "KOM_SMC_REMOVE",
	SMCCheckpoint:    "KOM_SMC_CHECKPOINT",
	SMCRestore:       "KOM_SMC_RESTORE",
}

var svcNames = map[uint32]string{
	SVCExit:            "KOM_SVC_EXIT",
	SVCGetRandom:       "KOM_SVC_GET_RANDOM",
	SVCAttest:          "KOM_SVC_ATTEST",
	SVCVerifyStep0:     "KOM_SVC_VERIFY_STEP0",
	SVCVerifyStep1:     "KOM_SVC_VERIFY_STEP1",
	SVCVerifyStep2:     "KOM_SVC_VERIFY_STEP2",
	SVCInitL2PTable:    "KOM_SVC_INIT_L2PTABLE",
	SVCMapData:         "KOM_SVC_MAP_DATA",
	SVCUnmapData:       "KOM_SVC_UNMAP_DATA",
	SVCSetFaultHandler: "KOM_SVC_SET_FAULT_HANDLER",
	SVCFaultReturn:     "KOM_SVC_FAULT_RETURN",
	SVCGetSealKey:      "KOM_SVC_GET_SEAL_KEY",
}

// SMCName returns the KOM_* name of an SMC call number ("" if unknown).
// Telemetry series and the komodo-stats summariser key on these names.
func SMCName(call uint32) string { return smcNames[call] }

// SVCName returns the KOM_SVC_* name of an SVC call number ("" if unknown).
func SVCName(call uint32) string { return svcNames[call] }

// Err is a Komodo monitor error code, returned in R0.
type Err uint32

// Error codes. Success is zero; everything else identifies the precise
// validation failure so the OS can correct its request (the monitor does no
// allocations of its own — "the OS must choose pages it knows to be free,
// or API calls fail", §4).
const (
	ErrSuccess          Err = 0
	ErrInvalidPageNo    Err = 1  // page number out of range
	ErrPageInUse        Err = 2  // page is already allocated
	ErrInvalidAddrspace Err = 3  // page is not (or not a valid) address space
	ErrAlreadyFinal     Err = 4  // operation requires a non-final enclave
	ErrNotFinal         Err = 5  // operation requires a finalised enclave
	ErrNotStopped       Err = 6  // deallocation requires a stopped enclave
	ErrInterrupted      Err = 7  // enclave execution was interrupted
	ErrNotEntered       Err = 8  // Resume of a thread that is not suspended
	ErrAddrInUse        Err = 9  // virtual address already mapped
	ErrNotThread        Err = 10 // page is not a thread
	ErrInvalidMapping   Err = 11 // bad mapping word or missing L2 table
	ErrInsecureInvalid  Err = 12 // insecure address out of range or aliases protected memory
	ErrAlreadyEntered   Err = 13 // Enter of a suspended thread
	ErrFault            Err = 14 // enclave faulted (the only detail released, §4)
	ErrInvalidArg       Err = 15 // other argument validation failure (e.g. aliased pages)
	ErrNotSpare         Err = 16 // page is not a spare page
	ErrNotStoppable     Err = 17 // page's enclave is not stopped and page is not spare
	ErrSealInvalid      Err = 18 // sealed blob failed authentication or decoding
)

var errNames = map[Err]string{
	ErrSuccess:          "KOM_ERR_SUCCESS",
	ErrInvalidPageNo:    "KOM_ERR_INVALID_PAGENO",
	ErrPageInUse:        "KOM_ERR_PAGEINUSE",
	ErrInvalidAddrspace: "KOM_ERR_INVALID_ADDRSPACE",
	ErrAlreadyFinal:     "KOM_ERR_ALREADY_FINAL",
	ErrNotFinal:         "KOM_ERR_NOT_FINAL",
	ErrNotStopped:       "KOM_ERR_NOT_STOPPED",
	ErrInterrupted:      "KOM_ERR_INTERRUPTED",
	ErrNotEntered:       "KOM_ERR_NOT_ENTERED",
	ErrAddrInUse:        "KOM_ERR_ADDRINUSE",
	ErrNotThread:        "KOM_ERR_NOT_THREAD",
	ErrInvalidMapping:   "KOM_ERR_INVALID_MAPPING",
	ErrInsecureInvalid:  "KOM_ERR_INSECURE_INVALID",
	ErrAlreadyEntered:   "KOM_ERR_ALREADY_ENTERED",
	ErrFault:            "KOM_ERR_FAULT",
	ErrInvalidArg:       "KOM_ERR_INVALID_ARG",
	ErrNotSpare:         "KOM_ERR_NOT_SPARE",
	ErrNotStoppable:     "KOM_ERR_NOT_STOPPABLE",
	ErrSealInvalid:      "KOM_ERR_SEAL_INVALID",
}

func (e Err) String() string {
	if s, ok := errNames[e]; ok {
		return s
	}
	return fmt.Sprintf("KOM_ERR(%d)", uint32(e))
}

// Error makes Err usable as a Go error when surfaced through the facade.
func (e Err) Error() string { return e.String() }

// Mapping is the packed (virtual address, permissions) argument of the
// mapping calls (Table 1: "mapped at address and perms in va"). Encoding:
// bits [31:12] are the virtual page base; bit 0 = writable, bit 1 =
// executable; read permission is implied. The virtual page must lie in the
// enclave's 1 GB address space.
type Mapping uint32

// MappingBits.
const (
	MapWrite Mapping = 1 << 0
	MapExec  Mapping = 1 << 1

	mapPermMask = MapWrite | MapExec
)

// NewMapping packs a page-aligned virtual address and permissions.
func NewMapping(va uint32, write, exec bool) Mapping {
	m := Mapping(va &^ 0xfff)
	if write {
		m |= MapWrite
	}
	if exec {
		m |= MapExec
	}
	return m
}

// VA returns the virtual page base address.
func (m Mapping) VA() uint32 { return uint32(m) &^ 0xfff }

// Write and Exec report the requested permissions.
func (m Mapping) Write() bool { return m&MapWrite != 0 }
func (m Mapping) Exec() bool  { return m&MapExec != 0 }

// Valid reports whether the mapping names a page-aligned address within
// the 1 GB enclave address space and uses only defined permission bits.
func (m Mapping) Valid() bool {
	if uint32(m)&0xfff&^uint32(mapPermMask) != 0 {
		return false
	}
	return m.VA() < 1<<30
}

func (m Mapping) String() string {
	perms := "r"
	if m.Write() {
		perms += "w"
	}
	if m.Exec() {
		perms += "x"
	}
	return fmt.Sprintf("va=%#x perms=%s", m.VA(), perms)
}

// BatchSigTag is the domain-separation tag for batched notary signatures
// (docs/BATCHING.md). The batch-notary guest signs
//
//	digest = SHA-256(BatchSigTag ‖ root[0..7] ‖ counter)
//
// over a Merkle root instead of a raw document, and the tag guarantees a
// batch digest can never collide with a single-document notary digest
// (which starts with document words, never this constant) nor with a
// quote (different measurement binds the attestation anyway). ASCII
// "KBAT". Offline verifiers (cmd/komodo-verify, internal/batch) must use
// the same constant.
const BatchSigTag uint32 = 0x4b424154

// ExitTypes returned in R1 alongside ErrInterrupted/ErrFault: the *only*
// information about enclave execution released to the OS (§6.2
// declassification: "the type of exception or interrupt that ends enclave
// execution").
const (
	ExitNormal    uint32 = 0 // SVC Exit: R1 carries the enclave's value instead
	ExitIRQ       uint32 = 1
	ExitFIQ       uint32 = 2
	ExitDataAbort uint32 = 3
	ExitPrefAbort uint32 = 4
	ExitUndef     uint32 = 5
)
