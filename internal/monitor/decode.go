package monitor

import (
	"fmt"

	"repro/internal/arm"
	"repro/internal/kapi"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/pagedb"
)

// DecodePageDB reconstructs the abstract PageDB from the monitor's
// concrete secure-memory representation. This is the refinement relation's
// abstraction function: "The implementation is free to choose its own
// in-memory representation of the PageDB, as long as it can prove that...
// the contents of registers and virtual memory match the abstract PageDB"
// (§5.2). The harness compares its output against the specification's
// predicted PageDB after every SMC.
func (k *Monitor) DecodePageDB() (*pagedb.DB, error) {
	d := pagedb.New(k.npages)
	var fresh payloadStore
	for i := range d.Pages {
		n := pagedb.PageNr(i)
		d.Pages[i] = k.entryHead(n)
		if err := k.decodePayload(n, &d.Pages[i], &fresh); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// entryHead reads page n's PageDB type and owner words.
func (k *Monitor) entryHead(n pagedb.PageNr) pagedb.Entry {
	return pagedb.Entry{
		Type:  abstractType(k.rd(k.pdbAddr(n) + pdbOffType)),
		Owner: pagedb.PageNr(k.rd(k.pdbAddr(n) + pdbOffOwner)),
	}
}

// decodePayload decodes the payload of page n, whose head e already
// holds, into storage taken from ps. Every field of the payload is
// written, so reused storage carries nothing over.
func (k *Monitor) decodePayload(n pagedb.PageNr, e *pagedb.Entry, ps *payloadStore) error {
	switch e.Type {
	case pagedb.TypeAddrspace:
		e.AS = ps.ases.next()
		return k.decodeAddrspace(n, e.AS)
	case pagedb.TypeThread:
		e.Thread = ps.threads.next()
		k.decodeThread(n, e.Thread)
	case pagedb.TypeL1PT:
		e.L1 = ps.l1s.next()
		return k.decodeL1(n, e.L1)
	case pagedb.TypeL2PT:
		e.L2 = ps.l2s.next()
		return k.decodeL2(n, e.L2)
	case pagedb.TypeData:
		e.Data = ps.data.next()
		if err := k.m.Phys.ReadWords(k.physPage(n), e.Data.Contents[:], mem.Secure); err != nil {
			return fmt.Errorf("monitor: decode data page %d: %w", n, err)
		}
	}
	return nil
}

// payloadStore hands out storage for decoded PageDB payloads. A zero
// store allocates each payload afresh; a store that is rewound and used
// again hands the same storage out in the same order, so decoding the
// same enclave shape again allocates nothing.
type payloadStore struct {
	ases    reuse[pagedb.Addrspace]
	threads reuse[pagedb.Thread]
	l1s     reuse[pagedb.L1PT]
	l2s     reuse[pagedb.L2PT]
	data    reuse[pagedb.Data]
}

func (ps *payloadStore) rewind() {
	ps.ases.used, ps.threads.used, ps.l1s.used, ps.l2s.used, ps.data.used = 0, 0, 0, 0, 0
}

// reuse is a list of values handed out in order and kept for the next
// round.
type reuse[T any] struct {
	items []*T
	used  int
}

func (r *reuse[T]) next() *T {
	if r.used == len(r.items) {
		r.items = append(r.items, new(T))
	}
	r.used++
	return r.items[r.used-1]
}

func (k *Monitor) decodeAddrspace(n pagedb.PageNr, as *pagedb.Addrspace) error {
	base := k.physPage(n)
	var st pagedb.ASState
	switch k.rd(base + asOffState) {
	case csInit:
		st = pagedb.ASInit
	case csFinal:
		st = pagedb.ASFinal
	case csStopped:
		st = pagedb.ASStopped
	default:
		return fmt.Errorf("monitor: addrspace %d has undefined state %d", n, k.rd(base+asOffState))
	}
	*as = pagedb.Addrspace{
		State:    st,
		L1PT:     pagedb.PageNr(k.rd(base + asOffL1PT)),
		L1PTSet:  k.rd(base+asOffL1PTSet) != 0,
		RefCount: int(int32(k.rd(base + asOffRefCount))),
	}
	k.loadMeasurement(n, &as.Measurement)
	for i := 0; i < 8; i++ {
		as.Measured[i] = k.rd(base + asOffMeasured + uint32(i*4))
	}
	return nil
}

func (k *Monitor) decodeThread(n pagedb.PageNr, th *pagedb.Thread) {
	base := k.physPage(n)
	*th = pagedb.Thread{
		EntryPoint: k.rd(base + thOffEntry),
		Entered:    k.rd(base+thOffEntered) != 0,
	}
	for i := 0; i < 13; i++ {
		th.Ctx.R[i] = k.rd(base + thOffR0 + uint32(i*4))
	}
	th.Ctx.SP = k.rd(base + thOffSP)
	th.Ctx.LR = k.rd(base + thOffLR)
	th.Ctx.PC = k.rd(base + thOffPC)
	th.Ctx.CPSR = k.rd(base + thOffCPSR)
	th.Handler = k.rd(base + thOffHandler)
	th.InHandler = k.rd(base+thOffInHandler) != 0
	for i := 0; i < 8; i++ {
		th.VerifyData[i] = k.rd(base + thOffVerData + uint32(i*4))
		th.VerifyMeasure[i] = k.rd(base + thOffVerMeas + uint32(i*4))
	}
}

func (k *Monitor) decodeL1(n pagedb.PageNr, l1 *pagedb.L1PT) error {
	base := k.physPage(n)
	*l1 = pagedb.L1PT{}
	for i := 0; i < mmu.L1Entries; i++ {
		e := k.rd(base + uint32(i*4))
		if e == 0 {
			continue
		}
		pg := k.pageNrOf(e &^ uint32(mem.PageSize-1))
		if pg < 0 {
			return fmt.Errorf("monitor: L1PT %d slot %d points outside enclave pages: %#x", n, i, e)
		}
		l1.Present[i] = true
		l1.L2[i] = pagedb.PageNr(pg)
	}
	return nil
}

func (k *Monitor) decodeL2(n pagedb.PageNr, l2 *pagedb.L2PT) error {
	base := k.physPage(n)
	*l2 = pagedb.L2PT{}
	for i := 0; i < mmu.L2Entries; i++ {
		w := k.rd(base + uint32(i*4))
		pa, perms, valid := mmu.DecodePTE(w)
		if !valid {
			continue
		}
		entry := pagedb.L2Entry{Valid: true, Write: perms.Write, Exec: perms.Exec}
		if perms.NS {
			entry.Secure = false
			entry.InsecureAddr = pa
		} else {
			pg := k.pageNrOf(pa)
			if pg < 0 {
				return fmt.Errorf("monitor: L2PT %d entry %d maps non-enclave secure page %#x", n, i, pa)
			}
			entry.Secure = true
			entry.Page = pagedb.PageNr(pg)
		}
		l2.Entries[i] = entry
	}
	return nil
}

// SMC is the OS-side entry point: it simulates the normal world executing
// an SMC instruction (exception into monitor mode) and runs the handler.
// The machine must be executing in the normal world. Returns the error
// code and result value from R0/R1 after the handler's exception return.
//
// (The OS model issues calls through here; OS code running on the
// simulated CPU reaches the same handler via the SMC instruction and the
// TrapSMC path — see the nwos driver tests.)
func (k *Monitor) SMC(call uint32, args ...uint32) (kapi.Err, uint32, error) {
	m := k.m
	if m.World() != mem.Normal {
		return 0, 0, fmt.Errorf("monitor: SMC issued from secure world")
	}
	if !m.CPSR().Mode.Privileged() {
		return 0, 0, fmt.Errorf("monitor: SMC issued from user mode")
	}
	if len(args) > 4 {
		return 0, 0, fmt.Errorf("monitor: SMC takes at most 4 arguments")
	}
	m.SetReg(arm.R0, call)
	for i := 0; i < 4; i++ {
		var v uint32
		if i < len(args) {
			v = args[i]
		}
		m.SetReg(arm.Reg(1+i), v)
	}
	m.TakeException(arm.TrapSMC, m.PC())
	if err := k.HandleSMC(); err != nil {
		return 0, 0, err
	}
	return kapi.Err(m.Reg(arm.R0)), m.Reg(arm.R1), nil
}
