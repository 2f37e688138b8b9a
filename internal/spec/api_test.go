package spec

import (
	"testing"

	"repro/internal/kapi"
	"repro/internal/pagedb"
)

// Table 1 conformance: every call of the paper's API exists with the
// documented signature shape and the paper's core semantics. This test is
// the check DESIGN.md's experiment index points at for "Table 1".
func TestTable1SMCSurface(t *testing.T) {
	p := testParams()
	d := pagedb.New(p.NPages)

	// GetPhysPages() -> int npages
	if v, e := GetPhysPages(p, d); e != kapi.ErrSuccess || v == 0 {
		t.Error("GetPhysPages missing or broken")
	}
	// InitAddrspace(asPg, l1ptPg)
	d2, e := InitAddrspace(p, d, 0, 1)
	if e != kapi.ErrSuccess {
		t.Fatal("InitAddrspace missing")
	}
	// InitL2PTable(asPg, l2ptPg, l1index)
	d3, e := InitL2PTable(p, d2, 0, 2, 0)
	if e != kapi.ErrSuccess {
		t.Fatal("InitL2PTable missing")
	}
	// MapSecure(asPg, dataPg, va, content)
	var c [1024]uint32
	d4, e := MapSecure(p, d3, 0, 3, kapi.NewMapping(0x1000, true, true), p.InsecureBase, &c)
	if e != kapi.ErrSuccess {
		t.Fatal("MapSecure missing")
	}
	// MapInsecure(asPg, va, target)
	d5, e := MapInsecure(p, d4, 0, kapi.NewMapping(0x2000, true, false), p.InsecureBase)
	if e != kapi.ErrSuccess {
		t.Fatal("MapInsecure missing")
	}
	// InitThread(asPg, threadPg, entry)
	d6, e := InitThread(p, d5, 0, 4, 0x1000)
	if e != kapi.ErrSuccess {
		t.Fatal("InitThread missing")
	}
	// AllocSpare(asPg, sparePg)
	d7, e := AllocSpare(p, d6, 0, 5)
	if e != kapi.ErrSuccess {
		t.Fatal("AllocSpare missing")
	}
	// Finalise(asPg)
	d8, e := Finalise(p, d7, 0)
	if e != kapi.ErrSuccess {
		t.Fatal("Finalise missing")
	}
	// Enter/Resume(thread, ...) — validated through their precondition
	// functions here (execution is a machine affair).
	if e := ValidateEnter(d8, 4); e != kapi.ErrSuccess {
		t.Fatal("Enter validation broken")
	}
	if e := ValidateResume(d8, 4); e != kapi.ErrNotEntered {
		t.Fatal("Resume validation broken")
	}
	// Stop(asPg)
	d9, e := Stop(p, d8, 0)
	if e != kapi.ErrSuccess {
		t.Fatal("Stop missing")
	}
	// Remove(pg)
	if _, e := Remove(p, d9, 5); e != kapi.ErrSuccess {
		t.Fatal("Remove missing")
	}
	if err := d9.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTable1SVCSurface(t *testing.T) {
	p := testParams()
	d := buildEnclave(t, p, true)
	const th = 4

	// GetRandom() -> u32
	if _, v, e := SvcGetRandom(p, d, th); e != kapi.ErrSuccess || v != 4 {
		t.Error("GetRandom broken")
	}
	// Attest(data[8]) -> mac[8]
	if _, mac, e := SvcAttest(p, d, th, [8]uint32{1}); e != kapi.ErrSuccess || mac == ([8]uint32{}) {
		t.Error("Attest broken")
	}
	// Verify(data, measure, mac) -> ok (three-step ABI)
	d1, e := SvcVerifyStep0(p, d, th, [8]uint32{1})
	if e != kapi.ErrSuccess {
		t.Fatal("VerifyStep0 missing")
	}
	d2, e := SvcVerifyStep1(p, d1, th, d.Addrspace(0).Measured)
	if e != kapi.ErrSuccess {
		t.Fatal("VerifyStep1 missing")
	}
	_, mac, _ := SvcAttest(p, d, th, [8]uint32{1})
	if _, ok, e := SvcVerifyStep2(p, d2, th, mac); e != kapi.ErrSuccess || ok != 1 {
		t.Error("VerifyStep2 broken")
	}
	// InitL2PTable(sparePg, l1index) / MapData / UnmapData
	ds, e := AllocSpare(p, d, 0, 7)
	if e != kapi.ErrSuccess {
		t.Fatal(e)
	}
	dm, e := SvcMapData(p, ds, th, 7, kapi.NewMapping(0x3000, true, false))
	if e != kapi.ErrSuccess {
		t.Fatal("MapData missing")
	}
	if _, e := SvcUnmapData(p, dm, th, 7, kapi.NewMapping(0x3000, true, false)); e != kapi.ErrSuccess {
		t.Fatal("UnmapData missing")
	}
	ds2, e := AllocSpare(p, d, 0, 8)
	if e != kapi.ErrSuccess {
		t.Fatal(e)
	}
	if _, e := SvcInitL2PTable(p, ds2, th, 8, 5); e != kapi.ErrSuccess {
		t.Fatal("SVC InitL2PTable missing")
	}
	// Exit(retval) is the terminal event of the Enter relation.
	if err, val := TerminalResult(kapi.ExecEvent{Kind: kapi.EventExit, ExitVal: 9}); err != kapi.ErrSuccess || val != 9 {
		t.Error("Exit semantics broken")
	}
}
