package kapi

import (
	"testing"
	"testing/quick"
)

func TestMappingRoundTrip(t *testing.T) {
	f := func(pageNr uint32, w, x bool) bool {
		va := (pageNr % (1 << 18)) * 0x1000 // within 1 GB
		m := NewMapping(va, w, x)
		return m.Valid() && m.VA() == va && m.Write() == w && m.Exec() == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMappingMasksOffsetBits(t *testing.T) {
	m := NewMapping(0x1234, true, false)
	if m.VA() != 0x1000 {
		t.Fatalf("VA = %#x", m.VA())
	}
}

func TestMappingValidity(t *testing.T) {
	if kapiValid := NewMapping(1<<30, false, false).Valid(); kapiValid {
		t.Fatal("VA at 1 GB accepted")
	}
	if !NewMapping((1<<30)-0x1000, false, false).Valid() {
		t.Fatal("last valid page rejected")
	}
	// Undefined low bits make a mapping invalid.
	if Mapping(0x1000 | 0x8).Valid() {
		t.Fatal("undefined permission bit accepted")
	}
}

func TestMappingString(t *testing.T) {
	m := NewMapping(0x2000, true, true)
	if s := m.String(); s != "va=0x2000 perms=rwx" {
		t.Fatalf("String = %q", s)
	}
	if s := NewMapping(0x1000, false, false).String(); s != "va=0x1000 perms=r" {
		t.Fatalf("String = %q", s)
	}
}

func TestErrStrings(t *testing.T) {
	if ErrSuccess.String() != "KOM_ERR_SUCCESS" {
		t.Fatal("success string")
	}
	if ErrAlreadyEntered.Error() != "KOM_ERR_ALREADY_ENTERED" {
		t.Fatal("error interface")
	}
	if Err(200).String() == "" {
		t.Fatal("unknown code has empty string")
	}
}

func TestCallNumbersDistinct(t *testing.T) {
	smcs := []uint32{
		SMCGetPhysPages, SMCInitAddrspace, SMCInitThread, SMCInitL2PTable,
		SMCAllocSpare, SMCMapSecure, SMCMapInsecure, SMCFinalise,
		SMCEnter, SMCResume, SMCStop, SMCRemove,
	}
	seen := map[uint32]bool{}
	for _, c := range smcs {
		if seen[c] {
			t.Fatalf("duplicate SMC number %d", c)
		}
		seen[c] = true
	}
	svcs := []uint32{
		SVCExit, SVCGetRandom, SVCAttest, SVCVerifyStep0, SVCVerifyStep1,
		SVCVerifyStep2, SVCInitL2PTable, SVCMapData, SVCUnmapData,
	}
	seen = map[uint32]bool{}
	for _, c := range svcs {
		if seen[c] {
			t.Fatalf("duplicate SVC number %d", c)
		}
		seen[c] = true
	}
}

// TestEventKindString: every execution-trace kind has its own name, so a
// refinement failure never prints a kind as a bare number.
func TestEventKindString(t *testing.T) {
	for _, tc := range []struct {
		k    EventKind
		want string
	}{
		{EventSVC, "svc"},
		{EventExit, "exit"},
		{EventIRQ, "irq"},
		{EventFIQ, "fiq"},
		{EventFault, "fault"},
		{EventFaultHandled, "fault-handled"},
		{EventFaultHandled + 1, "EventKind(6)"},
	} {
		if got := tc.k.String(); got != tc.want {
			t.Errorf("EventKind(%d).String() = %q, want %q", int(tc.k), got, tc.want)
		}
	}
}
