package monitor_test

import (
	"slices"
	"testing"

	"repro/internal/board"
	"repro/internal/kapi"
	"repro/internal/kasm"
	"repro/internal/mem"
	"repro/internal/nwos"
	"repro/internal/seal"
)

// TestCheckpointImageMatchesFullDecode is the differential for the
// checkpoint's imaging path, which decodes only the imaged enclave's
// pages into reused storage. With several enclaves live on one board —
// the notary (insecure-mapped), a two-thread enclave, a stopped one and
// stopped ones whose page tables were partly removed — each image must
// equal seal.EncodeEnclave over the whole decoded PageDB, and an enclave
// that one cannot image the other cannot image either; the checkpoint
// SMC then fails with ErrInvalidArg. Every SMC here also runs through
// the refinement checker, which compares the sealed blobs with the spec.
func TestCheckpointImageMatchesFullDecode(t *testing.T) {
	w := newWorld(t, board.Config{})
	notary := w.build(t, kasm.NotaryGuest(1))
	if len(notary.SharedPA) == 0 {
		t.Fatal("notary has no insecure mapping")
	}
	if e, _, err := w.os.Enter(notary, 0); err != nil || e != kapi.ErrSuccess {
		t.Fatalf("notary: %v %v", err, e)
	}
	img, _ := counterGuest(t)
	multi, err := w.os.BuildEnclave(img)
	if err != nil {
		t.Fatal(err)
	}
	if e, _, err := w.os.EnterThread(multi, 0, 3); err != nil || e != kapi.ErrSuccess {
		t.Fatalf("writer: %v %v", err, e)
	}
	stopped := w.build(t, kasm.StoreLoad())
	noL2 := w.build(t, kasm.StoreLoad())
	noData := w.build(t, kasm.StoreLoad())
	for _, e := range []*nwos.Enclave{stopped, noL2, noData} {
		w.smc(t, kapi.SMCStop, uint32(e.AS))
	}
	// An L1 slot still points at the removed L2 table; an L2 entry still
	// maps the removed data page.
	for _, l2 := range noL2.L2PTs {
		w.smc(t, kapi.SMCRemove, uint32(l2))
		break
	}
	w.smc(t, kapi.SMCRemove, uint32(noData.Data[0]))

	cases := []struct {
		name      string
		enc       *nwos.Enclave
		imageable bool
	}{
		{"notary", notary, true},
		{"multi-thread", multi, true},
		{"stopped", stopped, true},
		{"stopped, L2 removed", noL2, false},
		{"stopped, data removed", noData, false},
	}
	for _, c := range cases {
		d, err := w.plat.Monitor.DecodePageDB()
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := seal.EncodeEnclave(nil, d, c.enc.AS)
		got, err := w.plat.Monitor.CheckpointImage(c.enc.AS)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if (wantErr == nil) != c.imageable || (got != nil) != c.imageable {
			t.Fatalf("%s: full decode err %v, new path imaged %v; want imageable %v", c.name, wantErr, got != nil, c.imageable)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: images differ (%d words vs %d)", c.name, len(got), len(want))
		}
		if !c.imageable {
			l := w.plat.Machine.Phys.Layout()
			dest := l.InsecureBase + l.InsecureSize - 16*mem.PageSize
			e, _, err := w.os.SMC(kapi.SMCCheckpoint, uint32(c.enc.AS), dest, 16*mem.PageWords)
			if err != nil || e != kapi.ErrInvalidArg {
				t.Fatalf("%s: checkpoint = %v, %v; want ErrInvalidArg", c.name, e, err)
			}
		}
	}
	for _, e := range []*nwos.Enclave{notary, multi, stopped} {
		if _, _, err := w.os.CheckpointEnclave(e, nil); err != nil {
			t.Fatal(err)
		}
	}
	if w.chk.Failures != 0 {
		t.Fatalf("refinement failures = %d", w.chk.Failures)
	}
}

// smc issues one SMC that must succeed.
func (w *world) smc(t *testing.T, call uint32, args ...uint32) {
	t.Helper()
	if e, _, err := w.os.SMC(call, args...); err != nil || e != kapi.ErrSuccess {
		t.Fatalf("SMC %d %v: %v %v", call, args, e, err)
	}
}
