package refine_test

// Refinement and end-to-end tests of the sealed-storage subsystem:
// checkpoint/restore through the checker (so every call is compared
// against internal/spec), cross-board migration, fail-closed tampering,
// and the SVCGetSealKey replay path.

import (
	"testing"

	"repro/internal/board"
	"repro/internal/kapi"
	"repro/internal/kasm"
	"repro/internal/mem"
	"repro/internal/nwos"
	"repro/internal/refine"
	"repro/internal/seal"
	"repro/internal/sha2"
)

func bootChecked(t *testing.T, seed uint64) (*board.Platform, *refine.Checker, *nwos.OS) {
	t.Helper()
	plat, err := board.Boot(board.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	chk := refine.New(plat.Monitor)
	return plat, chk, nwos.New(plat.Machine, chk, plat.Monitor.NPages())
}

// TestCheckpointRestoreRefined checkpoints a rich enclave (code, data,
// shared insecure mapping, spares), restores it on the same board, and
// runs both the original and the clone — all through the refinement
// checker.
func TestCheckpointRestoreRefined(t *testing.T) {
	_, chk, os := bootChecked(t, 6)
	img, err := kasm.SharedEcho().Image()
	if err != nil {
		t.Fatal(err)
	}
	img.Spares = 2
	enc, err := os.BuildEnclave(img)
	if err != nil {
		t.Fatal(err)
	}

	blob, man, err := os.CheckpointEnclave(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) <= seal.OverheadWords {
		t.Fatalf("blob only %d words", len(blob))
	}
	if man.NumPages != 1+1+len(enc.L2PTs)+len(enc.Data)+2 {
		t.Fatalf("manifest pages = %d", man.NumPages)
	}

	// The original still runs.
	os.WriteInsecure(enc.SharedPA[0], []uint32{100})
	e, v, err := os.Enter(enc, 23)
	if err != nil || e != kapi.ErrSuccess || v != 123 {
		t.Fatalf("original enter = (%v, %d, %v)", e, v, err)
	}

	// The clone restores onto fresh pages and behaves identically.
	clone, err := os.RestoreEnclave(blob, man)
	if err != nil {
		t.Fatal(err)
	}
	if clone.AS == enc.AS {
		t.Fatal("clone reused the original addrspace page")
	}
	os.WriteInsecure(clone.SharedPA[0], []uint32{200})
	e, v, err = os.Enter(clone, 42)
	if err != nil || e != kapi.ErrSuccess || v != 242 {
		t.Fatalf("clone enter = (%v, %d, %v)", e, v, err)
	}
	if chk.Failures != 0 {
		t.Fatalf("refinement failures = %d", chk.Failures)
	}
}

// TestCheckpointRestoreStopped covers the other legal source state: a
// stopped enclave checkpoints and restores back to Stopped.
func TestCheckpointRestoreStopped(t *testing.T) {
	_, chk, os := bootChecked(t, 7)
	img, _ := kasm.ExitConst(5).Image()
	enc, err := os.BuildEnclave(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := chk.SMC(kapi.SMCStop, uint32(enc.AS)); err != nil {
		t.Fatal(err)
	}
	blob, man, err := os.CheckpointEnclave(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := os.RestoreEnclave(blob, man)
	if err != nil {
		t.Fatal(err)
	}
	// A stopped enclave cannot be entered — restore preserves that.
	if e, _, err := os.Enter(clone); err != nil || e != kapi.ErrNotFinal {
		t.Fatalf("entered a restored stopped enclave: e=%v err=%v", e, err)
	}
	if chk.Failures != 0 {
		t.Fatalf("refinement failures = %d", chk.Failures)
	}
}

// TestCheckpointErrorMatrix drives every argument-validation branch of
// both SMCs through the checker, so each error code is also confirmed
// against the specification.
func TestCheckpointErrorMatrix(t *testing.T) {
	plat, chk, os := bootChecked(t, 8)
	img, _ := kasm.ExitConst(1).Image()
	enc, err := os.BuildEnclave(img)
	if err != nil {
		t.Fatal(err)
	}
	l := plat.Machine.Phys.Layout()
	dest := l.InsecureBase + l.InsecureSize - 16*mem.PageSize

	// An addrspace still Init (not finalised) for the NotFinal case.
	asPg, _ := os.AllocPage()
	l1Pg, _ := os.AllocPage()
	if _, _, err := chk.SMC(kapi.SMCInitAddrspace, uint32(asPg), uint32(l1Pg)); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		call uint32
		args []uint32
		want kapi.Err
	}{
		{"ckpt non-addrspace", kapi.SMCCheckpoint, []uint32{uint32(enc.Thread), dest, 4096}, kapi.ErrInvalidAddrspace},
		{"ckpt bad page", kapi.SMCCheckpoint, []uint32{1 << 20, dest, 4096}, kapi.ErrInvalidPageNo},
		{"ckpt not final", kapi.SMCCheckpoint, []uint32{uint32(asPg), dest, 4096}, kapi.ErrNotFinal},
		{"ckpt zero max", kapi.SMCCheckpoint, []uint32{uint32(enc.AS), dest, 0}, kapi.ErrInvalidArg},
		{"ckpt huge max", kapi.SMCCheckpoint, []uint32{uint32(enc.AS), dest, seal.MaxPayloadWords + 1}, kapi.ErrInvalidArg},
		{"ckpt unaligned dest", kapi.SMCCheckpoint, []uint32{uint32(enc.AS), dest + 4, 4096}, kapi.ErrInsecureInvalid},
		{"ckpt secure dest", kapi.SMCCheckpoint, []uint32{uint32(enc.AS), 0, 4096}, kapi.ErrInsecureInvalid},
		{"ckpt dest overflows", kapi.SMCCheckpoint, []uint32{uint32(enc.AS), dest, seal.MaxPayloadWords}, kapi.ErrInsecureInvalid},
		{"ckpt too small", kapi.SMCCheckpoint, []uint32{uint32(enc.AS), dest, 30}, kapi.ErrInvalidArg},
		{"rest zero words", kapi.SMCRestore, []uint32{dest, 0, dest, 1}, kapi.ErrInvalidArg},
		{"rest unaligned src", kapi.SMCRestore, []uint32{dest + 4, 64, dest, 1}, kapi.ErrInsecureInvalid},
		{"rest secure src", kapi.SMCRestore, []uint32{0, 64, dest, 1}, kapi.ErrInsecureInvalid},
		{"rest zero pages", kapi.SMCRestore, []uint32{dest, 64, dest, 0}, kapi.ErrInvalidArg},
		{"rest garbage blob", kapi.SMCRestore, []uint32{dest, 64, dest + mem.PageSize, 4}, kapi.ErrSealInvalid},
	}
	for _, tc := range cases {
		e, _, err := chk.SMC(tc.call, tc.args...)
		if err != nil {
			t.Fatalf("%s: checker: %v", tc.name, err)
		}
		if e != tc.want {
			t.Fatalf("%s: err = %v, want %v", tc.name, e, tc.want)
		}
	}
	if chk.Failures != 0 {
		t.Fatalf("refinement failures = %d", chk.Failures)
	}
}

// TestRestorePageListValidation covers the donated-page checks: in-use
// pages, duplicates, and a wrong page count against a genuine blob.
func TestRestorePageListValidation(t *testing.T) {
	plat, chk, os := bootChecked(t, 9)
	img, _ := kasm.ExitConst(3).Image()
	enc, err := os.BuildEnclave(img)
	if err != nil {
		t.Fatal(err)
	}
	blob, man, err := os.CheckpointEnclave(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := plat.Machine.Phys.Layout()
	src := l.InsecureBase + l.InsecureSize - 32*mem.PageSize
	listPA := src + 24*mem.PageSize
	os.WriteInsecure(src, blob)
	n := uint32(1 + man.NumPages)

	free := make([]uint32, n)
	for i := range free {
		pg, err := os.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		free[i] = uint32(pg)
	}
	write := func(list []uint32) {
		if err := os.WriteInsecure(listPA, list); err != nil {
			t.Fatal(err)
		}
	}

	// Wrong count for this image.
	write(free[:n-1])
	if e, _, err := chk.SMC(kapi.SMCRestore, src, uint32(len(blob)), listPA, n-1); err != nil || e != kapi.ErrInvalidArg {
		t.Fatalf("short list: e=%v err=%v", e, err)
	}
	// A page that is already in use (the live enclave's addrspace).
	inUse := append([]uint32(nil), free...)
	inUse[2] = uint32(enc.AS)
	write(inUse)
	if e, _, err := chk.SMC(kapi.SMCRestore, src, uint32(len(blob)), listPA, n); err != nil || e != kapi.ErrPageInUse {
		t.Fatalf("in-use page: e=%v err=%v", e, err)
	}
	// A duplicate donation.
	dup := append([]uint32(nil), free...)
	dup[3] = dup[1]
	write(dup)
	if e, _, err := chk.SMC(kapi.SMCRestore, src, uint32(len(blob)), listPA, n); err != nil || e != kapi.ErrInvalidArg {
		t.Fatalf("duplicate page: e=%v err=%v", e, err)
	}
	// The clean list still restores.
	write(free)
	if e, v, err := chk.SMC(kapi.SMCRestore, src, uint32(len(blob)), listPA, n); err != nil || e != kapi.ErrSuccess || v != free[0] {
		t.Fatalf("clean restore: e=%v v=%d err=%v", e, v, err)
	}
	if chk.Failures != 0 {
		t.Fatalf("refinement failures = %d", chk.Failures)
	}
}

// TestTamperedBlobFailsClosed flips bits across the blob (sampled
// through the checker — every word is covered at the seal layer) and
// proves the monitor rejects each mutant with SealInvalid, leaving the
// PageDB untouched.
func TestTamperedBlobFailsClosed(t *testing.T) {
	plat, chk, os := bootChecked(t, 10)
	img, _ := kasm.ExitConst(3).Image()
	enc, err := os.BuildEnclave(img)
	if err != nil {
		t.Fatal(err)
	}
	blob, man, err := os.CheckpointEnclave(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := plat.Machine.Phys.Layout()
	src := l.InsecureBase + l.InsecureSize - 32*mem.PageSize
	listPA := src + 24*mem.PageSize
	n := uint32(1 + man.NumPages)
	list := make([]uint32, n)
	for i := range list {
		pg, err := os.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		list[i] = uint32(pg)
	}
	if err := os.WriteInsecure(listPA, list); err != nil {
		t.Fatal(err)
	}

	idxs := []int{0, 1, 2, 3, 4, 12, 13, seal.HeaderWords, len(blob) / 2, len(blob) - 8, len(blob) - 1}
	for _, i := range idxs {
		mut := append([]uint32(nil), blob...)
		mut[i] ^= 1 << 7
		if err := os.WriteInsecure(src, mut); err != nil {
			t.Fatal(err)
		}
		e, _, err := chk.SMC(kapi.SMCRestore, src, uint32(len(mut)), listPA, n)
		if err != nil {
			t.Fatalf("word %d: checker: %v", i, err)
		}
		if e != kapi.ErrSealInvalid {
			t.Fatalf("word %d tampered: err = %v, want SealInvalid", i, e)
		}
	}
	if chk.Failures != 0 {
		t.Fatalf("refinement failures = %d", chk.Failures)
	}
}

// TestCrossBoardMigration is the migration property: a blob sealed on
// board A restores on board B exactly when both share a boot secret.
func TestCrossBoardMigration(t *testing.T) {
	_, chkA, osA := bootChecked(t, 11)
	img, _ := kasm.AddArgs().Image()
	enc, err := osA.BuildEnclave(img)
	if err != nil {
		t.Fatal(err)
	}
	blob, man, err := osA.CheckpointEnclave(enc, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Board B: same seed, hence same boot secret and seal root.
	_, chkB, osB := bootChecked(t, 11)
	clone, err := osB.RestoreEnclave(blob, man)
	if err != nil {
		t.Fatal(err)
	}
	e, v, err := osB.Enter(clone, 40, 2)
	if err != nil || e != kapi.ErrSuccess || v != 42 {
		t.Fatalf("migrated enclave: (%v, %d, %v)", e, v, err)
	}

	// Board C: different secret — the blob must not open.
	_, _, osC := bootChecked(t, 999)
	if _, err := osC.RestoreEnclave(blob, man); err == nil {
		t.Fatal("restore succeeded under a different boot secret")
	}
	if chkA.Failures+chkB.Failures != 0 {
		t.Fatalf("refinement failures: A=%d B=%d", chkA.Failures, chkB.Failures)
	}
}

// TestSealKeySVC runs the EGETKEY-analogue guest under the checker
// (exercising ApplySVC replay) and confirms the key the enclave sees
// matches the spec's derivation — and differs across boot secrets.
func TestSealKeySVC(t *testing.T) {
	plat, chk, os := bootChecked(t, 12)
	img, _ := kasm.SealKeyToShared().Image()
	enc, err := os.BuildEnclave(img)
	if err != nil {
		t.Fatal(err)
	}
	e, v, err := os.Enter(enc)
	if err != nil || e != kapi.ErrSuccess || v != 1 {
		t.Fatalf("enter = (%v, %d, %v)", e, v, err)
	}
	got, err := os.ReadInsecure(enc.SharedPA[0], 8)
	if err != nil {
		t.Fatal(err)
	}

	p := refine.SpecParams(plat.Monitor)
	d, err := plat.Monitor.DecodePageDB()
	if err != nil {
		t.Fatal(err)
	}
	key := seal.DeriveKey(p.SealRoot(), d.Addrspace(enc.AS).Measured)
	want := sha2.BytesToWords(key[:])
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("key word %d: got %#x want %#x", i, got[i], want[i])
		}
	}
	if chk.Failures != 0 {
		t.Fatalf("refinement failures = %d", chk.Failures)
	}

	// Same guest on a different board: different secret, different key.
	_, _, os2 := bootChecked(t, 13)
	enc2, err := os2.BuildEnclave(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := os2.Enter(enc2); err != nil {
		t.Fatal(err)
	}
	got2, err := os2.ReadInsecure(enc2.SharedPA[0], 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range got2 {
		if got2[i] != got[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seal key identical across boot secrets")
	}
}
