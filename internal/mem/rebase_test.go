package mem

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// newSmallMem is a 64-page insecure, 16-page secure Physical: random
// writes revisit pages often, and whole-memory comparisons stay cheap.
func newSmallMem(t *testing.T) *Physical {
	t.Helper()
	p, err := NewPhysical(Layout{
		InsecureBase: 0x8000_0000, InsecureSize: 64 * PageSize,
		SecureBase: 0x4000_0000, SecureSize: 16 * PageSize,
		Protection: ProtEncrypt,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// assertSnapshotsEqual compares two snapshots word for word and on their
// tamper maps.
func assertSnapshotsEqual(t *testing.T, got, want *MemSnapshot) {
	t.Helper()
	if !slices.Equal(flat(got.ins), flat(want.ins)) {
		t.Fatal("insecure region differs from a fresh snapshot")
	}
	if !slices.Equal(flat(got.sec), flat(want.sec)) {
		t.Fatal("secure region differs from a fresh snapshot")
	}
	if !maps.Equal(got.tampered, want.tampered) {
		t.Fatalf("tamper map %v, fresh snapshot has %v", got.tampered, want.tampered)
	}
}

// TestRebaseMatchesFreshSnapshot is the bit-identity property of the
// incremental rebase. Seeded random rounds mix CPU writes, physical
// tampering under ProtEncrypt, restores of the golden snapshot and of a
// foreign one, page imports and unrelated snapshots; each Rebase of the
// golden must fold exactly when the golden is still memory's baseline and
// refuse, changing nothing, otherwise. After every fold the golden must
// equal a fresh full Snapshot, and a later Restore of it must still be a
// bit-identical delta restore.
func TestRebaseMatchesFreshSnapshot(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		p := newSmallMem(t)
		r := rand.New(rand.NewSource(seed))
		foreign := newSmallMem(t)
		randomDirty(t, foreign, r, 50)
		foreignSnap := foreign.Snapshot()

		randomDirty(t, p, r, 100)
		golden := p.Snapshot()
		baseline := true // model: golden is p's dirty-tracking baseline
		folds, refusals := 0, 0
		l := p.Layout()

		for round := 0; round < 300; round++ {
			switch op := r.Intn(10); op {
			case 0, 1, 2:
				randomDirty(t, p, r, 1+r.Intn(20))
			case 3:
				addr := l.SecureBase + uint32(r.Intn(int(l.SecureSize/4)))*4
				if err := p.TamperDRAM(addr, r.Uint32()); err != nil {
					t.Fatal(err)
				}
			case 4:
				if err := p.Restore(golden); err != nil {
					t.Fatal(err)
				}
				baseline = true
			case 5:
				if err := p.Restore(foreignSnap); err != nil {
					t.Fatal(err)
				}
				baseline = false
			case 6:
				if err := p.ImportPages(p.ExportPages()); err != nil {
					t.Fatal(err)
				}
				baseline = false
			case 7:
				p.Snapshot()
				baseline = false
			default:
				before := p.RestoreStats()
				verIns, verSec := slices.Clone(p.ins.ver), slices.Clone(p.sec.ver)
				gen, dirty := golden.gen, p.DirtyPages()
				goldIns, goldSec := flat(golden.ins), flat(golden.sec)
				ok := p.Rebase(golden)
				if ok != baseline {
					t.Fatalf("seed %d round %d: Rebase = %v, golden is baseline = %v", seed, round, ok, baseline)
				}
				if !ok {
					refusals++
					if golden.gen != gen || p.DirtyPages() != dirty ||
						!slices.Equal(flat(golden.ins), goldIns) || !slices.Equal(flat(golden.sec), goldSec) {
						t.Fatalf("seed %d round %d: refused Rebase changed state", seed, round)
					}
					continue
				}
				folds++
				if p.DirtyPages() != 0 || golden.gen != p.gen || gen == p.gen {
					t.Fatalf("seed %d round %d: fold left dirty=%d gen=%d (old %d, live %d)",
						seed, round, p.DirtyPages(), golden.gen, gen, p.gen)
				}
				if p.RestoreStats() != before {
					t.Fatal("fold counted as a snapshot or restore")
				}
				if !slices.Equal(p.ins.ver, verIns) || !slices.Equal(p.sec.ver, verSec) {
					t.Fatal("fold bumped page versions; memory did not change")
				}
				// Bit-identical delta restore of the rebased golden after
				// further writes.
				wantIns, wantSec := flat(p.ins.pages), flat(p.sec.pages)
				wantTamper := maps.Clone(p.tampered)
				randomDirty(t, p, r, 1+r.Intn(50))
				if err := p.Restore(golden); err != nil {
					t.Fatal(err)
				}
				if p.RestoreStats().DeltaRestores != before.DeltaRestores+1 {
					t.Fatalf("seed %d round %d: restore of a rebased golden was not a delta", seed, round)
				}
				if !slices.Equal(flat(p.ins.pages), wantIns) || !slices.Equal(flat(p.sec.pages), wantSec) ||
					!maps.Equal(p.tampered, wantTamper) {
					t.Fatalf("seed %d round %d: delta restore diverged from the rebased state", seed, round)
				}
				// The golden equals a fresh full snapshot, which then
				// supersedes it as the baseline.
				assertSnapshotsEqual(t, golden, p.Snapshot())
				baseline = false
			}
		}
		if folds == 0 || refusals == 0 {
			t.Fatalf("seed %d: %d folds, %d refusals; the rounds must exercise both", seed, folds, refusals)
		}
	}
}

// TestRebaseForeignSnapshotRefused: a snapshot taken from another Physical
// is never folded into, even when the generation numbers coincide.
func TestRebaseForeignSnapshotRefused(t *testing.T) {
	p := newTestMem(t, ProtFilter)
	q := newTestMem(t, ProtFilter)
	p.Snapshot()
	s := q.Snapshot() // q's generation 1 equals p's
	if p.Rebase(s) {
		t.Fatal("Rebase folded into another Physical's snapshot")
	}
}

// TestImportPagesRejectsBeforeWriting: an import naming an out-of-range
// page fails without touching memory, the generation or the dirty bits,
// so a later delta restore or rebase cannot keep a partial import.
func TestImportPagesRejectsBeforeWriting(t *testing.T) {
	p := newTestMem(t, ProtFilter)
	r := rand.New(rand.NewSource(5))
	randomDirty(t, p, r, 100)
	golden := p.Snapshot()
	randomDirty(t, p, r, 40)

	wantIns, wantSec := flat(p.ins.pages), flat(p.sec.pages)
	gen := p.gen
	dIns, dSec := p.DirtyPageList()
	stats := p.RestoreStats()

	bad := []PageImage{
		{Secure: false, Page: 0},
		{Secure: true, Page: uint32(p.SecurePageCount())}, // one past the end
	}
	bad[0].Words[0] = 0xdead
	if err := p.ImportPages(bad); err == nil {
		t.Fatal("out-of-range import accepted")
	}
	if !slices.Equal(flat(p.ins.pages), wantIns) || !slices.Equal(flat(p.sec.pages), wantSec) {
		t.Fatal("rejected import changed memory")
	}
	if p.gen != gen {
		t.Fatalf("rejected import moved the generation %d -> %d", gen, p.gen)
	}
	gIns, gSec := p.DirtyPageList()
	if !slices.Equal(gIns, dIns) || !slices.Equal(gSec, dSec) {
		t.Fatal("rejected import changed the dirty pages")
	}
	if p.RestoreStats() != stats {
		t.Fatal("rejected import counted as a restore")
	}
	if !p.Rebase(golden) {
		t.Fatal("golden stopped being the baseline after a rejected import")
	}
}
