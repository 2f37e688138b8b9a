package mem

import (
	"errors"
	"math/rand"
	"testing"
)

// randomDirty applies n pseudo-random word writes across both regions.
func randomDirty(t *testing.T, p *Physical, r *rand.Rand, n int) {
	t.Helper()
	l := p.Layout()
	for i := 0; i < n; i++ {
		var addr uint32
		w := Normal
		if r.Intn(2) == 0 {
			addr = l.InsecureBase + uint32(r.Intn(int(l.InsecureSize/4)))*4
		} else {
			addr = l.SecureBase + uint32(r.Intn(int(l.SecureSize/4)))*4
			w = Secure
		}
		if err := p.Write(addr, r.Uint32(), w); err != nil {
			t.Fatal(err)
		}
	}
}

// assertMatchesSnapshot compares the Physical's full contents against the
// snapshot word-for-word.
func assertMatchesSnapshot(t *testing.T, p *Physical, s *MemSnapshot) {
	t.Helper()
	live := flat(p.ins.pages)
	for i, v := range flat(s.ins) {
		if live[i] != v {
			t.Fatalf("insecure[%d] = %#x, snapshot holds %#x", i, live[i], v)
		}
	}
	live = flat(p.sec.pages)
	for i, v := range flat(s.sec) {
		if live[i] != v {
			t.Fatalf("secure[%d] = %#x, snapshot holds %#x", i, live[i], v)
		}
	}
}

// TestDeltaRestoreBitIdentical: after a randomized dirtying run, the delta
// path must leave memory bit-identical to the snapshot — the same result a
// full copy would produce — while copying only the dirtied pages.
func TestDeltaRestoreBitIdentical(t *testing.T) {
	p := newTestMem(t, ProtFilter)
	r := rand.New(rand.NewSource(42))
	randomDirty(t, p, r, 200) // pre-snapshot noise so golden isn't all-zero
	s := p.Snapshot()
	if got := p.DirtyPages(); got != 0 {
		t.Fatalf("dirty pages right after snapshot = %d, want 0", got)
	}

	for round := 0; round < 3; round++ {
		randomDirty(t, p, r, 300)
		dirty := p.DirtyPages()
		if dirty == 0 {
			t.Fatal("randomized run dirtied nothing")
		}
		if err := p.Restore(s); err != nil {
			t.Fatal(err)
		}
		assertMatchesSnapshot(t, p, s)
		st := p.RestoreStats()
		if st.LastPagesCopied != uint64(dirty) {
			t.Fatalf("round %d: copied %d pages, %d were dirty", round, st.LastPagesCopied, dirty)
		}
		if st.LastWordsCopied != uint64(dirty)*PageWords {
			t.Fatalf("round %d: copied %d words for %d pages", round, st.LastWordsCopied, dirty)
		}
		if p.DirtyPages() != 0 {
			t.Fatalf("round %d: %d pages still dirty after restore", round, p.DirtyPages())
		}
	}
	st := p.RestoreStats()
	if st.DeltaRestores != 3 || st.FullRestores != 0 {
		t.Fatalf("stats: %+v, want 3 delta / 0 full", st)
	}
	// The point of the delta path: far less copied than the full map.
	if st.WordsCopied*10 > 3*p.TotalWords() {
		t.Fatalf("delta restores copied %d words, ≥1/10 of 3 full copies (%d)", st.WordsCopied, 3*p.TotalWords())
	}
}

// TestRestoreOldSnapshotFullThenDelta: restoring a snapshot that is no
// longer the dirty-tracking baseline takes the full-copy path, then
// becomes the baseline — so restoring it again is a delta.
func TestRestoreOldSnapshotFullThenDelta(t *testing.T) {
	p := newTestMem(t, ProtFilter)
	base := p.Layout().InsecureBase
	p.Write(base, 0x1111, Normal)
	s1 := p.Snapshot()
	p.Write(base, 0x2222, Normal)
	p.Snapshot() // s2 supersedes s1 as the baseline
	p.Write(base, 0x3333, Normal)

	if err := p.Restore(s1); err != nil {
		t.Fatal(err)
	}
	assertMatchesSnapshot(t, p, s1)
	st := p.RestoreStats()
	if st.FullRestores != 1 || st.DeltaRestores != 0 {
		t.Fatalf("restore of superseded snapshot: %+v, want full copy", st)
	}
	if st.LastWordsCopied != p.TotalWords() {
		t.Fatalf("full restore copied %d words, want %d", st.LastWordsCopied, p.TotalWords())
	}

	// s1 was adopted as baseline: the next restore of it is a delta.
	p.Write(base+PageSize, 0xabcd, Normal)
	if err := p.Restore(s1); err != nil {
		t.Fatal(err)
	}
	assertMatchesSnapshot(t, p, s1)
	st = p.RestoreStats()
	if st.DeltaRestores != 1 {
		t.Fatalf("repeat restore: %+v, want delta", st)
	}
	if st.LastPagesCopied != 1 {
		t.Fatalf("repeat restore copied %d pages, want 1", st.LastPagesCopied)
	}
}

// TestRestoreForeignSnapshotFullCopy: a snapshot from another Physical
// (same layout) restores correctly but never via the delta path — its
// generation stamps are not comparable with ours.
func TestRestoreForeignSnapshotFullCopy(t *testing.T) {
	p1 := newTestMem(t, ProtFilter)
	p2 := newTestMem(t, ProtFilter)
	p1.Write(p1.Layout().InsecureBase, 0xfeed, Normal)
	s := p1.Snapshot()

	for i := 1; i <= 2; i++ {
		if err := p2.Restore(s); err != nil {
			t.Fatal(err)
		}
		assertMatchesSnapshot(t, p2, s)
		if st := p2.RestoreStats(); st.FullRestores != uint64(i) || st.DeltaRestores != 0 {
			t.Fatalf("restore %d of foreign snapshot: %+v, want all full copies", i, st)
		}
	}
}

// TestRestoreForeignThenOwnSnapshot: restoring a foreign snapshot must
// invalidate the dirty-tracking baseline. Otherwise p.gen can still equal
// an own snapshot's gen, and restoring that own snapshot afterwards would
// take the delta path with empty dirty bits — copying nothing and silently
// leaving the foreign contents in place.
func TestRestoreForeignThenOwnSnapshot(t *testing.T) {
	p := newTestMem(t, ProtFilter)
	base := p.Layout().InsecureBase
	if err := p.Write(base, 0x0a1, Normal); err != nil {
		t.Fatal(err)
	}
	own := p.Snapshot() // baseline: p.gen == own.gen

	other := newTestMem(t, ProtFilter)
	if err := other.Write(base, 0xf0e, Normal); err != nil {
		t.Fatal(err)
	}
	foreign := other.Snapshot()

	if err := p.Restore(foreign); err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Read(base, Normal); v != 0xf0e {
		t.Fatalf("after foreign restore: %#x, want 0xf0e", v)
	}
	if err := p.Restore(own); err != nil {
		t.Fatal(err)
	}
	assertMatchesSnapshot(t, p, own)
	st := p.RestoreStats()
	if st.FullRestores != 2 || st.DeltaRestores != 0 {
		t.Fatalf("stats: %+v, want 2 full / 0 delta", st)
	}

	// own is now the baseline again: the delta path works from here.
	if err := p.Write(base+PageSize, 0x5, Normal); err != nil {
		t.Fatal(err)
	}
	if err := p.Restore(own); err != nil {
		t.Fatal(err)
	}
	assertMatchesSnapshot(t, p, own)
	if st := p.RestoreStats(); st.DeltaRestores != 1 {
		t.Fatalf("repeat restore: %+v, want delta", st)
	}
}

// TestRestoreLayoutMismatch still errors out before touching anything.
func TestRestoreLayoutMismatch(t *testing.T) {
	p := newTestMem(t, ProtFilter)
	l := DefaultLayout()
	l.SecureSize *= 2
	other, err := NewPhysical(l)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Restore(other.Snapshot()); err == nil {
		t.Fatal("restore across layouts succeeded")
	}
}

// TestCleanRestoreAllocatesNothing: the serving hot path — delta restore
// with a clean or lightly-dirtied machine — must not allocate. This also
// pins the satellite fix: an empty tampered map is no longer re-created
// on every snapshot/restore cycle.
func TestCleanRestoreAllocatesNothing(t *testing.T) {
	p := newTestMem(t, ProtEncrypt)
	s := p.Snapshot()
	if s.tampered != nil {
		t.Fatal("clean snapshot captured a tampered map")
	}
	base := p.Layout().InsecureBase
	allocs := testing.AllocsPerRun(100, func() {
		p.Write(base, 1, Normal)
		if err := p.Restore(s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("delta restore allocated %.1f objects/op, want 0", allocs)
	}
	if p.tampered != nil {
		t.Fatal("restore materialised an empty tampered map")
	}
}

// TestRestoreReconcilesTamperPoison: integrity poison (ProtEncrypt) is
// part of the snapshotted state — restore must bring back the poison set
// exactly, in both directions.
func TestRestoreReconcilesTamperPoison(t *testing.T) {
	p := newTestMem(t, ProtEncrypt)
	addr := p.Layout().SecureBase + 8

	// Poisoned at capture time → restore re-poisons.
	if err := p.TamperDRAM(addr, 0xbad); err != nil {
		t.Fatal(err)
	}
	s := p.Snapshot()
	if err := p.Write(addr, 7, Secure); err != nil {
		t.Fatal(err) // legitimate write clears the poison
	}
	if _, err := p.Read(addr, Secure); err != nil {
		t.Fatalf("read after re-encrypting write: %v", err)
	}
	if err := p.Restore(s); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(addr, Secure); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("read of restored-poisoned word: %v, want integrity fault", err)
	}

	// Clean at capture time → restore clears current poison.
	if err := p.Write(addr, 9, Secure); err != nil {
		t.Fatal(err)
	}
	clean := p.Snapshot()
	if err := p.TamperDRAM(addr, 0xbad2); err != nil {
		t.Fatal(err)
	}
	if err := p.Restore(clean); err != nil {
		t.Fatal(err)
	}
	if v, err := p.Read(addr, Secure); err != nil || v != 9 {
		t.Fatalf("read after clean restore: %#x, %v", v, err)
	}
}

// TestPageVersionMonotonic: versions only move forward, through writes,
// tampering and restore-copies alike — the invariant the superblock cache
// relies on (equal version ⟹ identical contents).
func TestPageVersionMonotonic(t *testing.T) {
	p := newTestMem(t, ProtFilter)
	addr := p.Layout().InsecureBase + 3*PageSize
	v0 := p.PageVersion(addr)
	p.Write(addr, 1, Normal)
	v1 := p.PageVersion(addr)
	if v1 <= v0 {
		t.Fatalf("write did not advance version: %d → %d", v0, v1)
	}
	s := p.Snapshot()
	p.Write(addr, 2, Normal)
	v2 := p.PageVersion(addr)
	if v2 <= v1 {
		t.Fatalf("post-snapshot write did not advance version: %d → %d", v1, v2)
	}
	if err := p.Restore(s); err != nil {
		t.Fatal(err)
	}
	// The restore changed the page's contents back — the version must NOT
	// roll back with it, or a stale cached decode would revalidate.
	v3 := p.PageVersion(addr)
	if v3 <= v2 {
		t.Fatalf("restore-copy did not advance version: %d → %d", v2, v3)
	}
	if err := p.TamperDRAM(addr, 0xff); err != nil {
		t.Fatal(err)
	}
	if v4 := p.PageVersion(addr); v4 <= v3 {
		t.Fatalf("tamper did not advance version: %d → %d", v3, v4)
	}
}

// TestDirtyPagesGauge: the komodo_mem_dirty_pages gauge counts distinct
// pages, not writes.
func TestDirtyPagesGauge(t *testing.T) {
	p := newTestMem(t, ProtFilter)
	p.Snapshot()
	base := p.Layout().InsecureBase
	p.Write(base, 1, Normal)
	p.Write(base+4, 2, Normal) // same page
	p.Write(base+PageSize, 3, Normal)
	sec := p.Layout().SecureBase
	p.Write(sec, 4, Secure)
	if got := p.DirtyPages(); got != 3 {
		t.Fatalf("dirty pages = %d, want 3", got)
	}
}
