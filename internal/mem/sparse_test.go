package mem

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// flat returns a page table's contents as one word slice, unallocated
// pages as zeros: the representation the reference model keeps.
func flat(pages []*page) []uint32 {
	out := make([]uint32, len(pages)*PageWords)
	for i, pg := range pages {
		if pg != nil {
			copy(out[i*PageWords:], pg[:])
		}
	}
	return out
}

// fillRegion sets every word of r to f(word index) without recording the
// writes.
func fillRegion(r *region, f func(i int) uint32) {
	for pg := range r.pages {
		r.pages[pg] = new(page)
		for i := range r.pages[pg] {
			r.pages[pg][i] = f(pg*PageWords + i)
		}
	}
}

// flatDigest is FNV-1a over every word of both regions, the definition
// Digest must match bit for bit.
func flatDigest(ins, sec []uint32) uint64 {
	h := uint64(offset64)
	for _, words := range [][]uint32{ins, sec} {
		for _, w := range words {
			h = (h ^ uint64(w)) * prime64
		}
	}
	return h
}

// refMem is the flat-array reference model of a Physical: one word slice
// per region, per-page dirty flags and versions, the integrity poison,
// and which model snapshot is the dirty-tracking baseline.
type refMem struct {
	p                  *Physical // for the layout and the keystream
	ins, sec           []uint32
	dirtyIns, dirtySec []bool
	verIns, verSec     []uint64
	tampered           map[uint32]bool
	baseline           *refSnap
}

type refSnap struct {
	ins, sec []uint32
	tampered map[uint32]bool
}

func newRefMem(p *Physical) *refMem {
	l := p.Layout()
	ni, ns := int(l.InsecureSize/PageSize), int(l.SecureSize/PageSize)
	return &refMem{
		p:   p,
		ins: make([]uint32, ni*PageWords), sec: make([]uint32, ns*PageWords),
		dirtyIns: make([]bool, ni), dirtySec: make([]bool, ns),
		verIns: make([]uint64, ni), verSec: make([]uint64, ns),
		tampered: map[uint32]bool{},
	}
}

// slot returns the region arrays holding addr and the word index in them.
func (m *refMem) slot(addr uint32) (words []uint32, dirty []bool, ver []uint64, i int) {
	l := m.p.Layout()
	if m.p.InSecure(addr) {
		return m.sec, m.dirtySec, m.verSec, int(addr-l.SecureBase) / WordSize
	}
	return m.ins, m.dirtyIns, m.verIns, int(addr-l.InsecureBase) / WordSize
}

// write models one permitted word write (CPU, DMA or tamper).
func (m *refMem) write(addr, val uint32) {
	words, dirty, ver, i := m.slot(addr)
	words[i] = val
	dirty[i/PageWords] = true
	ver[i/PageWords]++
}

func (m *refMem) snapshot() *refSnap {
	s := &refSnap{ins: slices.Clone(m.ins), sec: slices.Clone(m.sec), tampered: maps.Clone(m.tampered)}
	m.baseline = s
	m.clearDirty()
	return s
}

func (m *refMem) clearDirty() {
	clear(m.dirtyIns)
	clear(m.dirtySec)
}

// restore models Restore: a delta bumps the dirty pages' versions, a full
// copy every page's. It reports whether the restore is a delta.
func (m *refMem) restore(s *refSnap, own bool) bool {
	delta := s == m.baseline
	for _, r := range []struct {
		dirty []bool
		ver   []uint64
	}{{m.dirtyIns, m.verIns}, {m.dirtySec, m.verSec}} {
		for pg := range r.ver {
			if !delta || r.dirty[pg] {
				r.ver[pg]++
			}
		}
	}
	copy(m.ins, s.ins)
	copy(m.sec, s.sec)
	m.tampered = map[uint32]bool{}
	maps.Copy(m.tampered, s.tampered)
	m.baseline = nil
	if own {
		m.baseline = s
	}
	m.clearDirty()
	return delta
}

// check compares p with the model: contents, dirty bits, page versions,
// integrity poison and Digest.
func (m *refMem) check(p *Physical) error {
	switch {
	case !slices.Equal(flat(p.ins.pages), m.ins) || !slices.Equal(flat(p.sec.pages), m.sec):
		return fmt.Errorf("memory contents differ")
	case !slices.Equal(p.ins.ver, m.verIns) || !slices.Equal(p.sec.ver, m.verSec):
		return fmt.Errorf("page versions differ")
	case len(p.tampered) != len(m.tampered) || (len(m.tampered) > 0 && !maps.Equal(p.tampered, m.tampered)):
		return fmt.Errorf("integrity poison %v, model %v", p.tampered, m.tampered)
	case p.Digest() != flatDigest(m.ins, m.sec):
		return fmt.Errorf("Digest %#x, flat FNV-1a %#x", p.Digest(), flatDigest(m.ins, m.sec))
	}
	for _, r := range []struct {
		dirty []uint64
		model []bool
	}{{p.ins.dirty, m.dirtyIns}, {p.sec.dirty, m.dirtySec}} {
		for pg, want := range r.model {
			if got := r.dirty[pg/64]>>(pg%64)&1 == 1; got != want {
				return fmt.Errorf("page %d dirty = %v, model %v", pg, got, want)
			}
		}
	}
	return nil
}

// TestPhysicalMatchesFlatModel drives a Physical and its flat reference
// model through the same seeded random operations: single and bulk writes
// (half of them zeros, so unallocated pages see zero writes, and bulk
// windows straddle page edges), tampering and snooping under ProtEncrypt,
// snapshots, own and foreign restores, rebases and export/import round
// trips. After every step contents, page versions, dirty bits, poison and
// Digest must match the model, and every live snapshot its model copy.
func TestPhysicalMatchesFlatModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		p := newSmallMem(t)
		m := newRefMem(p)
		r := rand.New(rand.NewSource(seed))
		l := p.Layout()

		foreign := newSmallMem(t)
		randomDirty(t, foreign, r, 200)
		foreignSnap := foreign.Snapshot()
		foreignRef := &refSnap{ins: flat(foreign.ins.pages), sec: flat(foreign.sec.pages), tampered: map[uint32]bool{}}

		// snaps and refs pair each live snapshot of p with its model.
		var snaps []*MemSnapshot
		var refs []*refSnap
		val := func() uint32 {
			if r.Intn(2) == 0 {
				return 0
			}
			return r.Uint32()
		}
		addr := func(secure bool) uint32 {
			if secure {
				return l.SecureBase + uint32(r.Intn(int(l.SecureSize/WordSize)))*WordSize
			}
			return l.InsecureBase + uint32(r.Intn(int(l.InsecureSize/WordSize)))*WordSize
		}
		var deltas, fulls, folds int

		for step := 0; step < 600; step++ {
			var what string
			switch op := r.Intn(12); op {
			case 0, 1, 2:
				what = "Write"
				secure := r.Intn(2) == 0
				a, v := addr(secure), val()
				w := Normal
				if secure {
					w = Secure
					delete(m.tampered, a)
				}
				if err := p.Write(a, v, w); err != nil {
					t.Fatal(err)
				}
				m.write(a, v)
			case 3, 4:
				what = "WriteWords"
				secure := r.Intn(2) == 0
				base, size, w := l.InsecureBase, l.InsecureSize, Normal
				if secure {
					base, size, w = l.SecureBase, l.SecureSize, Secure
				}
				// A window ending up to two pages past a random page edge,
				// clipped to the region.
				edge := base + uint32(1+r.Intn(int(size/PageSize)-1))*PageSize
				start := edge - uint32(r.Intn(PageWords))*WordSize
				n := min(1+r.Intn(2*PageWords), int(base+size-start)/WordSize)
				src := make([]uint32, n)
				if r.Intn(2) == 0 {
					for i := range src {
						src[i] = val()
					}
				}
				if err := p.WriteWords(start, src, w); err != nil {
					t.Fatal(err)
				}
				for i, v := range src {
					a := start + uint32(i*WordSize)
					if secure {
						delete(m.tampered, a)
					}
					m.write(a, v)
				}
				got := make([]uint32, n)
				if err := p.ReadWords(start, got, w); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, src) {
					t.Fatalf("seed %d step %d: ReadWords after WriteWords read other words", seed, step)
				}
			case 5:
				what = "TamperDRAM/SnoopDRAM"
				a, raw := addr(true), r.Uint32()
				if err := p.TamperDRAM(a, raw); err != nil {
					t.Fatal(err)
				}
				m.write(a, raw^p.keystream(a))
				m.tampered[a] = true
				snooped, err := p.SnoopDRAM(a)
				if err != nil || snooped != raw {
					t.Fatalf("seed %d step %d: snoop after tamper = %#x, %v; want %#x", seed, step, snooped, err, raw)
				}
				b := addr(true)
				words, _, _, i := m.slot(b)
				if snooped, err := p.SnoopDRAM(b); err != nil || snooped != words[i]^p.keystream(b) {
					t.Fatalf("seed %d step %d: snoop %#x = %#x, %v; want ciphertext of %#x", seed, step, b, snooped, err, words[i])
				}
			case 6:
				what = "Snapshot"
				snaps = append(snaps, p.Snapshot())
				refs = append(refs, m.snapshot())
				if len(snaps) > 3 {
					snaps, refs = snaps[1:], refs[1:]
				}
			case 7, 8:
				what = "Restore(own)"
				if len(snaps) == 0 {
					continue
				}
				i := r.Intn(len(snaps))
				before := p.RestoreStats()
				if err := p.Restore(snaps[i]); err != nil {
					t.Fatal(err)
				}
				delta := m.restore(refs[i], true)
				if got := p.RestoreStats().DeltaRestores > before.DeltaRestores; got != delta {
					t.Fatalf("seed %d step %d: delta restore = %v, model %v", seed, step, got, delta)
				}
				if delta {
					deltas++
				} else {
					fulls++
				}
			case 9:
				what = "Restore(foreign)"
				if err := p.Restore(foreignSnap); err != nil {
					t.Fatal(err)
				}
				m.restore(foreignRef, false)
			case 10:
				what = "Rebase"
				if len(snaps) == 0 {
					continue
				}
				i := r.Intn(len(snaps))
				ok := p.Rebase(snaps[i])
				if want := refs[i] == m.baseline; ok != want {
					t.Fatalf("seed %d step %d: Rebase = %v, model baseline %v", seed, step, ok, want)
				}
				if ok {
					refs[i].ins, refs[i].sec = slices.Clone(m.ins), slices.Clone(m.sec)
					refs[i].tampered = maps.Clone(m.tampered)
					m.clearDirty()
					folds++
				}
			default:
				what = "ImportPages(ExportPages())"
				if err := p.ImportPages(p.ExportPages()); err != nil {
					t.Fatal(err)
				}
				m.restore(&refSnap{ins: m.ins, sec: m.sec}, false)
			}
			if err := m.check(p); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, what, err)
			}
			for i, s := range snaps {
				if !slices.Equal(flat(s.ins), refs[i].ins) || !slices.Equal(flat(s.sec), refs[i].sec) {
					t.Fatalf("seed %d step %d (%s): snapshot %d differs from its model", seed, step, what, i)
				}
			}
		}
		if deltas == 0 || fulls == 0 || folds == 0 {
			t.Fatalf("seed %d: %d delta, %d full restores, %d folds; the steps must exercise all three", seed, deltas, fulls, folds)
		}
	}
}

// TestDigestMatchesFlatDefaultLayout: on the full default layout, where
// almost every page is unallocated, Digest still equals FNV-1a over all
// 17 MB of words.
func TestDigestMatchesFlatDefaultLayout(t *testing.T) {
	p := newTestMem(t, ProtFilter)
	l := p.Layout()
	p.Write(l.InsecureBase+5*PageSize+8, 0xabc, Normal)
	p.Write(l.InsecureBase+l.InsecureSize-4, 7, Normal)
	p.Write(l.SecureBase+4, 0xfeed, Secure)
	p.Write(l.SecureBase+9*PageSize, 0, Secure) // a zero write allocates nothing
	if p.sec.pages[9] != nil {
		t.Fatal("zero write allocated a page")
	}
	if got, want := p.Digest(), flatDigest(flat(p.ins.pages), flat(p.sec.pages)); got != want {
		t.Fatalf("Digest %#x, flat FNV-1a %#x", got, want)
	}
}

// TestSteadyStateRestoreAndRebaseAllocateNothing: the serving cycle of
// writes, rebase of the golden snapshot, more writes and a delta restore
// allocates nothing once the pages it writes exist, even where those
// pages were unallocated when the golden was taken.
func TestSteadyStateRestoreAndRebaseAllocateNothing(t *testing.T) {
	p := newSmallMem(t)
	l := p.Layout()
	r := rand.New(rand.NewSource(9))
	randomDirty(t, p, r, 50)
	golden := p.Snapshot()
	buf := make([]uint32, PageWords+10)
	var n uint32
	step := func() {
		n++
		for i := range buf {
			buf[i] = n + uint32(i)
		}
		p.Write(l.InsecureBase+7*PageSize, n, Normal)
		if err := p.WriteWords(l.SecureBase+2*PageSize-40, buf, Secure); err != nil {
			t.Fatal(err)
		}
		if !p.Rebase(golden) {
			t.Fatal("golden stopped being the baseline")
		}
		p.Write(l.InsecureBase+30*PageSize+4, n, Normal)
		p.Write(l.SecureBase+12*PageSize, n, Secure)
		if err := p.Restore(golden); err != nil {
			t.Fatal(err)
		}
	}
	before := p.RestoreStats().DeltaRestores
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Fatalf("rebase + delta restore cycle allocated %.1f objects/op, want 0", allocs)
	}
	if got := p.RestoreStats().DeltaRestores - before; got != 51 {
		t.Fatalf("%d delta restores in 51 cycles", got)
	}
}

func BenchmarkDigest(b *testing.B) {
	p := bootLikeMem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDigest = p.Digest()
	}
}

// TestExportPagesAllocatesOnce: exporting a boot-like memory is a single
// allocation, and the images come insecure region first, in page order,
// each equal to its backing page. Zero pages are left out, and a memory
// with none but zero pages exports nil.
func TestExportPagesAllocatesOnce(t *testing.T) {
	p := bootLikeMem(t)
	if allocs := testing.AllocsPerRun(20, func() { sinkPages = p.ExportPages() }); allocs != 1 {
		t.Fatalf("ExportPages allocated %.1f objects/op, want 1", allocs)
	}
	l := p.Layout()
	p.Write(l.SecureBase+2*PageSize+8, 1, Secure) // allocates a page...
	p.Write(l.SecureBase+2*PageSize+8, 0, Secure) // ...that ends up zero
	got := p.ExportPages()
	if len(got) != 26 {
		t.Fatalf("exported %d pages, want 26", len(got))
	}
	for i, img := range got {
		if i > 0 && !(got[i-1].Secure == img.Secure && got[i-1].Page < img.Page || !got[i-1].Secure && img.Secure) {
			t.Fatalf("image %d (%v, page %d) out of order", i, img.Secure, img.Page)
		}
		if pg := p.region(img.Secure).pages[img.Page]; pg == nil || img.Words != *pg {
			t.Fatalf("image %d differs from its backing page", i)
		}
	}
	empty := newSmallMem(t)
	empty.Write(empty.Layout().InsecureBase, 1, Normal)
	empty.Write(empty.Layout().InsecureBase, 0, Normal)
	if got := empty.ExportPages(); got != nil {
		t.Fatalf("zero memory exported %d pages, want nil", len(got))
	}
}

func BenchmarkExportPages(b *testing.B) {
	p := bootLikeMem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPages = p.ExportPages()
	}
}

var (
	sinkDigest uint64
	sinkPages  []PageImage
)

// bootLikeMem is a default-layout Physical with as many written pages as
// a booted serving board: 26, spread over both regions.
func bootLikeMem(b testing.TB) *Physical {
	p, err := NewPhysical(DefaultLayout())
	if err != nil {
		b.Fatal(err)
	}
	l := p.Layout()
	for i := uint32(0); i < 26; i++ {
		a := l.InsecureBase + i*37*PageSize
		w := Normal
		if i%2 == 1 {
			a, w = l.SecureBase+i*PageSize, Secure
		}
		for j := uint32(0); j < PageWords; j += 3 {
			p.Write(a+j*WordSize, i<<16|j, w)
		}
	}
	return p
}
