package mem

import (
	"fmt"
	"maps"
	"slices"
	"testing"
)

// refWriteWords and refReadWords are the per-word loops that WriteWords
// and ReadWords replace.
func refWriteWords(p *Physical, addr uint32, src []uint32, w World) error {
	for i, v := range src {
		if err := p.Write(addr+uint32(i*WordSize), v, w); err != nil {
			return err
		}
	}
	return nil
}

func refReadWords(p *Physical, addr uint32, n int, w World) ([]uint32, error) {
	out := make([]uint32, n)
	for i := range out {
		v, err := p.Read(addr+uint32(i*WordSize), w)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// samePhysical reports the first difference between a and b in memory
// contents, dirty bits, page versions and integrity poison.
func samePhysical(a, b *Physical) error {
	switch {
	case !slices.Equal(flat(a.ins.pages), flat(b.ins.pages)) || !slices.Equal(flat(a.sec.pages), flat(b.sec.pages)):
		return fmt.Errorf("memory contents differ")
	case !slices.Equal(a.ins.dirty, b.ins.dirty) || !slices.Equal(a.sec.dirty, b.sec.dirty):
		return fmt.Errorf("dirty pages differ")
	case !slices.Equal(a.ins.ver, b.ins.ver) || !slices.Equal(a.sec.ver, b.sec.ver):
		return fmt.Errorf("page versions differ")
	case !maps.Equal(a.tampered, b.tampered) && len(a.tampered)+len(b.tampered) > 0:
		return fmt.Errorf("integrity poison differs")
	}
	return nil
}

// TestBulkCopyMatchesPerWord runs WriteWords and ReadWords against the
// per-word loops on twin memories, over windows that stay inside one
// region, cross pages, run off the end of insecure RAM, run from
// insecure into adjoining secure RAM, start unaligned or unmapped, wrap
// the address space, and cover poisoned secure words. Both must leave
// the same contents, dirty pages and page versions, read the same words,
// and fail with the same error after the same prefix.
func TestBulkCopyMatchesPerWord(t *testing.T) {
	// apart has the default layout's region bases; adjoining puts secure
	// RAM directly after insecure RAM, so a window can run from one into
	// the other. Both are small to keep the test fast.
	apart := Layout{InsecureBase: 0x8000_0000, InsecureSize: 64 * PageSize, SecureBase: 0x4000_0000, SecureSize: 64 * PageSize}
	adjoining := Layout{InsecureBase: 0x4000_0000, InsecureSize: 64 * PageSize, SecureBase: 0x4004_0000, SecureSize: 64 * PageSize}
	layouts := map[string]Layout{"apart": apart, "adjoining": adjoining}
	type window struct {
		name string
		addr func(l Layout) uint32
		n    int
	}
	windows := []window{
		{"insecure, one page", func(l Layout) uint32 { return l.InsecureBase + 2*PageSize }, PageWords},
		{"insecure, mid-page across 3 pages", func(l Layout) uint32 { return l.InsecureBase + PageSize + 40 }, 2*PageWords + 77},
		{"insecure, runs off the end", func(l Layout) uint32 { return l.InsecureBase + l.InsecureSize - 100*WordSize }, 300},
		{"secure, across pages", func(l Layout) uint32 { return l.SecureBase + 3*PageSize - 8 }, PageWords + 5},
		{"secure, runs off the end", func(l Layout) uint32 { return l.SecureBase + l.SecureSize - 8*WordSize }, 16},
		{"unaligned", func(l Layout) uint32 { return l.InsecureBase + 2 }, 8},
		{"unaligned at a page end", func(l Layout) uint32 { return l.InsecureBase + PageSize - 2 }, 8},
		{"unmapped", func(l Layout) uint32 { return 0x100 }, 8},
		{"wraps the address space", func(l Layout) uint32 { return 0xFFFF_FFF0 }, 8},
		{"empty", func(l Layout) uint32 { return l.InsecureBase }, 0},
	}
	for lname, l := range layouts {
		for _, prot := range []Protection{ProtFilter, ProtEncrypt} {
			for _, win := range windows {
				for _, w := range []World{Normal, Secure} {
					for _, poison := range []bool{false, true} {
						name := fmt.Sprintf("%s/%v/%s/%v/poison=%v", lname, prot, win.name, w, poison)
						l.Protection = prot
						mk := func() *Physical {
							p, err := NewPhysical(l)
							if err != nil {
								t.Fatal(err)
							}
							fillRegion(&p.ins, func(i int) uint32 { return uint32(i) * 0x9e3779b9 })
							fillRegion(&p.sec, func(i int) uint32 { return ^uint32(i) })
							if poison {
								p.TamperDRAM(l.SecureBase+3*PageSize+16, 1)
								p.TamperDRAM(l.SecureBase+l.SecureSize-4*WordSize, 2)
							}
							return p
						}
						addr := win.addr(l)
						src := make([]uint32, win.n)
						for i := range src {
							src[i] = uint32(i) + 0x5000_0000
						}

						ref, bulk := mk(), mk()
						wantWords, wantErr := refReadWords(ref, addr, win.n, w)
						got := make([]uint32, win.n)
						gotErr := bulk.ReadWords(addr, got, w)
						if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
							t.Fatalf("%s: ReadWords err %v, per-word %v", name, gotErr, wantErr)
						}
						if wantErr == nil && !slices.Equal(got, wantWords) {
							t.Fatalf("%s: ReadWords read different words", name)
						}

						wantErr = refWriteWords(ref, addr, src, w)
						gotErr = bulk.WriteWords(addr, src, w)
						if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
							t.Fatalf("%s: WriteWords err %v, per-word %v", name, gotErr, wantErr)
						}
						if err := samePhysical(ref, bulk); err != nil {
							t.Fatalf("%s: after WriteWords: %v", name, err)
						}
					}
				}
			}
		}
	}
}
