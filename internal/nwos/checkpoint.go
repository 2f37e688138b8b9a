package nwos

// Checkpoint/restore driving: the OS stages sealed blobs in insecure
// scratch memory and donates free pages for restore, mirroring how the
// paper's OS drives enclave construction. The blob itself is opaque to
// the OS (sealed by the monitor); the Manifest carries the bookkeeping
// the OS needs to re-address the enclave after restore — page counts and
// the role of each logical page. Nothing in the manifest is trusted by
// the monitor: lying about it only makes the restore SMC fail.

import (
	"fmt"
	"slices"

	"repro/internal/kapi"
	"repro/internal/mem"
	"repro/internal/pagedb"
	"repro/internal/seal"
	"repro/internal/telemetry"
)

// L2Slot names an L2 page table by the L1 slot it serves and its logical
// page index within the checkpoint image.
type L2Slot struct {
	L1Index int `json:"l1_index"`
	Logical int `json:"logical"`
}

// Manifest is the OS-side companion of a sealed checkpoint blob: which
// logical image page plays which role. Logical page i is the i-th page
// owned by the address space in ascending page-number order at
// checkpoint time (the image's canonical ordering, internal/seal).
type Manifest struct {
	NumPages int      `json:"num_pages"` // logical pages, excluding the addrspace
	L1       int      `json:"l1"`        // logical index of the L1 table, -1 if none
	Threads  []int    `json:"threads"`   // logical indices, primary first
	L2       []L2Slot `json:"l2"`
	Data     []int    `json:"data"`
	Spares   []int    `json:"spares"`
	// SharedPA preserves the insecure bases of shared mappings (the
	// mappings themselves travel inside the image).
	SharedPA []uint32 `json:"shared_pa,omitempty"`
}

// manifestFor derives the manifest from the OS's own bookkeeping of e.
func manifestFor(e *Enclave) Manifest {
	owned := make([]pagedb.PageNr, 0, 1+len(e.Threads)+len(e.L2PTs)+len(e.Data)+len(e.Spares))
	owned = append(owned, e.L1PT)
	owned = append(owned, e.Threads...)
	for _, l2 := range e.L2PTs {
		owned = append(owned, l2)
	}
	owned = append(owned, e.Data...)
	owned = append(owned, e.Spares...)
	slices.Sort(owned)
	logical := func(pg pagedb.PageNr) int {
		i, _ := slices.BinarySearch(owned, pg)
		return i
	}
	indices := func(pgs []pagedb.PageNr) []int {
		if len(pgs) == 0 {
			return nil
		}
		out := make([]int, len(pgs))
		for i, pg := range pgs {
			out[i] = logical(pg)
		}
		return out
	}

	m := Manifest{
		NumPages: len(owned),
		L1:       logical(e.L1PT),
		Threads:  indices(e.Threads),
		Data:     indices(e.Data),
		Spares:   indices(e.Spares),
	}
	for idx, l2 := range e.L2PTs {
		m.L2 = append(m.L2, L2Slot{L1Index: idx, Logical: logical(l2)})
	}
	slices.SortFunc(m.L2, func(a, b L2Slot) int { return a.L1Index - b.L1Index })
	m.SharedPA = append([]uint32(nil), e.SharedPA...)
	return m
}

// scratch returns a page-aligned insecure region of at least words
// words, reusing (and growing) one cached region so repeated
// checkpoints don't leak the bump allocator dry.
func (o *OS) scratch(words int) (uint32, error) {
	need := (words*4 + mem.PageSize - 1) / mem.PageSize
	if o.scratchPages < need {
		base, err := o.AllocInsecurePage()
		if err != nil {
			return 0, err
		}
		for i := 1; i < need; i++ {
			pa, err := o.AllocInsecurePage()
			if err != nil {
				return 0, err
			}
			if pa != base+uint32(i)*mem.PageSize {
				return 0, fmt.Errorf("nwos: scratch region not contiguous")
			}
		}
		o.scratchBase, o.scratchPages = base, need
	}
	return o.scratchBase, nil
}

// CheckpointEnclave seals a finalised (or stopped) enclave into a blob,
// returning the blob words and the manifest needed to restore it. The
// blob is read into blob's backing array, grown only if it is too short,
// so a caller that passes the previous blob back allocates nothing for
// it. The running enclave is left untouched.
func (o *OS) CheckpointEnclave(e *Enclave, blob []uint32) ([]uint32, Manifest, error) {
	man := manifestFor(e)
	maxWords := seal.ImageWords(len(e.Threads), 1, len(e.L2PTs), len(e.Data), len(e.Spares)) +
		seal.OverheadWords
	pa, err := o.scratch(maxWords)
	if err != nil {
		return nil, man, err
	}
	n, err := o.smc("Checkpoint", kapi.SMCCheckpoint, uint32(e.AS), pa, uint32(maxWords))
	if err != nil {
		return nil, man, err
	}
	blob = slices.Grow(blob[:0], int(n))[:n]
	if err := o.ReadInsecureInto(pa, blob); err != nil {
		return nil, man, err
	}
	o.tel.ObserveLifecycle(telemetry.LifeStop, uint32(e.AS)) // checkpoint taken
	return blob, man, nil
}

// RestoreEnclave donates fresh free pages and asks the monitor to
// re-instantiate the sealed blob onto them. On success it returns the
// restored enclave's new page bookkeeping (threads, page tables, data
// and spares re-addressed via the manifest).
func (o *OS) RestoreEnclave(blob []uint32, man Manifest) (*Enclave, error) {
	if man.NumPages <= 0 {
		return nil, fmt.Errorf("nwos: manifest names no pages")
	}
	nPages := 1 + man.NumPages

	// Stage the blob and the donated-page list in one scratch region:
	// the blob rounded up to whole pages, then the list page-aligned
	// after it.
	blobPages := (len(blob)*4 + mem.PageSize - 1) / mem.PageSize
	listPA0 := blobPages * mem.PageWords
	base, err := o.scratch(listPA0 + nPages)
	if err != nil {
		return nil, err
	}
	if err := o.WriteInsecure(base, blob); err != nil {
		return nil, err
	}

	pages := make([]pagedb.PageNr, nPages)
	for i := range pages {
		pg, err := o.AllocPage()
		if err != nil {
			for _, p := range pages[:i] {
				o.ReleasePage(p)
			}
			return nil, err
		}
		pages[i] = pg
	}
	list := make([]uint32, nPages)
	for i, pg := range pages {
		list[i] = uint32(pg)
	}
	listPA := base + uint32(listPA0*4)
	if err := o.WriteInsecure(listPA, list); err != nil {
		return nil, err
	}

	asVal, err := o.smc("Restore", kapi.SMCRestore, base, uint32(len(blob)), listPA, uint32(nPages))
	if err != nil {
		for _, p := range pages {
			o.ReleasePage(p)
		}
		return nil, err
	}
	if asVal != uint32(pages[0]) {
		return nil, fmt.Errorf("nwos: restore returned addrspace %d, donated %d", asVal, pages[0])
	}

	enc := &Enclave{
		AS:       pages[0],
		L2PTs:    make(map[int]pagedb.PageNr),
		SharedPA: append([]uint32(nil), man.SharedPA...),
	}
	at := func(logical int) (pagedb.PageNr, error) {
		if logical < 0 || logical >= man.NumPages {
			return 0, fmt.Errorf("nwos: manifest logical index %d out of range", logical)
		}
		return pages[1+logical], nil
	}
	if man.L1 >= 0 {
		if enc.L1PT, err = at(man.L1); err != nil {
			return nil, err
		}
	}
	for _, ti := range man.Threads {
		pg, err := at(ti)
		if err != nil {
			return nil, err
		}
		enc.Threads = append(enc.Threads, pg)
	}
	if len(enc.Threads) > 0 {
		enc.Thread = enc.Threads[0]
	}
	for _, s := range man.L2 {
		pg, err := at(s.Logical)
		if err != nil {
			return nil, err
		}
		enc.L2PTs[s.L1Index] = pg
	}
	for _, di := range man.Data {
		pg, err := at(di)
		if err != nil {
			return nil, err
		}
		enc.Data = append(enc.Data, pg)
	}
	for _, si := range man.Spares {
		pg, err := at(si)
		if err != nil {
			return nil, err
		}
		enc.Spares = append(enc.Spares, pg)
	}
	o.tel.ObserveLifecycle(telemetry.LifeInit, uint32(enc.AS))
	return enc, nil
}
