package nwos_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/board"
	"repro/internal/kapi"
	"repro/internal/kasm"
	"repro/internal/mem"
	"repro/internal/nwos"
)

// twin boots a board with a run notary enclave and baselines its
// dirty-page tracking. Two twins start out identical.
func twin(t *testing.T) (*board.Platform, *nwos.OS, *nwos.Enclave) {
	t.Helper()
	plat, err := board.Boot(board.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	o := nwos.New(plat.Machine, plat.Monitor, plat.Monitor.NPages())
	img, err := kasm.NotaryGuest(1).Image()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := o.BuildEnclave(img)
	if err != nil {
		t.Fatal(err)
	}
	if e, _, err := o.Enter(enc, 0); err != nil || e != kapi.ErrSuccess {
		t.Fatalf("notary: %v %v", e, err)
	}
	plat.Machine.Phys.Snapshot()
	return plat, o, enc
}

// sameMemory reports the first difference between two boards' memory:
// contents, dirty pages or any page's version.
func sameMemory(a, b *mem.Physical) error {
	if a.Digest() != b.Digest() {
		return fmt.Errorf("memory contents differ")
	}
	ai, as := a.DirtyPageList()
	bi, bs := b.DirtyPageList()
	if !slices.Equal(ai, bi) || !slices.Equal(as, bs) {
		return fmt.Errorf("dirty pages differ: insecure %v vs %v, secure %v vs %v", ai, bi, as, bs)
	}
	l := a.Layout()
	for _, r := range [][2]uint32{{l.InsecureBase, l.InsecureSize}, {l.SecureBase, l.SecureSize}} {
		for pa := r[0]; pa-r[0] < r[1]; pa += mem.PageSize {
			if a.PageVersion(pa) != b.PageVersion(pa) {
				return fmt.Errorf("page %#x version %d vs %d", pa, a.PageVersion(pa), b.PageVersion(pa))
			}
		}
	}
	return nil
}

// perWordWrite is the word-at-a-time copy that the bulk paths replaced.
func perWordWrite(p *mem.Physical, pa uint32, words []uint32, w mem.World) error {
	for i, v := range words {
		if err := p.Write(pa+uint32(i*4), v, w); err != nil {
			return err
		}
	}
	return nil
}

// perWordRead is the word-at-a-time read that ReadInsecure replaced; it
// returns the first error.
func perWordRead(p *mem.Physical, pa uint32, n int) error {
	for i := range n {
		if _, err := p.Read(pa+uint32(i*4), mem.Normal); err != nil {
			return err
		}
	}
	return nil
}

// boundaryLog is a tap that keeps the insecure-memory traffic and SMCs
// of the OS it watches.
type boundaryLog struct {
	smcs   [][]uint32 // call, then args
	writes []insecureWrite
	reads  []insecureWrite
}

type insecureWrite struct {
	pa    uint32
	words []uint32
}

func (l *boundaryLog) TapSMC(call uint32, args []uint32, _ kapi.Err, _ uint32, _ error) {
	l.smcs = append(l.smcs, append([]uint32{call}, args...))
}
func (l *boundaryLog) TapWriteInsecure(pa uint32, words []uint32, _ error) {
	l.writes = append(l.writes, insecureWrite{pa, slices.Clone(words)})
}
func (l *boundaryLog) TapReadInsecure(pa uint32, _ int, words []uint32, _ error) {
	l.reads = append(l.reads, insecureWrite{pa, slices.Clone(words)})
}
func (l *boundaryLog) TapScheduleIRQ(int64) {}

// TestBulkCopiesMatchPerWord checks the bulk blob moves against the
// per-word path on twin boards. Board a checkpoints and restores the
// notary as the OS does, with a tap logging its boundary traffic. Board
// b replays that traffic with every blob move done a word at a time:
// the monitor's blob write during the checkpoint, then the OS's staging
// of the blob and page list and the same restore SMC. After each step
// both boards must hold the same memory, dirty pages and page versions.
// OS-level copies of windows that run off the end of insecure RAM or
// into secure RAM must fail with the per-word path's error after
// writing the same prefix.
func TestBulkCopiesMatchPerWord(t *testing.T) {
	a, oa, ea := twin(t)
	b, ob, _ := twin(t)
	pa, pb := a.Machine.Phys, b.Machine.Phys
	log := &boundaryLog{}
	oa.SetTap(log)

	blob, man, err := oa.CheckpointEnclave(ea, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.smcs) != 1 || log.smcs[0][0] != kapi.SMCCheckpoint || len(log.reads) != 1 {
		t.Fatalf("checkpoint traffic: %d SMCs, %d reads", len(log.smcs), len(log.reads))
	}
	dest := log.smcs[0][2]
	if log.reads[0].pa != dest || !slices.Equal(log.reads[0].words, blob) {
		t.Fatal("the OS did not read the blob back from the checkpoint's window")
	}
	if err := perWordWrite(pb, dest, blob, mem.Secure); err != nil {
		t.Fatal(err)
	}
	if err := sameMemory(pa, pb); err != nil {
		t.Fatalf("after checkpoint: %v", err)
	}

	*log = boundaryLog{}
	if _, err := oa.RestoreEnclave(blob, man); err != nil {
		t.Fatal(err)
	}
	if len(log.writes) != 2 || len(log.smcs) != 1 || log.smcs[0][0] != kapi.SMCRestore {
		t.Fatalf("restore traffic: %d writes, %d SMCs", len(log.writes), len(log.smcs))
	}
	for _, w := range log.writes {
		if err := perWordWrite(pb, w.pa, w.words, mem.Normal); err != nil {
			t.Fatal(err)
		}
	}
	if e, _, err := ob.SMC(log.smcs[0][0], log.smcs[0][1:]...); err != nil || e != kapi.ErrSuccess {
		t.Fatalf("per-word restore: %v %v", e, err)
	}
	if err := sameMemory(pa, pb); err != nil {
		t.Fatalf("after restore: %v", err)
	}

	l := pa.Layout()
	words := make([]uint32, 3*mem.PageWords)
	for i := range words {
		words[i] = uint32(i) | 0xa000_0000
	}
	for _, start := range []uint32{
		l.InsecureBase + l.InsecureSize - mem.PageSize - 64, // runs off the end of insecure RAM
		l.SecureBase + 8, // starts in secure RAM
	} {
		errA := oa.WriteInsecure(start, words)
		errB := perWordWrite(pb, start, words, mem.Normal)
		if fmt.Sprint(errA) != fmt.Sprint(errB) || errA == nil {
			t.Fatalf("write at %#x: bulk error %v, per-word %v", start, errA, errB)
		}
		if err := sameMemory(pa, pb); err != nil {
			t.Fatalf("after failed write at %#x: %v", start, err)
		}
		_, errA = oa.ReadInsecure(start, len(words))
		if errB = perWordRead(pb, start, len(words)); fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Fatalf("read at %#x: bulk error %v, per-word %v", start, errA, errB)
		}
		if w, r := log.writes[len(log.writes)-1], log.reads[len(log.reads)-1]; w.pa != start || r.pa != start || r.words != nil {
			t.Fatalf("tap missed the failed copies at %#x", start)
		}
	}
}
