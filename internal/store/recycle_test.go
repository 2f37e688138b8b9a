package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// Recycled-log recovery. Compact rewinds the WAL behind a generation
// frame, so frames of earlier generations stay on disk behind the live
// tail. With equal-size records every generation's frames start at the
// same offsets (24 + k·F after a generation frame), so a leftover frame
// sits exactly where recovery looks for the next record: only the seq
// rule keeps it out. Each test below builds that layout and fails on a
// recovery without the rule.

const (
	recPayload = 40                                // payload bytes of every record
	recFrame   = headBytes + recPayload + crcBytes // its frame size
	genFrame   = headBytes + crcBytes              // the generation frame's size
)

func payloadFor(seq uint64) []byte { return bytes.Repeat([]byte{byte(seq)}, recPayload) }

// appendN appends n equal-size records and returns their seqs.
func appendN(t *testing.T, s *Store, n int) []uint64 {
	t.Helper()
	var seqs []uint64
	for i := 0; i < n; i++ {
		seq, err := s.Append(1, payloadFor(s.seq+1))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	return seqs
}

// recycledLog builds a log that went through two compactions: 6 records,
// Compact, 6 records, Compact, then live records appended after the
// second generation frame. Behind them lie aligned, intact leftovers of
// the previous generation (seqs ≤ 12).
func recycledLog(t *testing.T, dir string, live int, opts ...Option) *Store {
	t.Helper()
	s, err := Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		appendN(t, s, 6)
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	appendN(t, s, live)
	return s
}

func readWAL(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// openBytes writes wal as a fresh directory's log and opens it.
func openBytes(t *testing.T, wal []byte) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

// checkSeqs fails unless the store holds exactly the records want, in
// order, each with the payload appendN gave it.
func checkSeqs(t *testing.T, what string, s *Store, want ...uint64) {
	t.Helper()
	recs := s.Records()
	got := make([]uint64, len(recs))
	for i, r := range recs {
		got[i] = r.Seq
		if !bytes.Equal(r.Payload, payloadFor(r.Seq)) {
			t.Fatalf("%s: record %d has the wrong payload", what, r.Seq)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: recovered seqs %v, want %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: recovered seqs %v, want %v", what, got, want)
		}
	}
}

// appendReopen appends one record, closes and reopens the store, and
// checks that the log is the old records plus the new one.
func appendReopen(t *testing.T, what string, s *Store, dir string) {
	t.Helper()
	var want []uint64
	for _, r := range s.Records() {
		want = append(want, r.Seq)
	}
	seq, err := s.Append(1, payloadFor(s.seq+1))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkSeqs(t, what+", appended and reopened", r, append(want, seq)...)
}

// TestRecycledCleanReopen: a cleanly closed recycled log reopens with
// every record, without writing: the file keeps its size and nothing is
// truncated. The next append overwrites the leftovers in place.
func TestRecycledCleanReopen(t *testing.T) {
	dir := t.TempDir()
	s := recycledLog(t, dir, 3)
	s.Close()
	before := readWAL(t, dir)
	if want := genFrame + 6*recFrame; len(before) != want {
		t.Fatalf("recycled log is %d bytes, want its high-water mark %d", len(before), want)
	}

	r := openT(t, dir)
	checkSeqs(t, "reopen", r, 13, 14, 15)
	if info := r.Recovery(); info.Records != 3 || info.TruncatedBytes != 0 {
		t.Fatalf("recovery %+v, want 3 records and nothing truncated", info)
	}
	if !bytes.Equal(readWAL(t, dir), before) {
		t.Fatal("reopening a clean recycled log changed the file")
	}
	if _, err := r.Append(1, payloadFor(16)); err != nil {
		t.Fatal(err)
	}
	after := readWAL(t, dir)
	if len(after) != len(before) {
		t.Fatalf("append grew the recycled log from %d to %d bytes", len(before), len(after))
	}
	tail := genFrame + 3*recFrame
	if want := appendFrame(nil, 16, 1, payloadFor(16)); !bytes.Equal(after[tail:tail+recFrame], want) {
		t.Fatal("append did not overwrite the leftover right behind the live tail")
	}
	r.Close()
	checkSeqs(t, "second reopen", openT(t, dir), 13, 14, 15, 16)
}

// TestCompactCrashBeforeAppend: a crash right after Compact leaves an
// empty live log. Recovery keeps the seq, so the next record continues
// the sequence instead of restarting it.
func TestCompactCrashBeforeAppend(t *testing.T) {
	dir := t.TempDir()
	s := recycledLog(t, dir, 0)
	s.Close()
	r := openT(t, dir)
	checkSeqs(t, "after compact", r)
	if info := r.Recovery(); info.TruncatedBytes != 0 {
		t.Fatalf("recovery %+v truncated a compacted log", info)
	}
	if seq, err := r.Append(1, payloadFor(13)); err != nil || seq != 13 {
		t.Fatalf("append after compact: seq=%d err=%v, want 13", seq, err)
	}
	r.Close()
	checkSeqs(t, "reopen", openT(t, dir), 13)
}

// TestTornGenerationFrameEveryOffset tears Compact's generation-frame
// write at every byte, over a never-compacted log and over a recycled
// one. Recovery either sees the old log (the torn bytes matched it), the
// new empty generation, or a corrupt first frame; in the last case it
// falls back to an empty log, which the caller's snapshot covers. It
// never returns a mixed or out-of-order log, and the next append always
// survives a reopen.
func TestTornGenerationFrameEveryOffset(t *testing.T) {
	for _, recycled := range []bool{false, true} {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if recycled {
			appendN(t, s, 6)
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		old := appendN(t, s, 4)
		pre := readWAL(t, dir)
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		post := readWAL(t, dir)
		last := old[len(old)-1]

		for k := 0; k <= genFrame; k++ {
			torn := append(append([]byte(nil), post[:k]...), pre[k:]...)
			r, rdir := openBytes(t, torn)
			got := r.Records()
			switch {
			case k == genFrame:
				checkSeqs(t, "whole generation frame", r)
				if r.seq != last || r.Recovery().TruncatedBytes != 0 {
					t.Fatalf("k=%d: seq %d, recovery %+v; want seq %d, nothing truncated", k, r.seq, r.Recovery(), last)
				}
			case bytes.Equal(torn[:genFrame], pre[:genFrame]):
				checkSeqs(t, "torn bytes matched the old frame", r, old...)
			case len(got) != 0:
				t.Fatalf("k=%d: a corrupt first frame recovered %d records", k, len(got))
			}
			appendReopen(t, "torn generation frame", r, rdir)
		}
	}
}

// TestTornAppendOverLeftoversEveryOffset tears an append over an aligned
// leftover at every byte: recovery keeps exactly the acknowledged
// records, truncates nothing, and the next append survives a reopen.
func TestTornAppendOverLeftoversEveryOffset(t *testing.T) {
	dir := t.TempDir()
	s := recycledLog(t, dir, 2)
	s.Close()
	base := readWAL(t, dir)
	frame := appendFrame(nil, 15, 1, payloadFor(15))
	tail := genFrame + 2*recFrame
	for k := 0; k <= len(frame); k++ {
		torn := append([]byte(nil), base...)
		copy(torn[tail:], frame[:k])
		r, rdir := openBytes(t, torn)
		want := []uint64{13, 14}
		if k == len(frame) {
			want = append(want, 15)
		}
		checkSeqs(t, "torn append", r, want...)
		if info := r.Recovery(); info.TruncatedBytes != 0 {
			t.Fatalf("k=%d: recovery %+v truncated a recycled log", k, info)
		}
		appendReopen(t, "torn append", r, rdir)
	}
}

// TestTornGroupOverLeftoversEveryOffset is TestTornGroupTailEveryOffset
// over leftovers: a commit group of three is written over an aligned
// leftover generation and cut at every byte, the rest of the file being
// the leftovers it was overwriting. Recovery keeps the acknowledged
// records plus the group's intact prefix, and nothing behind it.
func TestTornGroupOverLeftoversEveryOffset(t *testing.T) {
	dir := t.TempDir()
	var syncs atomic.Int32
	gate := make(chan struct{})
	armed := false
	s := recycledLog(t, dir, 1, WithGroupCommit(), WithSync(func(f *os.File) error {
		if armed && syncs.Add(1) == 1 {
			<-gate // hold one commit so the next appends form one group
		}
		return f.Sync()
	}))
	base := readWAL(t, dir)
	armed = true
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Append(1, payloadFor(14)); err != nil {
			t.Errorf("append 14: %v", err)
		}
	}()
	waitFor(t, func() bool { return syncs.Load() == 1 })
	// The members race for queue order, so no payload could name its
	// seq: they share one, and its size keeps the frame boundaries fixed.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Append(1, payloadFor(0)); err != nil {
				t.Errorf("group append: %v", err)
			}
		}()
	}
	waitFor(t, func() bool {
		s.gmu.Lock()
		defer s.gmu.Unlock()
		return len(s.gq) == 3
	})
	close(gate)
	wg.Wait()
	if st := s.Stats(); st.GroupSizeMax != 3 {
		t.Fatalf("stats %+v: the gated appends did not form one group of 3", st)
	}
	s.Close()
	full := readWAL(t, dir)
	if len(full) != len(base) {
		t.Fatalf("the group grew the recycled log from %d to %d bytes", len(base), len(full))
	}
	start := genFrame + 2*recFrame // behind seqs 13 and 14
	for n := 0; n <= 3*recFrame; n++ {
		torn := append([]byte(nil), base...)
		copy(torn, full[:start+n])
		r, _ := openBytes(t, torn)
		want := 2 + n/recFrame
		recs := r.Records()
		if len(recs) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", n, len(recs), want)
		}
		for i, rec := range recs {
			if rec.Seq != uint64(13+i) {
				t.Fatalf("cut %d: record %d has seq %d", n, i, rec.Seq)
			}
		}
		if info := r.Recovery(); info.TruncatedBytes != 0 {
			t.Fatalf("cut %d: recovery %+v truncated a recycled log", n, info)
		}
		r.Close()
	}
}

// TestTornGroupLaterMemberIntact: a group write torn out of order leaves
// its first member corrupt and a later one intact. The seq rule alone
// would not fence that member: once the next append refilled the first
// slot, it would read as in sequence and resurrect a record that was
// never acknowledged. Recovery cuts the log at the torn member instead.
func TestTornGroupLaterMemberIntact(t *testing.T) {
	dir := t.TempDir()
	s := recycledLog(t, dir, 1)
	s.Close()
	torn := readWAL(t, dir)
	tail := genFrame + recFrame
	for i, seq := range []uint64{14, 15, 16} {
		copy(torn[tail+i*recFrame:], appendFrame(nil, seq, 1, payloadFor(seq)))
	}
	torn[tail+headBytes] ^= 0xff // the first member's payload never landed
	r, rdir := openBytes(t, torn)
	checkSeqs(t, "torn group", r, 13)
	if want := int64(len(torn) - tail); r.Recovery().TruncatedBytes != want {
		t.Fatalf("recovery %+v, want the %d bytes behind seq 13 cut", r.Recovery(), want)
	}
	appendReopen(t, "torn group", r, rdir)
}

// FuzzRecover opens arbitrary wal.log bytes. Open must not panic, the
// recovered seqs must be consecutive, and one Append plus a reopen must
// give back the old records plus the new one.
func FuzzRecover(f *testing.F) {
	f.Add([]byte{})
	for _, live := range []int{0, 2} {
		dir := f.TempDir()
		s, err := Open(dir)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			for j := 0; j < 3; j++ {
				if _, err := s.Append(1, payloadFor(s.seq+1)); err != nil {
					f.Fatal(err)
				}
			}
			if err := s.Compact(); err != nil {
				f.Fatal(err)
			}
		}
		for j := 0; j < live; j++ {
			if _, err := s.Append(2, []byte("live")); err != nil {
				f.Fatal(err)
			}
		}
		s.Close()
		b, err := os.ReadFile(filepath.Join(dir, walName))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, wal []byte) {
		s, dir := openBytes(t, wal)
		old := s.Records()
		for i := 1; i < len(old); i++ {
			if old[i].Seq != old[i-1].Seq+1 {
				s.Close()
				t.Fatalf("recovered seqs %d then %d", old[i-1].Seq, old[i].Seq)
			}
		}
		seq, err := s.Append(7, []byte("new"))
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		want := append(append([]Record(nil), old...), Record{Seq: seq, Kind: 7, Payload: []byte("new")})
		got := r.Records()
		if len(got) != len(want) {
			t.Fatalf("reopened %d records, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Seq != want[i].Seq || got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Payload, want[i].Payload) {
				t.Fatalf("record %d: reopened %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}

// TestLaterFrameAcrossChunks places the intact later frame of a torn
// group at every offset around the boundary of recovery's scan chunks:
// recovery must find it wherever its magic falls.
func TestLaterFrameAcrossChunks(t *testing.T) {
	gen := appendFrame(nil, 5, genKind, nil)
	later := appendFrame(nil, 7, 1, payloadFor(7))
	for at := genFrame + 64<<10 - 6; at <= genFrame+64<<10+2; at++ {
		wal := make([]byte, at+len(later)+100)
		copy(wal, gen)
		copy(wal[at:], later)
		r, _ := openBytes(t, wal)
		if got, want := r.Recovery().TruncatedBytes, int64(len(wal)-genFrame); got != want {
			t.Fatalf("frame at %d: truncated %d bytes, want %d", at, got, want)
		}
		r.Close()
	}
}

// TestReservedKindRejected: the generation frame's kind is the store's
// own. A record of that kind would read as a misplaced generation frame
// and stop recovery, so Append refuses it.
func TestReservedKindRejected(t *testing.T) {
	s := openT(t, t.TempDir())
	if _, err := s.Append(genKind, nil); !errors.Is(err, ErrReservedKind) {
		t.Fatalf("append of the generation kind: %v, want ErrReservedKind", err)
	}
}
