package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// inPlaceFrame builds what an AppendFrame caller builds: FrameHead free
// bytes, the payload, FrameTail free bytes. The free bytes hold junk, so
// a head or CRC byte the store fails to fill in shows up in the WAL.
func inPlaceFrame(payload []byte) []byte {
	frame := bytes.Repeat([]byte{0xA5}, FrameHead+len(payload)+FrameTail)
	copy(frame[FrameHead:], payload)
	return frame
}

// appendFrame appends one CRC-framed WAL record to dst, written out
// field by field apart from the store's putFrame, and returns the
// extended slice.
func appendFrame(dst []byte, seq uint64, kind uint32, payload []byte) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, recMagic)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, kind)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start+4:]))
}

// checkFramesInPlace checks that the WAL in dir is exactly appendFrame's
// encoding of the records appended as seqs (kind to seq) with byKind's
// payloads. It first scribbles over every frame the test handed
// AppendFrame, so a store that kept one, or wrote it late, shows up in
// the bytes. It then closes s and checks that reopening recovers the
// same records.
func checkFramesInPlace(t *testing.T, s *Store, dir string, seqs map[uint32]uint64, byKind map[uint32][]byte, frames map[uint32][]byte) {
	t.Helper()
	for _, f := range frames {
		for i := range f {
			f[i] = 0xFF
		}
	}
	var kinds []uint32
	for kind := range seqs {
		kinds = append(kinds, kind)
	}
	slices.SortFunc(kinds, func(a, b uint32) int { return cmp.Compare(seqs[a], seqs[b]) })
	var want []byte
	for _, kind := range kinds {
		want = appendFrame(want, seqs[kind], kind, byKind[kind])
	}
	got, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL of %d bytes differs from appendFrame's %d bytes", len(got), len(want))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recs := openT(t, dir).Records()
	if len(recs) != len(kinds) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(kinds))
	}
	for i, r := range recs {
		if r.Kind != kinds[i] || r.Seq != seqs[r.Kind] || !bytes.Equal(r.Payload, byKind[r.Kind]) {
			t.Errorf("recovered record %d is seq %d kind %d, want seq %d kind %d with its payload", i, r.Seq, r.Kind, seqs[kinds[i]], kinds[i])
		}
	}
}

// TestAppendFrameInPlaceBytes: a frame the caller built in place reaches
// the WAL byte-identical to appendFrame's encoding of the same seq, kind
// and payload, appended alone, through Append's copy, and as a member of
// a real commit group of three; the caller may reuse its frames once
// AppendFrame returns.
func TestAppendFrameInPlaceBytes(t *testing.T) {
	t.Run("alone", func(t *testing.T) {
		dir := t.TempDir()
		s := openT(t, dir)
		byKind := map[uint32][]byte{}
		frames := map[uint32][]byte{}
		seqs := map[uint32]uint64{}
		for kind := uint32(1); kind <= 4; kind++ {
			p := bytes.Repeat([]byte{byte(kind)}, int(kind)*13)
			byKind[kind] = p
			var err error
			if kind == 3 { // the Append wrapper between in-place frames
				seqs[kind], err = s.Append(kind, p)
			} else {
				frames[kind] = inPlaceFrame(p)
				seqs[kind], err = s.AppendFrame(kind, frames[kind])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		checkFramesInPlace(t, s, dir, seqs, byKind, frames)
	})

	t.Run("group", func(t *testing.T) {
		dir := t.TempDir()
		var syncs atomic.Int32
		gate := make(chan struct{})
		s := openT(t, dir, WithGroupCommit(), WithSync(func(f *os.File) error {
			if !isDir(f) && syncs.Add(1) == 1 {
				<-gate // hold the first commit so the next appends form one group
			}
			return f.Sync()
		}))
		byKind := map[uint32][]byte{}
		frames := map[uint32][]byte{}
		for kind := uint32(1); kind <= 4; kind++ {
			byKind[kind] = bytes.Repeat([]byte{byte(kind)}, 5+int(kind)*9)
			frames[kind] = inPlaceFrame(byKind[kind])
		}
		var wg sync.WaitGroup
		var seqByKind [5]uint64
		appendKind := func(kind uint32) {
			defer wg.Done()
			seq, err := s.AppendFrame(kind, frames[kind])
			if err != nil {
				t.Errorf("append kind %d: %v", kind, err)
			}
			seqByKind[kind] = seq
		}
		wg.Add(1)
		go appendKind(1)
		waitFor(t, func() bool { return syncs.Load() == 1 })
		for kind := uint32(2); kind <= 4; kind++ {
			wg.Add(1)
			go appendKind(kind)
		}
		waitFor(t, func() bool {
			s.gmu.Lock()
			defer s.gmu.Unlock()
			return len(s.gq) == 3
		})
		close(gate)
		wg.Wait()
		if st := s.Stats(); st.Groups != 2 || st.GroupSizeMax != 3 {
			t.Fatalf("stats %+v: want a group of 1 and a group of 3", st)
		}
		seqs := map[uint32]uint64{}
		for kind := uint32(1); kind <= 4; kind++ {
			seqs[kind] = seqByKind[kind]
		}
		checkFramesInPlace(t, s, dir, seqs, byKind, frames)
	})
}

// TestAppendFrameRejects: a buffer with no room for a frame's head and
// CRC, or one of the store's own kind, is refused before anything is
// written.
func TestAppendFrameRejects(t *testing.T) {
	s := openT(t, t.TempDir())
	if _, err := s.AppendFrame(1, make([]byte, FrameHead+FrameTail-1)); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("short frame: err = %v, want ErrShortFrame", err)
	}
	if _, err := s.AppendFrame(genKind, make([]byte, FrameHead+FrameTail)); !errors.Is(err, ErrReservedKind) {
		t.Fatalf("reserved kind: err = %v, want ErrReservedKind", err)
	}
	if st := s.Stats(); st.WALBytes != 0 || st.Appends != 0 {
		t.Fatalf("stats %+v after refused appends", st)
	}
	// An empty payload is a frame of exactly its head and CRC.
	if seq, err := s.AppendFrame(1, make([]byte, FrameHead+FrameTail)); err != nil || seq != 1 {
		t.Fatalf("empty payload: seq %d, err %v", seq, err)
	}
}
