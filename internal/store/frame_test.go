package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
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
// encoding of s's records, whose payloads are byKind's, and that each
// live record aliases the caller's frame rather than a copy of it.
func checkFramesInPlace(t *testing.T, s *Store, dir string, byKind map[uint32][]byte, frames map[uint32][]byte) {
	t.Helper()
	var want []byte
	for _, r := range s.Records() {
		want = appendFrame(want, r.Seq, r.Kind, byKind[r.Kind])
		if f := frames[r.Kind]; f != nil && &r.Payload[0] != &f[FrameHead] {
			t.Errorf("record %d does not alias its caller's frame", r.Seq)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL of %d bytes differs from appendFrame's %d bytes", len(got), len(want))
	}
}

// TestAppendFrameInPlaceBytes: a frame the caller built in place reaches
// the WAL byte-identical to appendFrame's encoding of the same seq, kind
// and payload, appended alone, through Append's copy, and as a member of
// a real commit group of three.
func TestAppendFrameInPlaceBytes(t *testing.T) {
	t.Run("alone", func(t *testing.T) {
		dir := t.TempDir()
		s := openT(t, dir)
		byKind := map[uint32][]byte{}
		frames := map[uint32][]byte{}
		for kind := uint32(1); kind <= 4; kind++ {
			p := bytes.Repeat([]byte{byte(kind)}, int(kind)*13)
			byKind[kind] = p
			if kind == 3 { // the Append wrapper between in-place frames
				if _, err := s.Append(kind, p); err != nil {
					t.Fatal(err)
				}
				continue
			}
			frames[kind] = inPlaceFrame(p)
			if _, err := s.AppendFrame(kind, frames[kind]); err != nil {
				t.Fatal(err)
			}
		}
		checkFramesInPlace(t, s, dir, byKind, frames)
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
		appendKind := func(kind uint32) {
			defer wg.Done()
			if _, err := s.AppendFrame(kind, frames[kind]); err != nil {
				t.Errorf("append kind %d: %v", kind, err)
			}
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
		checkFramesInPlace(t, s, dir, byKind, frames)
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
