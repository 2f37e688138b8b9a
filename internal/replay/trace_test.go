package replay_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"repro/internal/replay"
)

// encodedTrace returns a small recorded trace in wire form.
func encodedTrace(t testing.TB) []byte {
	t.Helper()
	trace := record(t, 5)
	var buf bytes.Buffer
	if err := replay.WriteTrace(&buf, trace); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceTruncationFailsClosed: every strict prefix of a valid trace must
// be rejected (sampled — whole-byte sweep over megabytes is too slow).
func TestTraceTruncationFailsClosed(t *testing.T) {
	raw := encodedTrace(t)
	cuts := []int{0, 1, 3, 4, 7, 8, 11, 12, 16, 32}
	for n := 64; n < len(raw); n += len(raw)/37 + 1 {
		cuts = append(cuts, n)
	}
	cuts = append(cuts, len(raw)-1)
	for _, n := range cuts {
		if n >= len(raw) {
			continue
		}
		if _, err := replay.ReadTrace(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", n, len(raw))
		}
	}
	// Trailing garbage after the End frame is also rejected.
	if _, err := replay.ReadTrace(bytes.NewReader(append(append([]byte{}, raw...), 0))); err == nil {
		t.Fatal("trailing byte after End frame accepted")
	}
}

// TestTraceTamperFailsClosed: single-byte corruption anywhere must be caught
// by the CRC framing (or the preamble check). Sampled byte positions.
func TestTraceTamperFailsClosed(t *testing.T) {
	raw := encodedTrace(t)
	positions := []int{}
	for i := 0; i < len(raw) && i < 64; i++ {
		positions = append(positions, i)
	}
	for i := 64; i < len(raw); i += 1009 {
		positions = append(positions, i)
	}
	for i := len(raw) - 64; i < len(raw); i++ {
		if i >= 64 {
			positions = append(positions, i)
		}
	}
	for _, pos := range positions {
		mut := append([]byte{}, raw...)
		mut[pos] ^= 0x40
		tr, err := replay.ReadTrace(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("flipped byte %d/%d accepted", pos, len(raw))
		}
		if tr != nil {
			t.Fatalf("flipped byte %d returned a trace alongside the error", pos)
		}
		if !errors.Is(err, replay.ErrBadTrace) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("flipped byte %d: unexpected error class %v", pos, err)
		}
	}
}

// headerFlags is the offset of the boot-flags byte in an encoded trace:
// the 8-byte preamble, the header frame's length and CRC words, then the
// frame type, the u64 seed and the u8 protection.
const headerFlags = 8 + 8 + 1 + 8 + 1

// withHeaderFlags returns a copy of an encoded trace with bits set in its
// header's boot flags and the header frame's CRC recomputed.
func withHeaderFlags(raw []byte, bits byte) []byte {
	out := append([]byte{}, raw...)
	out[headerFlags] |= bits
	n := binary.LittleEndian.Uint32(out[8:])
	binary.LittleEndian.PutUint32(out[12:], crc32.ChecksumIEEE(out[16:16+n]))
	return out
}

// FuzzReplay feeds arbitrary bytes to the trace decoder: it must never
// panic, and anything it does accept must round-trip stably. Flag bit 3
// (the deleted predecode cache's switch) is accepted on input and never
// written back.
func FuzzReplay(f *testing.F) {
	raw := encodedTrace(f)
	f.Add(raw)
	f.Add([]byte{})
	f.Add([]byte("KREC"))
	f.Add(raw[:len(raw)/2])
	short := append([]byte{}, raw...)
	short[len(short)/3] ^= 0xff
	f.Add(short)
	f.Add(withHeaderFlags(raw, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := replay.ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		// An accepted trace must re-encode and decode to the same value.
		var buf bytes.Buffer
		if err := replay.WriteTrace(&buf, tr); err != nil {
			t.Fatalf("accepted trace failed to re-encode: %v", err)
		}
		if buf.Bytes()[headerFlags]&8 != 0 {
			t.Fatal("re-encoded trace sets header flag bit 3")
		}
		if _, err := replay.ReadTrace(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
	})
}
