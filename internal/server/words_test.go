package server

import (
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sha2"
)

// wordsOf spreads the 64-bit seeds a and b over 8 words.
func wordsOf(a, b uint64) [8]uint32 {
	return [8]uint32{uint32(a), uint32(a >> 32), uint32(b), uint32(b >> 32),
		uint32(a ^ b), uint32(a + b), uint32(a * 3), ^uint32(b)}
}

// checkWords holds EncodeWords to the byte-for-byte output of the
// reference encoding and DecodeWords to its inverse.
func checkWords(t *testing.T, ws [8]uint32) {
	t.Helper()
	want := hex.EncodeToString(sha2.WordsToBytes(ws[:]))
	got := EncodeWords(ws)
	if got != want {
		t.Fatalf("EncodeWords(%08x) = %s, want %s", ws, got, want)
	}
	back, err := DecodeWords(got)
	if err != nil || back != ws {
		t.Fatalf("DecodeWords(%s) = %08x, %v, want %08x", got, back, err, ws)
	}
	if back, err := DecodeWords(strings.ToUpper(got)); err != nil || back != ws {
		t.Fatalf("DecodeWords(upper %s) = %08x, %v", got, back, err)
	}
}

func TestEncodeWordsMatchesReference(t *testing.T) {
	for _, ws := range [][8]uint32{
		{},
		{0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff},
		{0x01234567, 0x89abcdef, 0xfedcba98, 0x76543210, 0, 1, 0x80000000, 0x7fffffff},
		wordsOf(0xdeadbeefcafef00d, 0x0123456789abcdef),
	} {
		checkWords(t, ws)
	}
}

func FuzzEncodeWords(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(0xdeadbeefcafef00d), uint64(0x0123456789abcdef))
	f.Fuzz(func(t *testing.T, a, b uint64) { checkWords(t, wordsOf(a, b)) })
}

// TestDecodeWordsRejects: a string of the wrong length fails with the
// length error, and a malformed one of the right length with the error
// the reference decoding gives.
func TestDecodeWordsRejects(t *testing.T) {
	good := EncodeWords(wordsOf(1, 2))
	for _, s := range []string{"", "0", good[:62], good + "00", good[:63], "zz" + good[2:], good[:63] + "g"} {
		_, err := DecodeWords(s)
		if err == nil {
			t.Errorf("DecodeWords(%q) accepted", s)
			continue
		}
		want := fmt.Sprintf("server: want 64 hex chars, got %d", len(s))
		if _, herr := hex.DecodeString(s); len(s) == len(good) {
			want = herr.Error()
		}
		if err.Error() != want {
			t.Errorf("DecodeWords(%q): %v, want %s", s, err, want)
		}
	}
}

func TestWordsAllocations(t *testing.T) {
	if !allocFree {
		t.Skip("allocation counts are not asserted under -race")
	}
	ws := wordsOf(3, 4)
	s := EncodeWords(ws)
	if n := testing.AllocsPerRun(100, func() { s = EncodeWords(ws) }); n != 1 {
		t.Errorf("EncodeWords: %v allocations, want 1 (the string)", n)
	}
	if n := testing.AllocsPerRun(100, func() { ws, _ = DecodeWords(s) }); n != 0 {
		t.Errorf("DecodeWords: %v allocations, want 0", n)
	}
}
