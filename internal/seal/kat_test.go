package seal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// katBlobSHA256 is the SHA-256 of the big-endian encoding of the blob
// katBlob seals. It was generated before the keystream was rewritten to
// key its HMAC once per call, and pins the wire format: a WAL written by
// an older binary must still open under a newer one.
const katBlobSHA256 = "83412a89843e5a4be9f67e3cc3ef3fec5c955b920f9014e80c7334899b1ee2db"

// katKey, katWord and katBlob fix the key, the payload and the sealed
// blob. The payload length (61 words) is not a multiple of the 8-word
// keystream block, so the partial final block is covered too.
func katKey() (key [32]byte) {
	for i := range key {
		key[i] = byte(i)
	}
	return key
}

func katWord(i int) uint32 { return uint32(i) * 0x9e3779b9 }

func katBlob() []uint32 {
	payload := make([]uint32, 61)
	for i := range payload {
		payload[i] = katWord(i)
	}
	meas := [8]uint32{1, 2, 3, 4, 5, 6, 7, 8}
	return Seal(katKey(), [2]uint32{0x01234567, 0x89abcdef}, KindCheckpoint, meas, payload)
}

func TestSealKnownAnswer(t *testing.T) {
	blob := katBlob()
	raw := make([]byte, 4*len(blob))
	for i, w := range blob {
		binary.BigEndian.PutUint32(raw[4*i:], w)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != katBlobSHA256 {
		t.Fatalf("sealed blob digest = %s, want %s", got, katBlobSHA256)
	}
	_, payload, err := OpenWithKey(katKey(), blob)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range payload {
		if w != katWord(i) {
			t.Fatalf("payload word %d = %#x after round trip", i, w)
		}
	}
}

// TestKeystreamAllocationFree: the keystream keys its HMAC once per call
// on the stack and encodes each counter block in place, so it allocates
// nothing at any payload length.
func TestKeystreamAllocationFree(t *testing.T) {
	if !allocFree {
		t.Skip("under -race, crypto/sha256's state export allocates")
	}
	var key [32]byte
	short, long := make([]uint32, 8), make([]uint32, 8*64)
	a := testing.AllocsPerRun(20, func() { keystream(key, [2]uint32{1, 2}, short) })
	b := testing.AllocsPerRun(20, func() { keystream(key, [2]uint32{1, 2}, long) })
	if a != 0 || b != 0 {
		t.Fatalf("keystream allocs: %v for 1 block, %v for 64 blocks; want 0", a, b)
	}
}

// TestSealOpenAllocationsFlat: the tag pass streams the blob's words into
// the keyed inner hash instead of flattening them to bytes, so Seal (the
// blob) and Open (the payload) allocate as often for 4,096 payload words
// as for 8.
func TestSealOpenAllocationsFlat(t *testing.T) {
	if !allocFree {
		t.Skip("under -race, crypto/sha256's state export allocates")
	}
	var root [32]byte
	meas := [8]uint32{1, 2, 3, 4, 5, 6, 7, 8}
	key := DeriveKey(root, meas)
	counts := func(n int) (seal, open float64) {
		payload := make([]uint32, n)
		blob := Seal(key, [2]uint32{1, 2}, KindCheckpoint, meas, payload)
		seal = testing.AllocsPerRun(20, func() { Seal(key, [2]uint32{1, 2}, KindCheckpoint, meas, payload) })
		open = testing.AllocsPerRun(20, func() {
			if _, _, err := Open(root, blob); err != nil {
				t.Fatal(err)
			}
		})
		return seal, open
	}
	s8, o8 := counts(8)
	s4k, o4k := counts(4096)
	if s8 != s4k || o8 != o4k || s8 > 1 || o8 > 1 {
		t.Fatalf("allocs: Seal %v (8 words) vs %v (4,096), Open %v vs %v; want equal and at most 1", s8, s4k, o8, o4k)
	}
}
