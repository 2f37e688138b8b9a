// Package seal implements Komodo's sealed-storage primitives: an
// HKDF-style key-derivation tree rooted in the monitor's boot secret and
// bound to enclave measurement, plus an encrypt-then-MAC AEAD over word
// arrays. The monitor uses it for the checkpoint/restore SMCs and the
// GetSealKey SVC; the functional specification (internal/spec) uses the
// same code so refinement compares identical blobs; komodo-ckpt uses it
// to inspect and verify blobs offline.
//
// Key tree (docs/SEALING.md):
//
//	bootSecret (32 bytes, drawn from the hardware RNG at monitor install)
//	  └─ sealRoot   = HMAC(bootSecret, "komodo-seal-root-v1")
//	       └─ K_m   = HMAC(sealRoot, "komodo-seal-key-v1" ‖ measurement)
//	            ├─ K_enc = HMAC(K_m, "komodo-seal-enc-v1")
//	            └─ K_mac = HMAC(K_m, "komodo-seal-mac-v1")
//
// Only sealRoot is kept by the monitor; the attestation key itself is
// never used directly for sealing. Because K_m depends on the enclave
// measurement carried in the blob header, tampering with the header
// changes the derived key and the tag check fails — there is no
// unauthenticated path to the plaintext.
//
// The cipher is HMAC-SHA256 in counter mode (8 words of keystream per
// block), so the whole construction is built from the repo's sha2 package,
// the same SHA-256 and HMAC the monitor attests with, and needs no other
// primitive. All tag comparisons are constant-time.
package seal

import (
	"encoding/binary"
	"errors"

	"repro/internal/sha2"
)

// Blob layout, in words.
//
//	[0]        magic "KSLB"
//	[1]        version
//	[2]        kind (caller-defined record type)
//	[3]        n = payload word count
//	[4..11]    measurement (cleartext: it is the key-derivation input)
//	[12..13]   nonce
//	[14..14+n) ciphertext
//	[14+n..)   8-word HMAC tag over words [0, 14+n)
const (
	Magic   uint32 = 0x4B534C42 // "KSLB"
	Version uint32 = 1

	// KindCheckpoint marks enclave checkpoint images (seal/image.go).
	KindCheckpoint uint32 = 1

	// HeaderWords is the cleartext prefix; TagWords the trailing MAC;
	// OverheadWords their sum — a sealed blob is payload+OverheadWords.
	HeaderWords   = 14
	TagWords      = 8
	OverheadWords = HeaderWords + TagWords

	// MaxPayloadWords bounds what Seal/Open accept (16 MiB of payload) so
	// a hostile length field cannot drive allocation.
	MaxPayloadWords = 1 << 22
)

// Sealed-blob failure modes. Open never reports which word failed —
// everything that is not a well-formed, authentic blob fails closed.
var (
	ErrMalformed = errors.New("seal: malformed blob")
	ErrAuth      = errors.New("seal: authentication failed")
)

// Header is the cleartext prefix of a sealed blob.
type Header struct {
	Version     uint32
	Kind        uint32
	PayloadLen  int
	Measurement [8]uint32
	Nonce       [2]uint32
}

// DeriveRoot derives the monitor's sealing root from its boot secret
// (the attestation key bytes). The root, not the boot secret, is what
// keys every sealing operation.
func DeriveRoot(bootSecret [32]byte) [32]byte {
	return sha2.HMAC(bootSecret[:], []byte("komodo-seal-root-v1"))
}

// DeriveKey derives the measurement-bound sealing key K_m. Two boards
// with the same boot secret derive the same key for the same enclave
// identity — the basis for cross-board migration; any other measurement
// or root yields an unrelated key.
func DeriveKey(root [32]byte, measurement [8]uint32) [32]byte {
	const label = "komodo-seal-key-v1"
	var msg [len(label) + 32]byte
	copy(msg[:], label)
	for i, w := range measurement {
		binary.BigEndian.PutUint32(msg[len(label)+4*i:], w)
	}
	return sha2.HMAC(root[:], msg[:])
}

func subKey(key [32]byte, label string) [32]byte {
	return sha2.HMAC(key[:], []byte(label))
}

// keystream XORs the HMAC-CTR keystream for (key, nonce) into dst: block
// i is HMAC(encKey, nonce[0] ‖ nonce[1] ‖ i) as big-endian words. The key
// is absorbed once, and sha2's XORKeyStream runs each 8 words of
// keystream as two fixed-shape HMAC halves on the platform digest, with
// no allocation.
func keystream(encKey [32]byte, nonce [2]uint32, dst []uint32) {
	var prefix [8]byte
	binary.BigEndian.PutUint32(prefix[0:], nonce[0])
	binary.BigEndian.PutUint32(prefix[4:], nonce[1])
	mac := sha2.NewHMAC(encKey[:])
	mac.XORKeyStream(prefix, dst)
}

// hmacOf is HMAC(key, words as big-endian bytes), with the words streamed
// into the keyed inner hash.
func hmacOf(key [32]byte, words []uint32) [sha2.Size]byte {
	mac := sha2.NewHMAC(key[:])
	return mac.SumWords(words)
}

// Seal builds a sealed blob: header, payload encrypted under K_enc with
// the given nonce, and an HMAC tag under K_mac over header+ciphertext.
// The nonce must be fresh per seal under one key (the monitor draws it
// from the hardware RNG).
func Seal(key [32]byte, nonce [2]uint32, kind uint32, measurement [8]uint32, payload []uint32) []uint32 {
	if len(payload) > MaxPayloadWords {
		panic("seal: payload too large")
	}
	blob := make([]uint32, len(payload)+OverheadWords)
	copy(blob[HeaderWords:], payload)
	SealInPlace(key, nonce, kind, measurement, blob)
	return blob
}

// SealInPlace is Seal for a caller that has already put the plaintext
// payload at blob[HeaderWords:len(blob)-TagWords]: it fills in the
// header, encrypts the payload where it lies and writes the tag, so the
// caller's buffer becomes the sealed blob without a copy. The words are
// exactly Seal's.
func SealInPlace(key [32]byte, nonce [2]uint32, kind uint32, measurement [8]uint32, blob []uint32) {
	n := len(blob) - OverheadWords
	if n < 0 || n > MaxPayloadWords {
		panic("seal: blob length out of range")
	}
	blob[0] = Magic
	blob[1] = Version
	blob[2] = kind
	blob[3] = uint32(n)
	copy(blob[4:12], measurement[:])
	blob[12], blob[13] = nonce[0], nonce[1]
	keystream(subKey(key, "komodo-seal-enc-v1"), nonce, blob[HeaderWords:HeaderWords+n])
	tag := hmacOf(subKey(key, "komodo-seal-mac-v1"), blob[:HeaderWords+n])
	for i := range TagWords {
		blob[HeaderWords+n+i] = binary.BigEndian.Uint32(tag[4*i:])
	}
}

// ParseHeader validates the cleartext framing of a blob without any key:
// magic, version, and exact length. It is the only unauthenticated
// parsing Open does before the tag check.
func ParseHeader(blob []uint32) (Header, error) {
	var h Header
	if len(blob) < OverheadWords {
		return h, ErrMalformed
	}
	if blob[0] != Magic || blob[1] != Version {
		return h, ErrMalformed
	}
	n := blob[3]
	if n > MaxPayloadWords || len(blob) != OverheadWords+int(n) {
		return h, ErrMalformed
	}
	h.Version = blob[1]
	h.Kind = blob[2]
	h.PayloadLen = int(n)
	copy(h.Measurement[:], blob[4:12])
	h.Nonce = [2]uint32{blob[12], blob[13]}
	return h, nil
}

// Open authenticates and decrypts a blob sealed by a monitor whose seal
// root is root. The key is re-derived from the measurement the blob
// itself claims, so a blob sealed for a different measurement (or by a
// different board) fails the tag check — fail closed, no partial
// plaintext is ever released.
func Open(root [32]byte, blob []uint32) (Header, []uint32, error) {
	h, err := ParseHeader(blob)
	if err != nil {
		return h, nil, err
	}
	return openWith(DeriveKey(root, h.Measurement), h, blob)
}

// OpenWithKey is Open for a caller that already holds the
// measurement-bound key K_m (e.g. an enclave that fetched it with
// SVCGetSealKey). The key must match the measurement in the header.
func OpenWithKey(key [32]byte, blob []uint32) (Header, []uint32, error) {
	h, err := ParseHeader(blob)
	if err != nil {
		return h, nil, err
	}
	return openWith(key, h, blob)
}

func openWith(key [32]byte, h Header, blob []uint32) (Header, []uint32, error) {
	n := h.PayloadLen
	want := hmacOf(subKey(key, "komodo-seal-mac-v1"), blob[:HeaderWords+n])
	var got [sha2.Size]byte
	for i, w := range blob[HeaderWords+n:] {
		binary.BigEndian.PutUint32(got[4*i:], w)
	}
	if !sha2.Equal(want, got) {
		return h, nil, ErrAuth
	}
	payload := make([]uint32, n)
	copy(payload, blob[HeaderWords:HeaderWords+n])
	keystream(subKey(key, "komodo-seal-enc-v1"), h.Nonce, payload)
	return h, payload, nil
}
