package sha2

import (
	"crypto/subtle"
	"encoding/binary"
)

// HMAC computes HMAC-SHA256(key, msg) per RFC 2104. Komodo's local
// attestation (§4) is a MAC over the attesting enclave's measurement and
// 32 bytes of enclave-supplied data, keyed by a boot-time secret.
func HMAC(key, msg []byte) [Size]byte {
	k := NewHMAC(key)
	return k.Sum(msg)
}

// HMACKey is an HMAC-SHA256 key with its inner (ipad) and outer (opad)
// blocks already absorbed, so each Sum under it costs only the message and
// digest compressions — the form for many MACs under one key, such as
// the sealing keystream's counter blocks (XORKeyStream).
type HMACKey struct {
	inner, outer Hash
}

// NewHMAC keys HMAC-SHA256 with key. It returns the key by value so a
// caller's local key stays off the heap.
func NewHMAC(key []byte) HMACKey {
	var kb [BlockSize]byte
	if len(key) > BlockSize {
		d := Sum256(key)
		copy(kb[:], d[:])
	} else {
		copy(kb[:], key)
	}
	var ipad, opad [BlockSize]byte
	for i := range kb {
		ipad[i] = kb[i] ^ 0x36
		opad[i] = kb[i] ^ 0x5c
	}
	var k HMACKey
	k.inner.Reset()
	k.inner.Write(ipad[:])
	k.outer.Reset()
	k.outer.Write(opad[:])
	return k
}

// Sum returns HMAC-SHA256(key, msg). The key is not consumed: Sum may be
// called any number of times.
func (k *HMACKey) Sum(msg []byte) [Size]byte {
	inner := k.inner
	inner.Write(msg)
	return k.finish(&inner)
}

// SumWords returns HMAC-SHA256(key, ws as big-endian bytes), streaming the
// words into the inner hash rather than flattening them first.
func (k *HMACKey) SumWords(ws []uint32) [Size]byte {
	inner := k.inner
	inner.WriteWords(ws)
	return k.finish(&inner)
}

// finish closes an inner hash that has absorbed the message and runs the
// outer hash over its digest.
func (k *HMACKey) finish(inner *Hash) [Size]byte {
	id := inner.Sum()
	outer := k.outer
	outer.Write(id[:])
	return outer.Sum()
}

// XORKeyStream XORs into dst the HMAC-SHA256 counter-mode keystream
// under k: block i is HMAC(key, prefix ‖ i) with i a big-endian u32,
// read as eight big-endian words, and a final partial block is cut
// short. The key's inner and outer chaining states are put into the
// platform digest's binary form once per call; each block is then two
// state imports, two writes and two Sums on that digest, each Sum one
// compression, and nothing is allocated.
func (k *HMACKey) XORKeyStream(prefix [8]byte, dst []uint32) {
	e := engines.Get().(*engine)
	putState(&e.pads[0], &k.inner.h, BlockSize)
	putState(&e.pads[1], &k.outer.h, BlockSize)
	msg := e.chunk[:len(prefix)+4]
	copy(msg, prefix[:])
	for i := 0; i < len(dst); i += 8 {
		binary.BigEndian.PutUint32(msg[len(prefix):], uint32(i/8))
		e.load(e.pads[0][:])
		e.d.Write(msg)
		inner := e.d.Sum(e.digest[:0])
		e.load(e.pads[1][:])
		e.d.Write(inner)
		ks := e.d.Sum(e.digest[:0])
		for j := range dst[i:min(i+8, len(dst))] {
			dst[i+j] ^= binary.BigEndian.Uint32(ks[4*j:])
		}
	}
	engines.Put(e)
}

// HMACBlocks reports how many SHA-256 compressions an HMAC over msgLen
// bytes performs (inner hash over key block + message, outer hash over key
// block + inner digest). Used for cycle accounting of Attest/Verify.
func HMACBlocks(msgLen int) uint64 {
	return paddedBlocks(BlockSize+msgLen) + paddedBlocks(BlockSize+Size)
}

// paddedBlocks returns the number of 64-byte blocks SHA-256 processes for a
// message of n bytes, including the 0x80 byte and 8-byte length field.
func paddedBlocks(n int) uint64 {
	return uint64((n + 9 + BlockSize - 1) / BlockSize)
}

// WordsToBytes flattens big-endian words, the wire form of the u32[8]
// arguments in Table 1's Attest/Verify calls.
func WordsToBytes(ws []uint32) []byte {
	out := make([]byte, 4*len(ws))
	for i, w := range ws {
		binary.BigEndian.PutUint32(out[i*4:], w)
	}
	return out
}

// BytesToWords is the inverse of WordsToBytes; len(b) must be a multiple
// of 4.
func BytesToWords(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.BigEndian.Uint32(b[i*4:])
	}
	return out
}

// Equal compares two MACs in constant time. Verify must not leak where the
// comparison diverges.
func Equal(a, b [Size]byte) bool {
	return subtle.ConstantTimeCompare(a[:], b[:]) == 1
}
