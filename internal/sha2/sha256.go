// Package sha2 is SHA-256 (FIPS 180-4) and HMAC-SHA256 (RFC 2104) in the
// form the Komodo monitor consumes them: SHA-256 for enclave measurement
// and HMAC-SHA256 for local attestation and sealing (§4, §7.2). The
// paper's prototype inherits an OpenSSL-style verified ARM implementation
// from Vale. Here the compression function runs on the platform's SHA-256
// block from crypto/sha256, which picks SHA-NI, AVX2 or generic code from
// the CPU; a textbook round loop kept in the tests is the independent
// reference it is checked against. Padding, HMAC keying, the Blocks()
// accounting the monitor charges cycles by, word I/O and Marshal/Unmarshal
// all stay in this package, so the bytes and the modelled cost do not
// depend on the engine.
//
// The streaming API mirrors how the monitor consumes it: the measurement is
// a running hash extended by each page-allocation call (§4 "Attestation"),
// finalised when the enclave is finalised.
package sha2

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"hash"
	"sync"
)

// Size is the length of a SHA-256 digest in bytes.
const Size = 32

// BlockSize is the SHA-256 compression block size in bytes.
const BlockSize = 64

// initial hash values: first 32 bits of the fractional parts of the square
// roots of the first 8 primes (FIPS 180-4 §5.3.3).
var initH = [8]uint32{
	0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
	0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
}

// round constants: first 32 bits of the fractional parts of the cube roots
// of the first 64 primes (FIPS 180-4 §4.2.2).
var k = [64]uint32{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
	0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
	0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
	0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
	0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
	0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
	0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
}

// Hash is a streaming SHA-256 state. The zero value is not valid; use New.
// It holds no pointers, so copying a Hash by value forks the stream.
type Hash struct {
	h      [8]uint32
	buf    [BlockSize]byte
	nbuf   int
	length uint64 // total bytes written
	blocks uint64 // compression blocks processed (for cycle accounting)
}

// New returns a fresh SHA-256 state.
func New() *Hash {
	var s Hash
	s.Reset()
	return &s
}

// Reset restores the initial state.
func (s *Hash) Reset() {
	s.h = initH
	s.nbuf = 0
	s.length = 0
	s.blocks = 0
}

// Blocks reports how many 64-byte compressions have been performed,
// including those of Sum's padding. The monitor charges cycles per block.
func (s *Hash) Blocks() uint64 { return s.blocks }

// Write absorbs p into the hash state. It never fails.
func (s *Hash) Write(p []byte) (int, error) {
	n := len(p)
	s.length += uint64(n)
	if s.nbuf > 0 {
		c := copy(s.buf[s.nbuf:], p)
		s.nbuf += c
		p = p[c:]
		if s.nbuf == BlockSize {
			s.compress(s.buf[:])
			s.nbuf = 0
		}
	}
	if n := len(p) &^ (BlockSize - 1); n > 0 {
		s.compress(p[:n])
		p = p[n:]
	}
	if len(p) > 0 {
		s.nbuf = copy(s.buf[:], p)
	}
	return n, nil
}

// WriteWords absorbs 32-bit words in big-endian order. The monitor hashes
// page contents and call arguments as words (the machine is word-addressed).
func (s *Hash) WriteWords(ws []uint32) {
	var b [16 * BlockSize]byte
	for len(ws) > 0 {
		n := min(len(ws), len(b)/4)
		for i, w := range ws[:n] {
			binary.BigEndian.PutUint32(b[4*i:], w)
		}
		s.Write(b[:4*n])
		ws = ws[n:]
	}
}

// Sum finalises a copy of the state and returns the 32-byte digest.
// The receiver remains usable for further writes.
func (s *Hash) Sum() [Size]byte {
	t := *s // copy; padding must not disturb the running state
	var pad [BlockSize + 8]byte
	pad[0] = 0x80
	// pad to 56 mod 64, then append the 64-bit bit length.
	rem := int(t.length % BlockSize)
	n := 56 - rem
	if n <= 0 {
		n += BlockSize
	}
	binary.BigEndian.PutUint64(pad[n:], t.length*8)
	t.Write(pad[:n+8])
	var out [Size]byte
	for i, h := range t.h {
		binary.BigEndian.PutUint32(out[i*4:], h)
	}
	s.blocks = t.blocks // account padding blocks to the caller
	return out
}

// SumWords returns the digest as eight big-endian words, the form in which
// the monitor stores measurements in the PageDB and returns MACs (the
// Attest/Verify API of Table 1 traffics in u32[8]).
func (s *Hash) SumWords() [8]uint32 {
	d := s.Sum()
	var w [8]uint32
	for i := range w {
		w[i] = binary.BigEndian.Uint32(d[i*4:])
	}
	return w
}

// engine is a pooled crypto/sha256 digest plus the buffers compress
// hands it. Passing only engine-owned memory through the hash.Hash
// interface keeps callers' blocks and states on their stacks.
type engine struct {
	d     hash.Hash
	un    encoding.BinaryUnmarshaler // d's UnmarshalBinary
	app   stateAppender              // d's AppendBinary; nil before Go 1.24
	state [marshaledSize]byte
	chunk [64 * BlockSize]byte

	// pads and digest serve XORKeyStream: an HMAC key's inner and outer
	// chaining states in d's binary form, and the digest Sum appends to.
	pads   [2][marshaledSize]byte
	digest [Size]byte
}

// stateAppender is encoding.BinaryAppender, declared here because the
// module still builds on toolchains older than Go 1.24, which lack it.
type stateAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// marshaledSize is the length of crypto/sha256's binary state: "sha\x03",
// h[8], a 64-byte buffer and a u64 length, all big-endian.
const marshaledSize = 4 + Size + BlockSize + 8

var engines = sync.Pool{New: func() any {
	e := &engine{d: sha256.New()}
	e.un = e.d.(encoding.BinaryUnmarshaler)
	e.app, _ = e.d.(stateAppender)
	return e
}}

// putState writes a chaining state h after length bytes, which must be
// a whole number of blocks, into st in crypto/sha256's binary form. The
// buffer bytes are never written and stay zero.
func putState(st *[marshaledSize]byte, h *[8]uint32, length uint64) {
	copy(st[:], "sha\x03")
	for i, w := range h {
		binary.BigEndian.PutUint32(st[4+4*i:], w)
	}
	binary.BigEndian.PutUint64(st[4+Size+BlockSize:], length)
}

// compress runs the SHA-256 compression function over p, a whole number
// of blocks, on the platform's SHA-256 block. The engine's buffer and
// length start at zero, so only h travels in and out.
func (s *Hash) compress(p []byte) {
	s.blocks += uint64(len(p) / BlockSize)
	e := engines.Get().(*engine)
	putState(&e.state, &s.h, 0)
	e.load(e.state[:])
	for len(p) > 0 {
		n := copy(e.chunk[:], p)
		e.d.Write(e.chunk[:n])
		p = p[n:]
	}
	st := e.exportState()
	for i := range s.h {
		s.h[i] = binary.BigEndian.Uint32(st[4+4*i:])
	}
	engines.Put(e)
}

// load imports a binary state into the engine's digest. It cannot fail
// for a state this package built.
func (e *engine) load(state []byte) {
	if err := e.un.UnmarshalBinary(state); err != nil {
		panic("sha2: " + err.Error())
	}
}

// exportState returns the digest's binary state. AppendBinary writes it
// into the engine's own buffer, so a compression allocates nothing;
// before Go 1.24 the digest can only marshal into a fresh slice. Neither
// can fail for a SHA-256 digest.
func (e *engine) exportState() []byte {
	if e.app != nil {
		st, _ := e.app.AppendBinary(e.state[:0])
		return st
	}
	st, _ := e.d.(encoding.BinaryMarshaler).MarshalBinary()
	return st
}

// InitialState returns the SHA-256 initial hash values; the KARM assembly
// implementation (internal/kasm) embeds them in enclave code.
func InitialState() [8]uint32 { return initH }

// RoundConstants returns the 64 SHA-256 round constants for the same
// purpose.
func RoundConstants() [64]uint32 { return k }

// Sum256 is a one-shot convenience.
func Sum256(p []byte) [Size]byte {
	s := New()
	s.Write(p)
	return s.Sum()
}

// Marshal returns the internal chaining state and counters so the monitor
// can persist a running measurement inside an addrspace page (the concrete
// PageDB stores measurement state in secure memory words).
func (s *Hash) Marshal() (h [8]uint32, buf [BlockSize]byte, nbuf int, length uint64) {
	return s.h, s.buf, s.nbuf, s.length
}

// Unmarshal restores a state captured by Marshal.
func (s *Hash) Unmarshal(h [8]uint32, buf [BlockSize]byte, nbuf int, length uint64) {
	s.h, s.buf, s.nbuf, s.length = h, buf, nbuf, length
	s.blocks = 0
}
