package sha2

import (
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	mrand "math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// refCompress is the textbook FIPS 180-4 §6.2.2 compression function, kept
// here as a reference independent of the crypto/sha256 engine that
// (*Hash).compress runs on.
func refCompress(h *[8]uint32, block []byte) {
	var w [64]uint32
	for i := 0; i < 16; i++ {
		w[i] = binary.BigEndian.Uint32(block[i*4:])
	}
	for i := 16; i < 64; i++ {
		s0 := rotr(w[i-15], 7) ^ rotr(w[i-15], 18) ^ (w[i-15] >> 3)
		s1 := rotr(w[i-2], 17) ^ rotr(w[i-2], 19) ^ (w[i-2] >> 10)
		w[i] = w[i-16] + s0 + w[i-7] + s1
	}
	a, b, c, d, e, f, g, hh := h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]
	for i := 0; i < 64; i++ {
		S1 := rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)
		ch := (e & f) ^ (^e & g)
		t1 := hh + S1 + ch + k[i] + w[i]
		S0 := rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)
		maj := (a & b) ^ (a & c) ^ (b & c)
		t2 := S0 + maj
		hh, g, f, e, d, c, b, a = g, f, e, d+t1, c, b, a, t1+t2
	}
	h[0] += a
	h[1] += b
	h[2] += c
	h[3] += d
	h[4] += e
	h[5] += f
	h[6] += g
	h[7] += hh
}

func rotr(x uint32, n uint) uint32 { return x>>n | x<<(32-n) }

// refChain returns the reference chaining state after the whole blocks of
// msg.
func refChain(msg []byte) [8]uint32 {
	h := initH
	for ; len(msg) >= BlockSize; msg = msg[BlockSize:] {
		refCompress(&h, msg[:BlockSize])
	}
	return h
}

// refSum256 pads msg and runs it through refCompress.
func refSum256(msg []byte) [Size]byte {
	padded := append(append([]byte(nil), msg...), 0x80)
	for len(padded)%BlockSize != 56 {
		padded = append(padded, 0)
	}
	padded = binary.BigEndian.AppendUint64(padded, uint64(len(msg))*8)
	h := refChain(padded)
	var out [Size]byte
	for i, w := range h {
		binary.BigEndian.PutUint32(out[4*i:], w)
	}
	return out
}

// refHMAC is RFC 2104 over refSum256.
func refHMAC(key, msg []byte) [Size]byte {
	if len(key) > BlockSize {
		d := refSum256(key)
		key = d[:]
	}
	ipad := make([]byte, BlockSize, BlockSize+len(msg))
	opad := make([]byte, BlockSize, BlockSize+Size)
	copy(ipad, key)
	copy(opad, key)
	for i := range ipad {
		ipad[i] ^= 0x36
		opad[i] ^= 0x5c
	}
	inner := refSum256(append(ipad, msg...))
	return refSum256(append(opad, inner[:]...))
}

func TestReferenceKnownAnswers(t *testing.T) {
	for _, v := range katVectors {
		got := refSum256([]byte(v.in))
		if hex.EncodeToString(got[:]) != v.out {
			t.Errorf("refSum256(%q) = %x, want %s", v.in, got, v.out)
		}
	}
}

// TestEngineDifferential streams random messages through Hash at random
// Write split points, with a mid-stream Marshal/Unmarshal into a fresh
// Hash, and checks the chaining state after every write, the digest
// against the textbook reference and crypto/sha256, and Blocks() against
// the padded-block count the monitor's cycle accounting assumes.
func TestEngineDifferential(t *testing.T) {
	r := mrand.New(mrand.NewSource(13))
	for iter := 0; iter < 300; iter++ {
		n := r.Intn(32 * BlockSize)
		if iter%5 == 0 { // longer than the engine's chunk buffer
			n = r.Intn(200 * BlockSize)
		}
		msg := make([]byte, n)
		r.Read(msg)
		want := refSum256(msg)
		if want != sha256.Sum256(msg) {
			t.Fatalf("reference and crypto/sha256 disagree on %d bytes", len(msg))
		}
		s := New()
		resumedAt := -1
		for off := 0; off < len(msg); {
			n := min(r.Intn(3*BlockSize), len(msg)-off)
			if r.Intn(4) == 0 {
				n = min(r.Intn(2*BlockSize*64), len(msg)-off)
			}
			s.Write(msg[off : off+n])
			off += n
			if h, _, _, _ := s.Marshal(); h != refChain(msg[:off]) {
				t.Fatalf("%d bytes, after %d: chaining state %08x, want %08x", len(msg), off, h, refChain(msg[:off]))
			}
			if resumedAt < 0 && r.Intn(3) == 0 {
				var fresh Hash
				fresh.Unmarshal(s.Marshal())
				s, resumedAt = &fresh, off
			}
		}
		if got := s.Sum(); got != want {
			t.Fatalf("%d bytes (resumed at %d): digest %x, want %x", len(msg), resumedAt, got, want)
		}
		wantBlocks := paddedBlocks(len(msg))
		if resumedAt >= 0 {
			wantBlocks -= uint64(resumedAt / BlockSize)
		}
		if s.Blocks() != wantBlocks {
			t.Fatalf("%d bytes (resumed at %d): Blocks() = %d, want %d", len(msg), resumedAt, s.Blocks(), wantBlocks)
		}
	}
}

// TestWriteWordsMatchesBytes: WriteWords, from any buffered offset and
// across its internal chunking, hashes the same bytes as Write and counts
// the same blocks.
func TestWriteWordsMatchesBytes(t *testing.T) {
	r := mrand.New(mrand.NewSource(7))
	for iter := 0; iter < 100; iter++ {
		prefix := make([]byte, r.Intn(BlockSize))
		ws := make([]uint32, r.Intn(1200))
		r.Read(prefix)
		for i := range ws {
			ws[i] = r.Uint32()
		}
		a, b := New(), New()
		a.Write(prefix)
		a.WriteWords(ws)
		b.Write(prefix)
		b.Write(WordsToBytes(ws))
		if a.Sum() != b.Sum() || a.Blocks() != b.Blocks() {
			t.Fatalf("prefix %d, %d words: WriteWords diverged from Write", len(prefix), len(ws))
		}
	}
}

// TestHMACKeyMatchesReference covers short, block-sized and pre-hashed
// long keys, Sum and SumWords, against the textbook reference HMAC.
func TestHMACKeyMatchesReference(t *testing.T) {
	r := mrand.New(mrand.NewSource(3))
	for _, kl := range []int{0, 1, 32, BlockSize - 1, BlockSize, BlockSize + 1, 131, 300} {
		key := make([]byte, kl)
		r.Read(key)
		k := NewHMAC(key)
		for j := 0; j < 8; j++ {
			ws := make([]uint32, r.Intn(400))
			for i := range ws {
				ws[i] = r.Uint32()
			}
			msg := WordsToBytes(ws)
			want := refHMAC(key, msg)
			if got := k.Sum(msg); got != want {
				t.Fatalf("key %d bytes, msg %d bytes: Sum = %x, want %x", kl, len(msg), got, want)
			}
			if got := k.SumWords(ws); got != want {
				t.Fatalf("key %d bytes, msg %d bytes: SumWords = %x, want %x", kl, len(msg), got, want)
			}
		}
	}
}

// TestXORKeyStreamMatchesReference checks the fixed-shape keystream path
// against the textbook reference HMAC: block i of the stream XORed into
// random words must be refHMAC(key, prefix ‖ i) as big-endian words, for
// every length from 1 to 200 words, partial final blocks included, and
// for short, block-sized and pre-hashed long keys.
func TestXORKeyStreamMatchesReference(t *testing.T) {
	r := mrand.New(mrand.NewSource(5))
	for _, kl := range []int{0, 32, BlockSize, 131} {
		key := make([]byte, kl)
		r.Read(key)
		k := NewHMAC(key)
		for n := 1; n <= 200; n++ {
			var prefix [8]byte
			r.Read(prefix[:])
			plain := make([]uint32, n)
			for i := range plain {
				plain[i] = r.Uint32()
			}
			got := append([]uint32(nil), plain...)
			k.XORKeyStream(prefix, got)
			for i := 0; i < n; i += 8 {
				msg := binary.BigEndian.AppendUint32(prefix[:], uint32(i/8))
				ks := refHMAC(key, msg)
				for j := i; j < min(i+8, n); j++ {
					if want := plain[j] ^ binary.BigEndian.Uint32(ks[4*(j-i):]); got[j] != want {
						t.Fatalf("key %d bytes, %d words: word %d = %#x, want %#x", kl, n, j, got[j], want)
					}
				}
			}
		}
	}
}

// TestXORKeyStreamLongMatchesReference runs one stream the length of a
// notary checkpoint's keystream (813 blocks), cut 5 words into its last
// block, against refHMAC block by block. The short-stream test above
// stays under 256 blocks, so only this one sees a counter's second byte
// change.
func TestXORKeyStreamLongMatchesReference(t *testing.T) {
	const n = 813*8 - 3
	r := mrand.New(mrand.NewSource(6))
	for _, kl := range []int{32, 131} {
		key := make([]byte, kl)
		r.Read(key)
		k := NewHMAC(key)
		var prefix [8]byte
		r.Read(prefix[:])
		plain := make([]uint32, n)
		for i := range plain {
			plain[i] = r.Uint32()
		}
		got := append([]uint32(nil), plain...)
		k.XORKeyStream(prefix, got)
		for i := 0; i < n; i += 8 {
			ks := refHMAC(key, binary.BigEndian.AppendUint32(prefix[:], uint32(i/8)))
			for j := i; j < min(i+8, n); j++ {
				if want := plain[j] ^ binary.BigEndian.Uint32(ks[4*(j-i):]); got[j] != want {
					t.Fatalf("key %d bytes: block %d word %d = %#x, want %#x", kl, i/8, j, got[j], want)
				}
			}
		}
	}
}

// TestHMACKeyConcurrent: goroutines sharing HMACKey values and hashing
// distinct messages get the stdlib's answers; run under -race, it checks
// that the pooled engines are never shared.
func TestHMACKeyConcurrent(t *testing.T) {
	keys := []HMACKey{NewHMAC([]byte("seal")), NewHMAC(bytes.Repeat([]byte{0xaa}, 131))}
	raw := [][]byte{[]byte("seal"), bytes.Repeat([]byte{0xaa}, 131)}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				msg := bytes.Repeat([]byte{byte(g), byte(i)}, 1+(g*37+i)%300)
				ki := (g + i) % len(keys)
				m := hmac.New(sha256.New, raw[ki])
				m.Write(msg)
				if got := keys[ki].Sum(msg); !bytes.Equal(got[:], m.Sum(nil)) {
					errs <- "goroutine MAC differs from crypto/hmac"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestAllocationFree: digests and MACs over stack inputs allocate nothing;
// the engine copies blocks into its own buffer, so no caller memory
// escapes through the hash.Hash interface.
func TestAllocationFree(t *testing.T) {
	if !allocFree {
		t.Skip("under -race, crypto/sha256's state export allocates")
	}
	var msg [200]byte
	var ws [100]uint32
	k := NewHMAC([]byte("key"))
	s := New()
	s.Write(msg[:77])
	cases := []struct {
		name string
		f    func()
	}{
		{"Hash.Sum", func() { s.Sum() }},
		{"Sum256", func() { Sum256(msg[:]) }},
		{"HMACKey.Sum", func() { k.Sum(msg[:12]) }},
		{"HMACKey.SumWords", func() { k.SumWords(ws[:]) }},
		{"HMACKey.XORKeyStream", func() { k.XORKeyStream([8]byte{1}, ws[:]) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(50, c.f); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", c.name, n)
		}
	}
}

// FIPS 180-4 / NIST CAVP known-answer vectors.
var katVectors = []struct {
	in  string
	out string
}{
	{"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
	{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
		"248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
	{"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
		"cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
}

func TestKnownAnswers(t *testing.T) {
	for _, v := range katVectors {
		got := Sum256([]byte(v.in))
		if hex.EncodeToString(got[:]) != v.out {
			t.Errorf("Sum256(%q) = %x, want %s", v.in, got, v.out)
		}
	}
}

func TestMillionA(t *testing.T) {
	// FIPS 180-4 long vector: 1,000,000 repetitions of 'a'.
	s := New()
	chunk := bytes.Repeat([]byte{'a'}, 1000)
	for i := 0; i < 1000; i++ {
		s.Write(chunk)
	}
	got := s.Sum()
	const want = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
	if hex.EncodeToString(got[:]) != want {
		t.Errorf("million-a digest = %x, want %s", got, want)
	}
}

func TestMatchesStdlibOnSplits(t *testing.T) {
	// Stream the same input in many different chunkings; all must agree
	// with the stdlib one-shot digest.
	msg := make([]byte, 300)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	want := sha256.Sum256(msg)
	for split := 0; split <= len(msg); split += 13 {
		s := New()
		s.Write(msg[:split])
		s.Write(msg[split:])
		if got := s.Sum(); got != want {
			t.Fatalf("split %d: got %x want %x", split, got, want)
		}
	}
}

func TestSumDoesNotDisturbState(t *testing.T) {
	s := New()
	s.Write([]byte("hello "))
	mid := s.Sum()
	again := s.Sum()
	if mid != again {
		t.Fatalf("repeated Sum differs: %x vs %x", mid, again)
	}
	s.Write([]byte("world"))
	if got, want := s.Sum(), sha256.Sum256([]byte("hello world")); got != [Size]byte(want) {
		t.Fatalf("continue-after-Sum digest = %x, want %x", got, want)
	}
}

func TestPropertyMatchesStdlib(t *testing.T) {
	f := func(msg []byte) bool {
		return Sum256(msg) == sha256.Sum256(msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWriteWords(t *testing.T) {
	s := New()
	s.WriteWords([]uint32{0x61626364, 0x65666768}) // "abcdefgh"
	want := sha256.Sum256([]byte("abcdefgh"))
	if got := s.Sum(); got != [Size]byte(want) {
		t.Fatalf("WriteWords digest = %x, want %x", got, want)
	}
}

func TestSumWords(t *testing.T) {
	s := New()
	s.Write([]byte("abc"))
	w := s.SumWords()
	if w[0] != 0xba7816bf || w[7] != 0xf20015ad {
		t.Fatalf("SumWords = %08x ... %08x", w[0], w[7])
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	s := New()
	s.Write([]byte("the monitor persists this measurement mid-stream"))
	h, buf, nbuf, length := s.Marshal()
	var r Hash
	r.Unmarshal(h, buf, nbuf, length)
	r.Write([]byte(" and continues"))
	s.Write([]byte(" and continues"))
	if r.Sum() != s.Sum() {
		t.Fatal("restored state diverged from original")
	}
}

func TestBlocksAccounting(t *testing.T) {
	s := New()
	s.Write(make([]byte, 64))
	if s.Blocks() != 1 {
		t.Fatalf("after 64 bytes: blocks = %d, want 1", s.Blocks())
	}
	s.Sum() // padding adds one block for a 64-byte message
	if s.Blocks() != 2 {
		t.Fatalf("after Sum: blocks = %d, want 2", s.Blocks())
	}
}

func TestHMACVectorsRFC4231(t *testing.T) {
	cases := []struct {
		key, data, want string // hex key, ascii data unless noted
	}{
		// RFC 4231 test case 1.
		{"0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b", "Hi There",
			"b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
		// RFC 4231 test case 2.
		{"4a656665", "what do ya want for nothing?",
			"5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
	}
	for i, c := range cases {
		key, _ := hex.DecodeString(c.key)
		got := HMAC(key, []byte(c.data))
		if hex.EncodeToString(got[:]) != c.want {
			t.Errorf("case %d: HMAC = %x, want %s", i+1, got, c.want)
		}
	}
}

// TestHMACKeyVectorsRFC4231 runs RFC 4231 test cases 1-4, 6 and 7
// through one NewHMAC key summed twice, covering the pre-hashed
// (longer than a block) key and reuse of the absorbed pads.
func TestHMACKeyVectorsRFC4231(t *testing.T) {
	rep := func(b byte, n int) string { return string(bytes.Repeat([]byte{b}, n)) }
	cases := []struct {
		key, data, want string // raw key and data bytes, hex MAC
	}{
		{rep(0x0b, 20), "Hi There",
			"b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
		{"Jefe", "what do ya want for nothing?",
			"5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
		{rep(0xaa, 20), rep(0xdd, 50),
			"773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
		{"\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\x11\x12\x13\x14\x15\x16\x17\x18\x19",
			rep(0xcd, 50),
			"82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
		{rep(0xaa, 131), "Test Using Larger Than Block-Size Key - Hash Key First",
			"60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
		{rep(0xaa, 131), "This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.",
			"9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
	}
	for i, c := range cases {
		k := NewHMAC([]byte(c.key))
		for pass := 0; pass < 2; pass++ {
			got := k.Sum([]byte(c.data))
			if hex.EncodeToString(got[:]) != c.want {
				t.Errorf("case %d pass %d: HMAC = %x, want %s", i, pass, got, c.want)
			}
		}
	}
}

// TestHMACKeyMatchesStdlib: one NewHMAC key, summed over several random
// messages, matches crypto/hmac for random keys of 0 to 200 bytes.
func TestHMACKeyMatchesStdlib(t *testing.T) {
	r := mrand.New(mrand.NewSource(1))
	for i := 0; i < 200; i++ {
		key := make([]byte, r.Intn(201))
		r.Read(key)
		k := NewHMAC(key)
		for j := 0; j < 4; j++ {
			msg := make([]byte, r.Intn(300))
			r.Read(msg)
			m := hmac.New(sha256.New, key)
			m.Write(msg)
			if got := k.Sum(msg); !bytes.Equal(got[:], m.Sum(nil)) {
				t.Fatalf("key %d bytes, msg %d bytes: keyed HMAC differs from crypto/hmac", len(key), len(msg))
			}
		}
	}
}

func TestHMACMatchesStdlib(t *testing.T) {
	f := func(key, msg []byte) bool {
		m := hmac.New(sha256.New, key)
		m.Write(msg)
		want := m.Sum(nil)
		got := HMAC(key, msg)
		return bytes.Equal(got[:], want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHMACLongKey(t *testing.T) {
	key := bytes.Repeat([]byte{0xaa}, 131) // longer than block: must be pre-hashed
	m := hmac.New(sha256.New, key)
	m.Write([]byte("x"))
	want := m.Sum(nil)
	got := HMAC(key, []byte("x"))
	if !bytes.Equal(got[:], want) {
		t.Fatalf("long-key HMAC mismatch: %x vs %x", got, want)
	}
}

func TestHMACBlocks(t *testing.T) {
	// Attestation message is measurement(32) + data(32) = 64 bytes:
	// inner = 1 key block + 64B msg + padding block = 3; outer = 2.
	if got := HMACBlocks(64); got != 5 {
		t.Fatalf("HMACBlocks(64) = %d, want 5", got)
	}
	if got := HMACBlocks(0); got != 4 {
		t.Fatalf("HMACBlocks(0) = %d, want 4", got)
	}
}

func TestWordBytesRoundTrip(t *testing.T) {
	f := func(ws []uint32) bool {
		b := WordsToBytes(ws)
		back := BytesToWords(b)
		if len(back) != len(ws) {
			return false
		}
		for i := range ws {
			if back[i] != ws[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqualConstantTime(t *testing.T) {
	var a, b [Size]byte
	rand.Read(a[:])
	b = a
	if !Equal(a, b) {
		t.Fatal("Equal(a, a) = false")
	}
	b[31] ^= 1
	if Equal(a, b) {
		t.Fatal("Equal on differing MACs = true")
	}
}

func BenchmarkSHA256_4k(b *testing.B) {
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		Sum256(buf)
	}
}

// BenchmarkHMACKeySum is one MAC of a 12-byte message under an
// already-keyed HMAC.
func BenchmarkHMACKeySum(b *testing.B) {
	k := NewHMAC(make([]byte, 32))
	var msg [12]byte
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint32(msg[8:], uint32(i))
		k.Sum(msg[:])
	}
}

// BenchmarkXORKeyStream is one seal's keystream: 813 blocks of eight
// words, the size of a notary checkpoint.
func BenchmarkXORKeyStream(b *testing.B) {
	k := NewHMAC(make([]byte, 32))
	dst := make([]uint32, 813*8)
	for i := 0; i < b.N; i++ {
		k.XORKeyStream([8]byte{byte(i)}, dst)
	}
}

func BenchmarkHMAC64(b *testing.B) {
	key := make([]byte, 32)
	msg := make([]byte, 64)
	for i := 0; i < b.N; i++ {
		HMAC(key, msg)
	}
}
