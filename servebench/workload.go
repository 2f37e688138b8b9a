package main

import (
	"encoding/hex"
	"math/rand"
)

// workload is one named traffic mix. Later changes cite these names.
type workload struct {
	name string
	// sign selects POST /v1/notary/sign with durable counters (a state
	// dir, a checkpoint after every sign); otherwise GET /v1/attest with
	// no state dir.
	sign bool
	// batched turns on the write path docs/BATCHING.md recommends under
	// load: adaptive K in [2, 32], a 2 ms window, dedup and group commit.
	// Documents then come from a shared Zipf-ranked corpus so dedup has
	// repeats to coalesce.
	batched bool
}

// Why each workload exists:
//   - attest is the stateless read path (interpreter, quoting enclave,
//     one delta restore per request). It bypasses seal, WAL, rebase and
//     batching, so a write-path change must show no change here.
//   - sign-durable is the durable write path: sign, seal, WAL append +
//     fsync and rebase on every request.
//   - sign-batched runs the same durable layers once per Merkle batch,
//     and is the only workload that runs batching, dedup and group commit.
var workloads = map[string]workload{
	"attest":       {name: "attest"},
	"sign-durable": {name: "sign-durable", sign: true},
	"sign-batched": {name: "sign-batched", sign: true, batched: true},
}

const (
	corpusSize = 256 // documents in the sign-batched corpus
	zipfS      = 1.2 // Zipf exponent over corpus ranks
	nonceBytes = 16  // random bytes per attest nonce
	minDoc     = 64  // document sizes are uniform in [minDoc, maxDoc]
	maxDoc     = 255
)

// request is one generated operation: an attest nonce or a document to
// sign. rank is the corpus rank of doc on sign-batched, else -1.
type request struct {
	nonce string
	doc   []byte
	rank  int
}

// generator produces one client's request sequence. The same (workload,
// seed, client) always yields the same sequence.
type generator struct {
	w      workload
	rng    *rand.Rand
	zipf   *rand.Zipf
	corpus [][]byte
}

// newGenerator seeds client's stream from the run seed. corpus is shared
// read-only by every client of a sign-batched run (see newCorpus).
func newGenerator(w workload, seed int64, client int, corpus [][]byte) *generator {
	g := &generator{w: w, rng: rand.New(rand.NewSource(mix(seed, int64(client)+1)))}
	if w.batched {
		g.corpus = corpus
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(len(corpus)-1))
	}
	return g
}

// newCorpus builds the sign-batched document corpus from the run seed:
// corpusSize documents of uniform random length and content.
func newCorpus(seed int64) [][]byte {
	rng := rand.New(rand.NewSource(mix(seed, 0)))
	docs := make([][]byte, corpusSize)
	for i := range docs {
		docs[i] = randomDoc(rng)
	}
	return docs
}

func randomDoc(rng *rand.Rand) []byte {
	d := make([]byte, minDoc+rng.Intn(maxDoc-minDoc+1))
	rng.Read(d)
	return d
}

func (g *generator) next() request {
	switch {
	case g.w.batched:
		r := int(g.zipf.Uint64())
		return request{doc: g.corpus[r], rank: r}
	case g.w.sign:
		return request{doc: randomDoc(g.rng), rank: -1}
	default:
		b := make([]byte, nonceBytes)
		g.rng.Read(b)
		return request{nonce: hex.EncodeToString(b), rank: -1}
	}
}

// mix derives an independent stream seed from the run seed and a stream
// index (splitmix64 finaliser), so neighbouring seeds do not give
// overlapping client streams.
func mix(seed, stream int64) int64 {
	z := uint64(seed) + uint64(stream)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64(z ^ z>>31)
}
