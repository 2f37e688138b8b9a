package main

import (
	"fmt"
	"sync"

	"repro/internal/kasm"
	"repro/internal/server"
	"repro/internal/sha2"
)

// outcome is what one verified operation returned.
type outcome struct {
	worker, epoch, restores int
	counter                 uint32
	quote                   [8]uint32 // attest only
	root                    [8]uint32 // sign-batched only: the signed Merkle root
}

// checkQuote checks an attestation offline: the attested data must be
// the nonce's digest and the quote must verify under the quote key.
func checkQuote(qk [8]uint32, nonce string, data, meas, quote [8]uint32) error {
	if data != server.NonceWords([]byte(nonce)) {
		return fmt.Errorf("attest: data is not H(nonce)")
	}
	if !kasm.VerifyQuote(qk, meas, data, quote) {
		return fmt.Errorf("attest: quote does not verify")
	}
	return nil
}

// checkDigest checks an unbatched signature's digest: H(docwords ‖
// counter), docwords being the document zero-padded to whole 64-byte
// blocks as the notary reads it.
func checkDigest(doc []byte, counter uint32, digest [8]uint32) error {
	padded := make([]byte, (len(doc)+63)/64*64)
	copy(padded, doc)
	h := sha2.New()
	h.WriteWords(sha2.BytesToWords(padded))
	h.WriteWords([]uint32{counter})
	if h.SumWords() != digest {
		return fmt.Errorf("sign: digest is not H(doc ‖ %d)", counter)
	}
	return nil
}

// checkSign verifies a /v1/notary/sign response for doc: the digest of
// an unbatched sign, or the whole receipt of a batched one.
func checkSign(doc []byte, resp server.NotaryResponse, batched bool) (outcome, error) {
	o := outcome{worker: resp.Worker, epoch: resp.Epoch, restores: resp.Restores, counter: resp.Counter}
	if batched {
		if err := server.VerifyBatchReceipt(resp, doc); err != nil {
			return o, fmt.Errorf("sign: receipt: %w", err)
		}
		root, err := server.DecodeWords(resp.Batch.Root)
		o.root = root
		return o, err
	}
	if resp.Batch != nil {
		return o, fmt.Errorf("sign: unexpected batch proof")
	}
	digest, err := server.DecodeWords(resp.Digest)
	if err != nil {
		return o, fmt.Errorf("sign: digest: %w", err)
	}
	return o, checkDigest(doc, resp.Counter, digest)
}

// stream is one counter lineage: counters are monotonic within one
// (worker, epoch, restores) window.
type stream struct{ worker, epoch, restores int }

type issued struct {
	s       stream
	counter uint32
}

type clientStream struct {
	client int
	s      stream
}

// ledger checks counters across every client of a run and remembers each
// worker's highest acknowledged counter for the durability check. A
// counter signs exactly one thing: one document when unbatched, one
// Merkle root (shared by every receipt of the batch) when batched. Along
// one client's own requests, counters strictly increase per stream.
type ledger struct {
	mu     sync.Mutex
	signed map[issued][8]uint32 // counter → root it signed (zero when unbatched)
	last   map[clientStream]uint32
	maxAck map[int]uint32
}

func newLedger() *ledger {
	return &ledger{signed: map[issued][8]uint32{}, last: map[clientStream]uint32{}, maxAck: map[int]uint32{}}
}

func (l *ledger) record(client int, o outcome, batched bool) error {
	s := stream{o.worker, o.epoch, o.restores}
	l.mu.Lock()
	defer l.mu.Unlock()
	cs := clientStream{client, s}
	if last, ok := l.last[cs]; ok && o.counter <= last {
		return fmt.Errorf("counter %d after %d on worker %d", o.counter, last, o.worker)
	}
	l.last[cs] = o.counter
	k := issued{s, o.counter}
	if root, ok := l.signed[k]; ok && (!batched || root != o.root) {
		return fmt.Errorf("counter %d issued twice on worker %d", o.counter, o.worker)
	}
	l.signed[k] = o.root
	if o.counter > l.maxAck[o.worker] {
		l.maxAck[o.worker] = o.counter
	}
	return nil
}

// highest returns a copy of the highest acknowledged counter per worker.
func (l *ledger) highest() map[int]uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[int]uint32, len(l.maxAck))
	for w, c := range l.maxAck {
		out[w] = c
	}
	return out
}
