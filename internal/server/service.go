// Package server is the HTTP/JSON serving layer over a pool of simulated
// Komodo boards: network attestation (nonce-fresh quotes via the quoting
// enclave) and a notary signing service, with bounded-queue backpressure,
// per-request deadlines, and graceful drain. See docs/SERVING.md.
package server

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"

	"repro/internal/batch"
	"repro/internal/kasm"
	"repro/internal/pool"
	"repro/internal/sha2"
	"repro/komodo"
)

// WorkerState is the per-board application state a BootWorker-built pool
// hands to request handlers: the three enclaves every request flow needs,
// plus the quote key extracted over the manufacturer's provisioning
// channel at boot.
type WorkerState struct {
	QE       *komodo.Enclave // quoting enclave (provisioned)
	Attester *komodo.Enclave // attests over a caller nonce from shared memory
	Notary   *komodo.Enclave // §8.2 notary: monotonic counter + MAC
	QuoteKey [8]uint32
	// Restores counts foreign checkpoints restored onto this worker via
	// /v1/restore since boot — the lineage marker notary responses carry
	// so migrated counter streams stay distinguishable from the streams
	// they displaced.
	Restores int

	// ckpt is the checkpoint Server.maybeCheckpoint seals the notary
	// into, reused from sign to sign: Save copies it into its WAL frame,
	// and the worker is checked out for the whole seal and save.
	ckpt komodo.Checkpoint
	// words is NotarySign's document in the notary's wire format, then
	// the counter, reused from sign to sign like ckpt.
	words []uint32
}

// NotarySharedPages sizes the notary's shared region; documents up to
// (NotarySharedPages*4096 - 64) bytes fit alongside nothing — the MAC
// output overwrites the first 8 document words after the run.
const NotarySharedPages = 4

// MaxDocBytes is the largest document /v1/notary/sign accepts: the
// notary's shared region, whole 64-byte SHA-256 blocks.
const MaxDocBytes = NotarySharedPages * 4096

// Blueprint returns a pool.BootFunc that boots one serving board: load
// the quoting enclave and provision it, extract the quote key
// (manufacture-time, over a channel the simulated OS does not have), then
// load the attester and notary enclaves. The pool snapshots the board
// right after, so every restore rewinds to this exact point — provisioned
// quoting enclave, notary counter at zero.
//
// Determinism note: all workers boot from the same seed, so every board
// is bit-identical — same quote key, same measurements, same platform
// attestation key. One provisioned verifier key therefore checks quotes
// from any worker.
func Blueprint(seed uint64, opts ...komodo.Option) pool.BootFunc {
	return func() (*komodo.System, any, error) {
		imgs, err := guestImages()
		if err != nil {
			return nil, nil, err
		}
		sys, err := komodo.New(append([]komodo.Option{komodo.WithSeed(seed), komodo.WithTelemetry()}, opts...)...)
		if err != nil {
			return nil, nil, err
		}
		st := &WorkerState{}

		if st.QE, err = sys.LoadEnclave(imgs.qe); err != nil {
			return nil, nil, fmt.Errorf("quoting enclave: %w", err)
		}
		if res, err := st.QE.Run(0); err != nil || res.Value != 1 {
			return nil, nil, fmt.Errorf("provisioning failed: %v %+v", err, res)
		}
		db, err := sys.Monitor().DecodePageDB()
		if err != nil {
			return nil, nil, err
		}
		key, ok := kasm.QuoteKeyFromDataPage(db, komodo.PageNr(st.QE.AddrspacePage()))
		if !ok {
			return nil, nil, fmt.Errorf("quote key extraction failed")
		}
		st.QuoteKey = key

		if st.Attester, err = sys.LoadEnclave(imgs.attester); err != nil {
			return nil, nil, fmt.Errorf("attester: %w", err)
		}
		if st.Notary, err = sys.LoadEnclave(imgs.notary); err != nil {
			return nil, nil, fmt.Errorf("notary: %w", err)
		}
		return sys, st, nil
	}
}

// serviceImages are the three enclave images every serving board loads.
type serviceImages struct{ qe, attester, notary komodo.Image }

// guestImages assembles the serving guests once per process. Loading an
// enclave only reads its image, so every board shares these.
var guestImages = sync.OnceValues(assembleGuests)

func assembleGuests() (imgs serviceImages, err error) {
	if imgs.qe, err = assemble(kasm.QuotingEnclave()); err != nil {
		return imgs, fmt.Errorf("quoting enclave: %w", err)
	}
	if imgs.attester, err = assemble(kasm.AttestShared()); err != nil {
		return imgs, fmt.Errorf("attester: %w", err)
	}
	// The two-mode batch notary: classic single-document signs and
	// Merkle-root batch signs share one counter stream (docs/BATCHING.md).
	if imgs.notary, err = assemble(kasm.BatchNotaryGuest(NotarySharedPages)); err != nil {
		return imgs, fmt.Errorf("notary: %w", err)
	}
	return imgs, nil
}

func assemble(g kasm.Guest) (komodo.Image, error) {
	nimg, err := g.Image()
	return komodo.FromNWOSImage(nimg), err
}

// HealthCheck is a pool health check for Blueprint-booted workers: after
// a restore the attester must still produce a quote-verifiable MAC for a
// probe nonce. It is a full request flow, so it is not free — enable it
// when debugging worker state, not on the hot path.
func HealthCheck(sys *komodo.System, state any) error {
	st, ok := state.(*WorkerState)
	if !ok {
		return fmt.Errorf("server: unexpected worker state %T", state)
	}
	att, err := Attest(context.Background(), st, NonceWords([]byte("healthcheck probe")))
	if err != nil {
		return err
	}
	if !kasm.VerifyQuote(st.QuoteKey, att.Measurement, att.Data, att.Quote) {
		return fmt.Errorf("server: health probe quote did not verify")
	}
	return nil
}

// NonceWords derives the 8 attested data words from a caller nonce of any
// length: SHA-256 of the raw bytes. Clients verify a response by
// recomputing this from the nonce they sent.
func NonceWords(nonce []byte) [8]uint32 {
	h := sha2.New()
	h.Write(nonce)
	return h.SumWords()
}

// Attestation is the result of one attest flow on a worker.
type Attestation struct {
	Data        [8]uint32 // what was attested: NonceWords(nonce)
	Measurement [8]uint32 // the attester enclave's measurement
	Quote       [8]uint32 // MAC_qk(measurement ‖ data) from the quoting enclave
}

// Attest runs the full network-attestation flow on a checked-out worker:
// the attester enclave attests over the nonce-derived data words, the
// untrusted relay (this server, playing the OS) hands the local
// attestation to the quoting enclave, and the quoting enclave re-quotes
// it after an in-enclave Verify. When ctx carries an observability trace
// (internal/obs) each enclave crossing lands on it as a span.
func Attest(ctx context.Context, st *WorkerState, data [8]uint32) (Attestation, error) {
	var out Attestation
	out.Data = data
	if err := st.Attester.WriteShared(0, kasm.AttestSharedIn, data[:]); err != nil {
		return out, err
	}
	res, err := st.Attester.RunCtx(ctx)
	if err != nil {
		return out, err
	}
	if res.Value != 1 {
		return out, fmt.Errorf("server: attester exited %d", res.Value)
	}
	mac, err := st.Attester.ReadShared(0, kasm.AttestSharedOut, 8)
	if err != nil {
		return out, err
	}
	meas, err := st.Attester.Measurement()
	if err != nil {
		return out, err
	}
	out.Measurement = meas

	payload := make([]uint32, 24)
	copy(payload[kasm.QuoteInData:], data[:])
	copy(payload[kasm.QuoteInMeasure:], meas[:])
	copy(payload[kasm.QuoteInMAC:], mac)
	if err := st.QE.WriteShared(0, 0, payload); err != nil {
		return out, err
	}
	res, err = st.QE.RunCtx(ctx, 1)
	if err != nil {
		return out, err
	}
	if res.Value != 1 {
		return out, fmt.Errorf("server: quoting enclave rejected the local attestation")
	}
	quote, err := st.QE.ReadShared(0, kasm.QuoteOut, 8)
	if err != nil {
		return out, err
	}
	copy(out.Quote[:], quote)
	return out, nil
}

// Notarisation is the result of one notary signing flow.
type Notarisation struct {
	Counter uint32    // the notary's logical timestamp for this document
	MAC     [8]uint32 // in-enclave MAC binding H(doc ‖ counter) to the notary
	Digest  [8]uint32 // H(docwords ‖ counter): what the MAC binds
}

// NotarySign submits a document to the worker's notary enclave. The
// document is zero-padded to whole 64-byte blocks. The notary's counter
// is live enclave state: callers must release the worker with pool.Keep
// so it keeps advancing, and order notarisations per (worker, epoch)
// shard — see docs/SERVING.md. When ctx carries an observability trace
// the notary's enclave crossings land on it as spans.
func NotarySign(ctx context.Context, st *WorkerState, doc []byte) (Notarisation, error) {
	var out Notarisation
	words := appendDocWords(st.words[:0], doc)
	st.words = words
	if err := st.Notary.WriteShared(0, 0, words); err != nil {
		return out, err
	}
	res, err := st.Notary.RunCtx(ctx, uint32(len(words)))
	if err != nil {
		return out, err
	}
	out.Counter = res.Value
	mac, err := st.Notary.ReadShared(0, 0, 8)
	if err != nil {
		return out, err
	}
	copy(out.MAC[:], mac)
	st.words = append(words, out.Counter) // the digest's input
	h := sha2.New()
	h.WriteWords(st.words)
	out.Digest = h.SumWords()
	return out, nil
}

// BatchSign submits a sealed batch's Merkle root to the worker's notary in
// batch mode (R1=1): one enclave crossing advances the shared counter once
// and attests batch.RootDigest(root, counter). Like NotarySign, the
// counter is live enclave state — release the worker with pool.Keep.
func BatchSign(ctx context.Context, st *WorkerState, root [8]uint32) (Notarisation, error) {
	var out Notarisation
	if err := st.Notary.WriteShared(0, 0, root[:]); err != nil {
		return out, err
	}
	res, err := st.Notary.RunCtx(ctx, 0, 1)
	if err != nil {
		return out, err
	}
	out.Counter = res.Value
	mac, err := st.Notary.ReadShared(0, 0, 8)
	if err != nil {
		return out, err
	}
	copy(out.MAC[:], mac)
	out.Digest = batch.RootDigest(root, out.Counter)
	return out, nil
}

// appendDocWords appends doc in the notary's wire format to dst:
// big-endian words, zero-padded to a whole number of 16-word SHA-256
// blocks (at least one).
func appendDocWords(dst []uint32, doc []byte) []uint32 {
	n := 16 * max((len(doc)+63)/64, 1)
	dst = slices.Grow(dst, n)
	for i := range n {
		var w [4]byte
		if 4*i < len(doc) {
			copy(w[:], doc[4*i:])
		}
		dst = append(dst, binary.BigEndian.Uint32(w[:]))
	}
	return dst
}

// EncodeWords renders 8 words as the canonical 64-char hex string used in
// every response body (big-endian, word order preserved).
func EncodeWords(ws [8]uint32) string {
	const digits = "0123456789abcdef"
	var dst [64]byte
	for i, w := range ws {
		for j := range 8 {
			dst[8*i+j] = digits[w>>(28-4*j)&0xf]
		}
	}
	return string(dst[:])
}

// DecodeWords parses EncodeWords output without allocating.
func DecodeWords(s string) ([8]uint32, error) {
	var out [8]uint32
	var src [64]byte
	if len(s) != len(src) {
		return out, fmt.Errorf("server: want 64 hex chars, got %d", len(s))
	}
	copy(src[:], s)
	var b [32]byte
	if _, err := hex.Decode(b[:], src[:]); err != nil {
		return out, err
	}
	for i := range out {
		out[i] = binary.BigEndian.Uint32(b[4*i:])
	}
	return out, nil
}
