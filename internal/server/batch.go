package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/batch"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/sha2"
	"repro/internal/tenant"
)

// Headers of the batching/admission plane. The gateway forwards the
// request headers to backends and the response headers back to clients
// unmodified (docs/GATEWAY.md), so tenant accounting and rejection
// classification work fleet-wide.
const (
	// TenantHeader carries the client's admission token.
	TenantHeader = "X-Komodo-Tenant"
	// NonceHeader optionally pins the per-request leaf nonce
	// (2*batch.NonceSize hex chars); normally the server mints it.
	NonceHeader = "X-Komodo-Nonce"
	// RejectHeader classifies every 429/503: rate_limit, quota, shed,
	// queue_full, timeout, drain.
	RejectHeader = "X-Komodo-Reject"
	// TierHeader reports the tier the request was accounted to.
	TierHeader = "X-Komodo-Tier"
	// BatchHeader reports the sealed batch size on a batched sign response.
	BatchHeader = "X-Komodo-Batch"
)

// Rejection classes for RejectHeader beyond the tenant.Reason* ones.
const (
	RejectQueueFull = "queue_full"
	RejectTimeout   = "timeout"
	RejectDrain     = "drain"
)

// tenantKey carries the admission decision through the request context to
// the sign path (which binds the tenant label into the Merkle leaf).
type tenantKey struct{}

// tenantLabel resolves the tenant label for leaf binding: the admission
// decision if admission ran, else the raw token, else "anon".
func tenantLabel(r *http.Request) string {
	if d, ok := r.Context().Value(tenantKey{}).(tenant.Decision); ok {
		return d.Tenant
	}
	if tok := r.Header.Get(TenantHeader); tok != "" {
		return tok
	}
	return "anon"
}

// withTenant runs admission control in front of a worker-path handler:
// shed/quota/rate checks against the tier of the request's token, 429 +
// Retry-After + RejectHeader on rejection, per-tier latency accounting on
// admission. A nil registry admits everything untouched.
func (s *Server) withTenant(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.Admission == nil {
			h(w, r)
			return
		}
		// Queue pressure for shedding: the HTTP slot queue, or the batch
		// aggregator's waiter queue when that one is fuller (batched signs
		// bypass the slot queue entirely).
		qLen, qCap := len(s.slots), s.cfg.QueueDepth
		if s.agg != nil && qCap > 0 {
			// Pressure reports the adaptive capacity (scaled to the
			// current K) rather than the static MaxQueue, so shedding
			// tracks what the aggregator can actually drain right now.
			if bLen, bCap := s.agg.Pressure(); bLen*qCap > qLen*bCap {
				qLen, qCap = bLen, bCap
			}
		}
		d := s.cfg.Admission.Admit(r.Header.Get(TenantHeader), qLen, qCap)
		w.Header().Set(TierHeader, d.Tier)
		if !d.OK {
			s.requests.Add(1)
			s.tenantRejects.Add(1)
			retry := d.RetryAfter
			if retry < 1 {
				retry = 1
			}
			w.Header().Set(RejectHeader, d.Reason)
			obs.ReplyErr(w, d.Status, strconv.Itoa(retry), "admission: %s", d.Reason)
			return
		}
		start := time.Now()
		h(w, r.WithContext(context.WithValue(r.Context(), tenantKey{}, d)))
		s.tierLat.Observe(d.Tier, obs.OutcomeOf(w), time.Since(start))
	}
}

// mintNonce returns the request's leaf nonce: the NonceHeader override if
// present, else fresh random bytes.
func mintNonce(hexOverride string) ([batch.NonceSize]byte, error) {
	var n [batch.NonceSize]byte
	if hexOverride != "" {
		b, err := hex.DecodeString(hexOverride)
		if err != nil {
			return n, err
		}
		if len(b) != batch.NonceSize {
			return n, fmt.Errorf("want %d nonce bytes, got %d", batch.NonceSize, len(b))
		}
		copy(n[:], b)
		return n, nil
	}
	_, err := rand.Read(n[:])
	return n, err
}

// signBatchRoot is the aggregator's SignFunc: one worker checkout, one
// enclave entry for the whole batch, checkpointed like a single sign so
// durable counters keep their once-issued-never-replayed guarantee.
func (s *Server) signBatchRoot(ctx context.Context, root [8]uint32) (batch.SignedRoot, error) {
	wk, err := s.cfg.Pool.Get(ctx)
	if err != nil {
		return batch.SignedRoot{}, err
	}
	st, ok := wk.State().(*WorkerState)
	if !ok {
		s.cfg.Pool.Release(ctx, wk, pool.Fail)
		return batch.SignedRoot{}, fmt.Errorf("worker state is %T, want *WorkerState", wk.State())
	}
	n, err := BatchSign(ctx, st, root)
	if err != nil {
		s.cfg.Pool.Release(ctx, wk, pool.Fail)
		return batch.SignedRoot{}, err
	}
	if err := s.maybeCheckpoint(ctx, wk, st, n.Counter); err != nil {
		s.cfg.Pool.Release(ctx, wk, pool.Fail)
		return batch.SignedRoot{}, fmt.Errorf("checkpointing batch notary: %w", err)
	}
	sr := batch.SignedRoot{
		Root:     root,
		Counter:  n.Counter,
		Digest:   n.Digest,
		MAC:      n.MAC,
		Worker:   wk.ID(),
		Epoch:    wk.Epoch(),
		Restores: st.Restores,
	}
	s.cfg.Pool.Release(ctx, wk, pool.Keep)
	return sr, nil
}

// BatchProof is the inclusion-proof section of a batched NotaryResponse:
// everything a verifier needs to check the receipt offline against the
// enclave-signed (root, counter) — see docs/BATCHING.md §Proof format and
// cmd/komodo-verify -receipt.
type BatchProof struct {
	Root      string   `json:"root"`       // Merkle root the enclave signed, hex
	Leaf      string   `json:"leaf"`       // this request's leaf hash, hex
	LeafIndex int      `json:"leaf_index"` // position in the batch
	BatchSize int      `json:"batch_size"` // leaves in the sealed batch
	Path      []string `json:"path"`       // audit path, leaf-to-root, hex
	Tenant    string   `json:"tenant"`     // tenant label bound into the leaf
	Nonce     string   `json:"nonce"`      // per-request nonce bound into the leaf, hex
	// Coalesced reports how many requests share this leaf when batch
	// dedup folded identical (doc, tenant) submissions together; omitted
	// (and implicitly 1) on sole-owner leaves, so responses are
	// byte-identical to the non-dedup path unless coalescing happened.
	Coalesced int `json:"coalesced,omitempty"`
}

// handleBatchSign is the batched /v1/notary/sign path: enqueue the request
// with the aggregator, wait for the sealed batch's receipt, and reply with
// the shared (root, counter, MAC) plus this request's inclusion proof.
func (s *Server) handleBatchSign(w http.ResponseWriter, r *http.Request, doc []byte) {
	// Like the unbatched path, a malformed request is refused before it
	// counts as admitted, so every counted request lands in one response
	// class.
	nonce, err := mintNonce(r.Header.Get(NonceHeader))
	if err != nil {
		s.replyErr(w, http.StatusBadRequest, "bad %s: %v", NonceHeader, err)
		return
	}
	s.requests.Add(1)
	if s.draining.Load() {
		w.Header().Set(RejectHeader, RejectDrain)
		s.replyDraining(w)
		return
	}
	h := sha2.New()
	h.Write(doc)
	req := batch.Request{
		DocDigest: h.SumWords(),
		Tenant:    tenantLabel(r),
		Nonce:     nonce,
		// Only server-minted nonces may fold onto another request's
		// leaf: a pinned NonceHeader is a client contract that exactly
		// that nonce appears in the leaf, so it always gets its own.
		Coalescable: r.Header.Get(NonceHeader) == "",
	}

	ctx, cancel := s.requestCtx(r)
	defer cancel()
	tr := obs.FromContext(r.Context())
	sp := tr.StartSpan("batch")
	rec, err := s.agg.Submit(ctx, req)
	switch {
	case err == nil:
		sp.EndDetailN("size=", int64(rec.BatchSize))
	case errors.Is(err, batch.ErrSaturated):
		sp.EndDetail("saturated")
		s.rejected.Add(1)
		w.Header().Set(RejectHeader, RejectQueueFull)
		s.replyErr(w, http.StatusTooManyRequests, "batch queue saturated")
		return
	case errors.Is(err, batch.ErrClosed):
		sp.EndDetail("closed")
		w.Header().Set(RejectHeader, RejectDrain)
		s.replyDraining(w)
		return
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		sp.EndDetail("timeout")
		s.timeouts.Add(1)
		w.Header().Set(RejectHeader, RejectTimeout)
		s.replyErr(w, http.StatusServiceUnavailable, "no batch signature within deadline: %v", err)
		return
	default:
		sp.EndDetail("error")
		s.failures.Add(1)
		s.replyErr(w, http.StatusInternalServerError, "%v", err)
		return
	}

	path := make([]string, len(rec.Path))
	for i, p := range rec.Path {
		path[i] = EncodeWords(p)
	}
	w.Header().Set(BatchHeader, strconv.Itoa(rec.BatchSize))
	s.served.Add(1)
	coalesced := 0
	if rec.Coalesced > 1 {
		coalesced = rec.Coalesced
	}
	obs.Reply(w, http.StatusOK, NotaryResponse{
		Counter:  rec.Counter,
		Digest:   EncodeWords(rec.Digest),
		MAC:      EncodeWords(rec.MAC),
		Worker:   rec.Worker,
		Epoch:    rec.Epoch,
		Restores: rec.Restores,
		Batch: &BatchProof{
			Root:      EncodeWords(rec.Root),
			Leaf:      EncodeWords(rec.Leaf),
			LeafIndex: rec.LeafIndex,
			BatchSize: rec.BatchSize,
			Path:      path,
			Tenant:    req.Tenant,
			// The leaf's nonce, not necessarily the minted one: a
			// coalesced waiter inherits the leaf owner's nonce so the
			// receipt verifies against the leaf it actually landed in.
			Nonce:     hex.EncodeToString(rec.Nonce[:]),
			Coalesced: coalesced,
		},
	})
}

// VerifyBatchReceipt checks a batched NotaryResponse offline: the leaf
// must include-prove into the root, and the response digest must equal
// batch.RootDigest(root, counter). (The MAC itself additionally verifies
// against the notary's measured identity via the monitor's attestation
// scheme — cmd/komodo-verify does that with platform access; remote
// clients trust the digest binding plus the attested MAC like they do for
// single signs.) If doc is non-nil the leaf itself is recomputed from
// SHA-256(doc) ‖ tenant ‖ nonce and must match.
func VerifyBatchReceipt(resp NotaryResponse, doc []byte) error {
	if resp.Batch == nil {
		return fmt.Errorf("response has no batch proof")
	}
	b := resp.Batch
	root, err := DecodeWords(b.Root)
	if err != nil {
		return fmt.Errorf("bad root: %v", err)
	}
	leaf, err := DecodeWords(b.Leaf)
	if err != nil {
		return fmt.Errorf("bad leaf: %v", err)
	}
	path := make([][8]uint32, len(b.Path))
	for i, ps := range b.Path {
		if path[i], err = DecodeWords(ps); err != nil {
			return fmt.Errorf("bad path[%d]: %v", i, err)
		}
	}
	if doc != nil {
		nonce, err := hex.DecodeString(b.Nonce)
		if err != nil || len(nonce) != batch.NonceSize {
			return fmt.Errorf("bad nonce %q", b.Nonce)
		}
		h := sha2.New()
		h.Write(doc)
		if want := batch.LeafHash(h.SumWords(), b.Tenant, nonce); want != leaf {
			return fmt.Errorf("leaf does not match document/tenant/nonce")
		}
	}
	if !batch.VerifyInclusion(leaf, b.LeafIndex, b.BatchSize, path, root) {
		return fmt.Errorf("inclusion proof failed (index %d of %d)", b.LeafIndex, b.BatchSize)
	}
	digest, err := DecodeWords(resp.Digest)
	if err != nil {
		return fmt.Errorf("bad digest: %v", err)
	}
	if want := batch.RootDigest(root, resp.Counter); digest != want {
		return fmt.Errorf("digest does not bind (root, counter=%d)", resp.Counter)
	}
	return nil
}
