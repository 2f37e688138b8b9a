package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// MigrationReport is what a completed live migration returns (and the
// /v1/admin/migrate response body).
type MigrationReport struct {
	From      string `json:"from"`
	To        string `json:"to"`
	Worker    int    `json:"worker"`     // source worker the checkpoint sealed
	Counter   uint32 `json:"counter"`    // last store-confirmed counter in the moved lineage
	Restores  int    `json:"restores"`   // target worker's lineage marker after the push
	BlobWords int    `json:"blob_words"` // sealed notary size moved
	Drained   bool   `json:"drained"`    // whether the source was drained
	DurMS     int64  `json:"dur_ms"`
}

// Migrate live-migrates the source backend's notary shards to the target:
//
//  1. Hold: mark the source migrating, so new shard requests for its arcs
//     get a retryable 503 (Retry-After: 1) instead of racing the move.
//  2. Quiesce: wait for the gateway's in-flight count on the source to
//     reach zero — every signing that could still advance the counter has
//     either finished or failed.
//  3. Drain (optional): POST /v1/drain on the source so it also refuses
//     traffic arriving around the gateway.
//  4. Pull: POST /v1/checkpoint on the source — the enclave seals its
//     notary (counter included) into a blob only sibling enclaves on a
//     same-secret board can open. The gateway relays it; it cannot read
//     or forge it.
//  5. Push: POST the sealed checkpoint to the target's /v1/restore. The
//     target verifies the seal, swaps the restored notary in, bumps its
//     Restores lineage marker and rebases.
//  6. Flip: forward[from] = to. The source's ring arcs now resolve to the
//     target; held traffic drains into it on retry. Because the restored
//     counter is exactly the sealed one and the hold kept any signing
//     from racing the seal, the per-shard counter stream stays strictly
//     monotonic across the move.
//
// On any failure before the flip the hold is released, the source is
// un-drained if step 3 had drained it (POST /v1/drain?state=off), and
// routing is unchanged — the worst case is a few retryable 503s, never
// a node stranded out of service by a transient checkpoint or restore
// error.
func (g *Gateway) Migrate(ctx context.Context, from, to int, drainSource bool) (MigrationReport, error) {
	var rep MigrationReport
	if from < 0 || from >= len(g.backends) || to < 0 || to >= len(g.backends) {
		return rep, fmt.Errorf("gateway: backend index out of range")
	}
	if from == to {
		return rep, fmt.Errorf("gateway: cannot migrate %s onto itself", g.backends[from].name)
	}
	if g.resolve(to) != to {
		return rep, fmt.Errorf("gateway: target %s is itself forwarded away", g.backends[to].name)
	}
	src, dst := g.backends[from], g.backends[to]
	rep.From, rep.To = src.name, dst.name
	start := time.Now()

	g.mu.Lock()
	if g.migrating[from] {
		g.mu.Unlock()
		return rep, fmt.Errorf("gateway: %s already migrating", src.name)
	}
	if _, ok := g.forward[from]; ok {
		g.mu.Unlock()
		return rep, fmt.Errorf("gateway: %s already migrated away", src.name)
	}
	g.migrating[from] = true
	g.mu.Unlock()
	release := func() {
		g.mu.Lock()
		delete(g.migrating, from)
		g.mu.Unlock()
	}
	// fail unwinds an aborted migration: un-drain the source if we had
	// drained it (on a fresh context — the original may be the reason we
	// are failing), then drop the hold. Routing is left exactly as it
	// was; only if the un-drain itself fails does the caller learn the
	// node needs manual attention.
	fail := func(err error) (MigrationReport, error) {
		if rep.Drained {
			if _, uerr := g.adminPost(context.Background(), src, "/v1/drain?state=off", nil, nil); uerr != nil {
				err = fmt.Errorf("%w (un-drain of %s also failed, node left draining: %v)", err, src.name, uerr)
			} else {
				rep.Drained = false
			}
		}
		release()
		return rep, err
	}

	// Quiesce: routeShard/nextUp take the in-flight reservation inside
	// the same g.mu section that checks the hold, and the hold above was
	// set under the write lock — so every request routed to the source
	// before the hold is already visible in its in-flight count, and no
	// new one can be admitted. The count only goes down from here.
	for src.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return fail(fmt.Errorf("gateway: quiesce: %w", ctx.Err()))
		case <-time.After(5 * time.Millisecond):
		}
	}

	if drainSource {
		if _, err := g.adminPost(ctx, src, "/v1/drain", nil, nil); err != nil {
			return fail(fmt.Errorf("gateway: drain %s: %w", src.name, err))
		}
		rep.Drained = true
	}

	var ckpt server.CheckpointResponse
	if _, err := g.adminPost(ctx, src, "/v1/checkpoint", nil, &ckpt); err != nil {
		return fail(fmt.Errorf("gateway: checkpoint %s: %w", src.name, err))
	}
	rep.Worker, rep.Counter, rep.BlobWords = ckpt.Worker, ckpt.Counter, ckpt.BlobWords

	var restored server.RestoreResponse
	if _, err := g.adminPost(ctx, dst, "/v1/restore", []byte(ckpt.Checkpoint), &restored); err != nil {
		return fail(fmt.Errorf("gateway: restore onto %s: %w", dst.name, err))
	}
	rep.Restores = restored.Restores

	g.mu.Lock()
	g.forward[from] = to
	delete(g.migrating, from)
	g.mu.Unlock()
	g.migrations.Add(1)
	rep.DurMS = time.Since(start).Milliseconds()
	return rep, nil
}

// Reinstate removes the forwarding entry for a backend, handing its ring
// arcs back (after, say, the node was rebuilt and its state migrated
// home again). It does not move state — pair it with a reverse Migrate.
func (g *Gateway) Reinstate(idx int) error {
	if idx < 0 || idx >= len(g.backends) {
		return fmt.Errorf("gateway: backend index out of range")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.forward[idx]; !ok {
		return fmt.Errorf("gateway: %s is not forwarded", g.backends[idx].name)
	}
	delete(g.forward, idx)
	return nil
}

// adminPost POSTs to a backend's orchestration plane and decodes the JSON
// reply into out (when non-nil). Non-2xx replies become errors carrying
// the backend's error body.
func (g *Gateway) adminPost(ctx context.Context, b *backend, path string, body []byte, out any) (int, error) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, server.MaxCheckpointBytes))
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("%s: %d: %s", path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s: decoding reply: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// handleMigrate is the HTTP face of Migrate:
// POST /v1/admin/migrate?from=NAME&to=NAME[&drain=1].
func (g *Gateway) handleMigrate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		obs.ReplyErr(w, http.StatusMethodNotAllowed, "", "POST with from= and to=")
		return
	}
	from := g.Backend(r.URL.Query().Get("from"))
	to := g.Backend(r.URL.Query().Get("to"))
	if from < 0 || to < 0 {
		obs.ReplyErr(w, http.StatusBadRequest, "", "from= and to= must name configured backends")
		return
	}
	drain := r.URL.Query().Get("drain") == "1" || r.URL.Query().Get("drain") == "true"
	rep, err := g.Migrate(r.Context(), from, to, drain)
	if err != nil {
		obs.ReplyErr(w, http.StatusConflict, "", "%v", err)
		return
	}
	obs.Reply(w, http.StatusOK, rep)
}

// handleReinstate is POST /v1/admin/reinstate?backend=NAME.
func (g *Gateway) handleReinstate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		obs.ReplyErr(w, http.StatusMethodNotAllowed, "", "POST with backend=")
		return
	}
	idx := g.Backend(r.URL.Query().Get("backend"))
	if idx < 0 {
		obs.ReplyErr(w, http.StatusBadRequest, "", "backend= must name a configured backend")
		return
	}
	if err := g.Reinstate(idx); err != nil {
		obs.ReplyErr(w, http.StatusConflict, "", "%v", err)
		return
	}
	obs.Reply(w, http.StatusOK, map[string]string{"status": "reinstated", "backend": r.URL.Query().Get("backend")})
}
