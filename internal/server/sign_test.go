package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pool"
	"repro/internal/sha2"
)

// TestDurableSignHandlerAllocations pins what the server itself
// allocates for one unbatched durable sign: the request plane, the
// enclave sign, the seal, WAL save and rebase, and the compaction every
// ckptCompactEvery signs, with the request reused and the response
// discarded (handlerSign). It reads about 1.4 KB; reading the document
// into a fresh buffer again adds about 0.5 KB, and encoding each
// snapshot into a fresh buffer about 0.65 KB. TestNotarySignReusesWords
// and komodo's TestAppendCompactAllocations pin the two smaller cuts.
func TestDurableSignHandlerAllocations(t *testing.T) {
	if !allocFree {
		t.Skip("under -race, growing a slice allocates a temporary")
	}
	sign := handlerSign(t, durableSignServer(t), []byte("a document to notarise"))
	// Past the first compaction, so the snapshot buffer has grown.
	for range 4*ckptCompactEvery + 2 {
		if code := sign(); code != http.StatusOK {
			t.Fatalf("sign: status %d", code)
		}
	}
	// Each window holds exactly two compactions. A slow sign the flight
	// recorder retains builds its trace, and a collection empties the
	// sync.Pools, so the least of three windows is the sign's own cost.
	const runs = 2 * ckptCompactEvery
	bytes := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			sign()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	t.Logf("%d bytes per durable sign", bytes)
	const limit = 1792
	if bytes > limit {
		t.Errorf("a durable sign allocated %d bytes, want at most %d", bytes, limit)
	}
}

// TestSignDocSizesConcurrent signs documents of 1, 64, 4095 and
// MaxDocBytes bytes from concurrent clients through ServeHTTP, each
// document's bytes its own, and checks every digest against the
// document it was sent with: a document buffer or word buffer shared
// between two requests would sign one request's bytes under the other's
// response. Empty and oversized bodies, in the same mix, still get 400
// and 413. Both the unbatched and the batched path read documents into
// the pooled buffers.
func TestSignDocSizesConcurrent(t *testing.T) {
	modes := []struct {
		name string
		cfg  Config
	}{
		{"unbatched", Config{}},
		{"batched", Config{BatchMaxSize: 4, BatchWindow: 2 * time.Millisecond}},
	}
	sizes := []struct{ n, status int }{
		{1, http.StatusOK},
		{64, http.StatusOK},
		{4095, http.StatusOK},
		{MaxDocBytes, http.StatusOK},
		{0, http.StatusBadRequest},
		{MaxDocBytes + 1, http.StatusRequestEntityTooLarge},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			cfg := m.cfg
			cfg.Pool = newPool(t, pool.Config{Size: 2})
			srv := New(cfg)
			defer srv.Close()
			const clients = 4
			var wg sync.WaitGroup
			errs := make(chan error, clients*len(sizes))
			for c := range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i, sz := range sizes {
						doc := bytes.Repeat([]byte{byte(16*c + i + 1)}, sz.n)
						if err := signAndCheck(srv, doc, sz.status, cfg.BatchMaxSize > 0); err != nil {
							errs <- fmt.Errorf("client %d, %d bytes: %w", c, sz.n, err)
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// signAndCheck POSTs doc to srv's /v1/notary/sign, wants the given
// status, and on 200 checks the response against doc: the digest of an
// unbatched sign, the receipt's leaf of a batched one.
func signAndCheck(srv *Server, doc []byte, status int, batched bool) error {
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/notary/sign", bytes.NewReader(doc)))
	if w.Code != status {
		return fmt.Errorf("status %d, want %d: %s", w.Code, status, w.Body)
	}
	if status != http.StatusOK {
		return nil
	}
	var nr NotaryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &nr); err != nil {
		return err
	}
	if batched {
		return VerifyBatchReceipt(nr, doc)
	}
	// H(docwords ‖ counter), the document zero-padded to whole blocks.
	padded := make([]byte, 64*max((len(doc)+63)/64, 1))
	copy(padded, doc)
	h := sha2.New()
	h.Write(padded)
	h.WriteWords([]uint32{nr.Counter})
	if got, want := nr.Digest, EncodeWords(h.SumWords()); got != want {
		return fmt.Errorf("digest %s, want %s for counter %d", got, want, nr.Counter)
	}
	return nil
}

// TestNotarySignReusesWords: NotarySign converts the document into the
// worker's own word buffer, grown only by a longer document.
func TestNotarySignReusesWords(t *testing.T) {
	p := newPool(t, pool.Config{Size: 1})
	ctx := context.Background()
	wk, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(ctx, wk, pool.Keep)
	st := wk.State().(*WorkerState)
	sign := func(doc string) *uint32 {
		t.Helper()
		if _, err := NotarySign(ctx, st, []byte(doc)); err != nil {
			t.Fatal(err)
		}
		return &st.words[:1][0]
	}
	first := sign("one")
	if sign("two") != first || sign(strings.Repeat("x", 64)) != first {
		t.Error("a document no longer than the last grew the word buffer")
	}
	if sign(strings.Repeat("y", 4096)) == first {
		t.Error("a 64-block document fit a buffer grown for one block")
	}
}
