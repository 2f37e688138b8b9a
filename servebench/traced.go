package main

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/pool"
	"repro/internal/server"
	"repro/internal/sha2"
	"repro/internal/store"
)

// stages is the traced time of one operation (or one sealed batch),
// stage by stage, in the order the handlers call the layers.
type stages struct {
	get, enclave, checkpoint, save, rebase, release time.Duration
}

func (s stages) sum() time.Duration {
	return s.get + s.enclave + s.checkpoint + s.save + s.rebase + s.release
}

func (s *stages) add(o stages) {
	s.get += o.get
	s.enclave += o.enclave
	s.checkpoint += o.checkpoint
	s.save += o.save
	s.rebase += o.rebase
	s.release += o.release
}

// syncProbe is the store.WithSync hook of the traced run: it times every
// fsync and measures the bytes each WAL sync made durable.
type syncProbe struct {
	mu       sync.Mutex
	dur      time.Duration
	walBytes int64
	walSize  int64
}

func (p *syncProbe) sync(f *os.File) error {
	t0 := time.Now()
	err := f.Sync()
	d := time.Since(t0)
	var size int64 = -1
	if filepath.Base(f.Name()) == "wal.log" {
		if fi, serr := f.Stat(); serr == nil {
			size = fi.Size()
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dur += d
	if size >= 0 {
		if size > p.walSize { // a smaller size is a compaction's truncate
			p.walBytes += size - p.walSize
		}
		p.walSize = size
	}
	return err
}

// read returns the fsync time and WAL bytes so far.
func (p *syncProbe) read() (time.Duration, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dur, p.walBytes
}

// tracer is the traced composition: the layers a served request passes
// through, called directly in the handlers' order with no HTTP, each call
// timed from here. Nothing inside the program is instrumented.
type tracer struct {
	w     workload
	cs    *server.CheckpointStore
	pool  *pool.Pool
	agg   *batch.Aggregator
	probe *syncProbe
	qk    [8]uint32

	// Totals over every enclave call, each batch counted once.
	retired   atomic.Uint64 // ARM instructions retired
	enclaveNS atomic.Int64

	nonces  atomic.Uint64 // sign-batched: leaf nonces issued
	mu      sync.Mutex
	batches map[issued]stages // sign-batched: stages of each sealed batch
}

// openTracer builds the traced system on a fresh state dir.
func openTracer(w workload, seed int64, dir string) (*tracer, error) {
	t := &tracer{w: w, probe: &syncProbe{}, batches: map[issued]stages{}}
	cs, p, err := openLayers(w, seed, dir, store.WithSync(t.probe.sync))
	if err != nil {
		return nil, err
	}
	t.cs, t.pool = cs, p
	if w.batched {
		// The server's batch configuration, with the traced sign in place
		// of the server's.
		cfg := serverConfig(w, p, cs)
		t.agg = batch.New(batch.Config{
			MaxBatch: cfg.BatchMaxSize,
			MinBatch: cfg.BatchMinSize,
			Dedup:    cfg.BatchDedup,
			Window:   cfg.BatchWindow,
			Sign:     t.signRoot,
		})
	}
	if !w.sign {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		wk, err := p.Get(ctx)
		if err != nil {
			t.close()
			return nil, err
		}
		ws, ok := wk.State().(*server.WorkerState)
		p.Release(ctx, wk, pool.Keep)
		if !ok {
			t.close()
			return nil, fmt.Errorf("worker state is %T", wk.State())
		}
		t.qk = ws.QuoteKey
	}
	return t, nil
}

func (t *tracer) close() error {
	if t.agg != nil {
		t.agg.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := t.pool.Close(ctx)
	if t.cs != nil {
		if cerr := t.cs.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// checkout is pool.Get plus the worker state, timed into st.get.
func (t *tracer) checkout(ctx context.Context, st *stages) (*pool.Worker, *server.WorkerState, error) {
	t0 := time.Now()
	wk, err := t.pool.Get(ctx)
	st.get = time.Since(t0)
	if err != nil {
		return nil, nil, err
	}
	ws, ok := wk.State().(*server.WorkerState)
	if !ok {
		t.pool.Release(ctx, wk, pool.Fail)
		return nil, nil, fmt.Errorf("worker state is %T", wk.State())
	}
	return wk, ws, nil
}

// enclave times one enclave call into st.enclave and adds its time and
// the ARM instructions it retired to t's totals.
func enclave[T any](t *tracer, wk *pool.Worker, st *stages, call func() (T, error)) (T, error) {
	m := wk.System().Machine()
	r0 := m.Retired()
	t0 := time.Now()
	v, err := call()
	st.enclave = time.Since(t0)
	t.retired.Add(m.Retired() - r0)
	t.enclaveNS.Add(int64(st.enclave))
	return v, err
}

// persist is Server.maybeCheckpoint with every call timed: seal, WAL
// save (fsync included), rebase.
func (t *tracer) persist(wk *pool.Worker, ws *server.WorkerState, counter uint32, st *stages) error {
	t0 := time.Now()
	ckpt, err := wk.System().CheckpointEnclave(ws.Notary)
	t1 := time.Now()
	st.checkpoint = t1.Sub(t0)
	if err != nil {
		return err
	}
	err = t.cs.Save(wk.ID(), counter, ckpt)
	t2 := time.Now()
	st.save = t2.Sub(t1)
	if err != nil {
		return err
	}
	wk.Rebase()
	st.rebase = time.Since(t2)
	return nil
}

// release is pool.Release timed into st.release.
func (t *tracer) release(ctx context.Context, wk *pool.Worker, o pool.Outcome, st *stages) {
	t0 := time.Now()
	t.pool.Release(ctx, wk, o)
	st.release = time.Since(t0)
}

// tracedOp is one traced operation: its stages, plus for sign-batched
// the whole Submit time, batch wait included.
type tracedOp struct {
	st     stages
	submit time.Duration
}

// do runs one operation through the layers and verifies it like the
// served path does.
func (t *tracer) do(client int, req request) (tracedOp, outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	switch {
	case t.w.batched:
		return t.doBatched(ctx, client, req)
	case t.w.sign:
		return t.doSign(ctx, req)
	default:
		return t.doAttest(ctx, req)
	}
}

// doAttest follows handleAttest: Get, Attest, Release(OK).
func (t *tracer) doAttest(ctx context.Context, req request) (tracedOp, outcome, error) {
	var op tracedOp
	wk, ws, err := t.checkout(ctx, &op.st)
	if err != nil {
		return op, outcome{}, err
	}
	att, err := enclave(t, wk, &op.st, func() (server.Attestation, error) {
		return server.Attest(ctx, ws, server.NonceWords([]byte(req.nonce)))
	})
	if err != nil {
		t.pool.Release(ctx, wk, pool.Fail)
		return op, outcome{}, err
	}
	o := outcome{worker: wk.ID(), epoch: wk.Epoch(), quote: att.Quote}
	t.release(ctx, wk, pool.OK, &op.st)
	return op, o, checkQuote(t.qk, req.nonce, att.Data, att.Measurement, att.Quote)
}

// doSign follows the unbatched handleNotarySign: Get, NotarySign,
// CheckpointEnclave, Save, Rebase, Release(Keep).
func (t *tracer) doSign(ctx context.Context, req request) (tracedOp, outcome, error) {
	var op tracedOp
	wk, ws, err := t.checkout(ctx, &op.st)
	if err != nil {
		return op, outcome{}, err
	}
	n, err := enclave(t, wk, &op.st, func() (server.Notarisation, error) {
		return server.NotarySign(ctx, ws, req.doc)
	})
	if err == nil {
		err = t.persist(wk, ws, n.Counter, &op.st)
	}
	if err != nil {
		t.pool.Release(ctx, wk, pool.Fail)
		return op, outcome{}, err
	}
	o := outcome{worker: wk.ID(), epoch: wk.Epoch(), restores: ws.Restores, counter: n.Counter}
	t.release(ctx, wk, pool.Keep, &op.st)
	return op, o, checkDigest(req.doc, n.Counter, n.Digest)
}

// signRoot is the aggregator's sign function, following the server's
// signBatchRoot: Get, BatchSign, CheckpointEnclave, Save, Rebase,
// Release(Keep). Each batch's stages are kept for its waiters.
func (t *tracer) signRoot(ctx context.Context, root [8]uint32) (batch.SignedRoot, error) {
	var st stages
	wk, ws, err := t.checkout(ctx, &st)
	if err != nil {
		return batch.SignedRoot{}, err
	}
	n, err := enclave(t, wk, &st, func() (server.Notarisation, error) {
		return server.BatchSign(ctx, ws, root)
	})
	if err == nil {
		err = t.persist(wk, ws, n.Counter, &st)
	}
	if err != nil {
		t.pool.Release(ctx, wk, pool.Fail)
		return batch.SignedRoot{}, err
	}
	sr := batch.SignedRoot{Root: root, Counter: n.Counter, Digest: n.Digest, MAC: n.MAC,
		Worker: wk.ID(), Epoch: wk.Epoch(), Restores: ws.Restores}
	t.release(ctx, wk, pool.Keep, &st)
	t.mu.Lock()
	t.batches[issued{stream{sr.Worker, sr.Epoch, sr.Restores}, sr.Counter}] = st
	t.mu.Unlock()
	return sr, nil
}

// tenant is the leaf label of a request with no admission token, as the
// server binds it.
const tenant = "anon"

// doBatched follows handleBatchSign: digest the document, Submit with a
// fresh nonce, and build the same receipt the handler returns. The op's
// stages are its batch's; the rest of Submit is batch wait.
func (t *tracer) doBatched(ctx context.Context, client int, req request) (tracedOp, outcome, error) {
	var op tracedOp
	// The server mints nonces from crypto/rand; a client number and a
	// sequence number are as unique and keep the traced run reproducible.
	var nonce [batch.NonceSize]byte
	nonce[0] = byte(client)
	binary.BigEndian.PutUint64(nonce[8:], t.nonces.Add(1))
	h := sha2.New()
	h.Write(req.doc)
	t0 := time.Now()
	rec, err := t.agg.Submit(ctx, batch.Request{DocDigest: h.SumWords(), Tenant: tenant, Nonce: nonce, Coalescable: true})
	op.submit = time.Since(t0)
	if err != nil {
		return op, outcome{}, err
	}
	t.mu.Lock()
	st, ok := t.batches[issued{stream{rec.Worker, rec.Epoch, rec.Restores}, rec.Counter}]
	t.mu.Unlock()
	if !ok {
		return op, outcome{}, fmt.Errorf("no traced batch for counter %d on worker %d", rec.Counter, rec.Worker)
	}
	op.st = st
	o, err := checkSign(req.doc, receiptResponse(rec), true)
	return op, o, err
}

// receiptResponse renders a receipt the way handleBatchSign does.
func receiptResponse(rec batch.Receipt) server.NotaryResponse {
	path := make([]string, len(rec.Path))
	for i, p := range rec.Path {
		path[i] = server.EncodeWords(p)
	}
	return server.NotaryResponse{
		Counter: rec.Counter, Digest: server.EncodeWords(rec.Digest), MAC: server.EncodeWords(rec.MAC),
		Worker: rec.Worker, Epoch: rec.Epoch, Restores: rec.Restores,
		Batch: &server.BatchProof{
			Root: server.EncodeWords(rec.Root), Leaf: server.EncodeWords(rec.Leaf),
			LeafIndex: rec.LeafIndex, BatchSize: rec.BatchSize, Path: path,
			Tenant: tenant, Nonce: hex.EncodeToString(rec.Nonce[:]), Coalesced: rec.Coalesced,
		},
	}
}
