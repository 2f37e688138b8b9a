package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/replay"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/komodo"
)

// MaxCheckpointBytes bounds a POSTed /v1/restore body. A checkpoint is
// at most a few MiB of base64-wrapped sealed words; 32 MiB is generous.
// It is the largest body any endpoint takes, so the gateway buffers
// proxied bodies under the same bound.
const MaxCheckpointBytes = int64(32 << 20)

// Config configures New.
type Config struct {
	// Pool supplies the workers. Required.
	Pool *pool.Pool
	// QueueDepth bounds how many requests may hold a service slot at
	// once — in flight plus waiting for a worker. A request arriving with
	// the queue full is rejected immediately with 429 (default 64).
	QueueDepth int
	// RequestTimeout bounds the wait for a worker. A request that cannot
	// get one in time is answered 503 (default 5s). The enclave run
	// itself is not preemptible — bound it with komodo.WithExecBudget on
	// the pool's boot options.
	RequestTimeout time.Duration
	// MaxNonceBytes bounds the attestation nonce (default 256).
	MaxNonceBytes int
	// Checkpoints, if set, makes notary counters durable: after a sign
	// the notary enclave is sealed into a checkpoint and appended to
	// this store, and /v1/checkpoint + /v1/restore are enabled. Pair it
	// with RestoreProvision on the pool so saved counters resume at
	// boot.
	Checkpoints *CheckpointStore
	// FlightRecorderSize caps how many slow-request traces the flight
	// recorder retains for /v1/debug/traces (default
	// obs.DefaultFlightRecorderSize).
	FlightRecorderSize int
	// Admission, if set, runs tenant admission control (token → tier,
	// rate limits, quotas, queue-depth shedding) in front of the attest
	// and sign paths. See internal/tenant and docs/BATCHING.md.
	Admission *tenant.Registry
	// BatchMaxSize enables batched signing when > 0: /v1/notary/sign
	// requests are collected into Merkle batches of up to this many
	// leaves, each signed with ONE enclave crossing (docs/BATCHING.md).
	BatchMaxSize int
	// BatchWindow bounds how long a short batch waits for company
	// (default 2ms); BatchQueue bounds admitted-but-unsigned requests
	// (default 4*BatchMaxSize, then 429 queue_full).
	BatchWindow time.Duration
	BatchQueue  int
	// BatchMinSize, when in (0, BatchMaxSize), turns on adaptive batch
	// sizing: the close threshold K floats between BatchMinSize and
	// BatchMaxSize, retuned each sealed batch from observed fill times
	// and arrival rate. 0 keeps K fixed at BatchMaxSize.
	BatchMinSize int
	// BatchDedup coalesces concurrent sign requests for the same
	// (document, tenant) onto one Merkle leaf within a batch; every
	// caller still gets its own offline-verifiable receipt carrying the
	// leaf's nonce (docs/BATCHING.md §Adaptive write path).
	BatchDedup bool
	// RecordDir, if set, turns on deterministic record/replay
	// (docs/REPLAY.md): every worker-path request is recorded — start
	// state, memory image, and all boundary operations — and when the
	// finished request is slow enough for the flight recorder to retain,
	// the trace is persisted as RecordDir/<trace-id>.krec and linked from
	// the retained trace's "replay" field. /v1/debug/replay re-executes a
	// persisted trace in-process and reports divergences.
	RecordDir string
	// Fleet, if set, enables the freeze-the-world debug plane
	// (/v1/debug/freeze, /v1/debug/mon) over the pool's workers. Install
	// workers into it from the pool's Provision hook.
	Fleet *replay.Fleet
	// SinkDropped, if set, reports how many telemetry events the
	// process's event sink has dropped (telemetry.JSONLSink.Dropped) for
	// the komodo_obs_sink_dropped_total metric.
	SinkDropped func() uint64
}

// Server is the HTTP front end. It implements http.Handler.
type Server struct {
	cfg      Config
	edge     *obs.Edge
	slots    chan struct{}
	draining atomic.Bool

	requests      atomic.Uint64 // all requests to /v1/attest and /v1/notary/sign
	served        atomic.Uint64 // 200s
	rejected      atomic.Uint64 // 429s (queue saturated)
	timeouts      atomic.Uint64 // 503s (worker-wait deadline)
	drainRejects  atomic.Uint64 // 503s (refused while draining)
	failures      atomic.Uint64 // 5xx enclave/worker errors
	tenantRejects atomic.Uint64 // 429s from admission (rate/quota/shed)

	quoteKey atomic.Pointer[[8]uint32]

	agg     *batch.Aggregator // batched sign path (nil unless BatchMaxSize > 0)
	tierLat *obs.LatencyVec   // wall-clock latency per (tier, outcome)
}

// New builds the server around a pool.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.MaxNonceBytes <= 0 {
		cfg.MaxNonceBytes = 256
	}
	s := &Server{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.QueueDepth),
		tierLat: obs.NewLatencyVec(),
	}
	s.edge = obs.NewEdge(cfg.FlightRecorderSize, s.persistRecording)
	if cfg.BatchMaxSize > 0 {
		s.agg = batch.New(batch.Config{
			MaxBatch:    cfg.BatchMaxSize,
			MinBatch:    cfg.BatchMinSize,
			Dedup:       cfg.BatchDedup,
			Window:      cfg.BatchWindow,
			MaxQueue:    cfg.BatchQueue,
			SignTimeout: cfg.RequestTimeout,
			Sign:        s.signBatchRoot,
		})
	}
	e := s.edge
	e.Traced("/v1/attest", s.withTenant(s.handleAttest))
	e.Traced("/v1/notary/sign", s.withTenant(s.handleNotarySign))
	e.Traced("/v1/healthz", s.handleHealthz)
	e.Traced("/v1/stats", s.handleStats)
	e.Traced("/v1/quotekey", s.handleQuoteKey)
	e.Traced("/v1/checkpoint", s.handleCheckpoint)
	e.Traced("/v1/restore", s.handleRestore)
	e.Traced("/v1/drain", s.handleDrain)
	e.HandleFunc("/v1/debug/freeze", s.handleDebugFreeze)
	e.HandleFunc("/v1/debug/mon", s.handleDebugMon)
	e.HandleFunc("/v1/debug/replay", s.handleDebugReplay)
	e.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Edge returns the server's request plane: its routes, latency
// histograms, flight recorder and listen/drain lifecycle.
func (s *Server) Edge() *obs.Edge { return s.edge }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.edge.ServeHTTP(w, r) }

// Close releases server-owned background machinery: the batch aggregator
// (if batching is enabled) seals its open batch with reason "drain" and
// rejects new submissions. Call after Drain, before closing the pool.
func (s *Server) Close() {
	if s.agg != nil {
		s.agg.Close()
	}
}

// Drain flips the server into draining mode: /v1/healthz starts failing
// (so load balancers stop routing here) and new work is refused with 503.
// In-flight requests finish normally; the caller then shuts the HTTP
// listener down and closes the pool.
func (s *Server) Drain() { s.draining.Store(true) }

// Undrain reverses Drain, putting the server back in service: healthz
// recovers and new work is admitted again. The un-do for an aborted
// drain — a live migration that drained the source and then failed
// before the flip must hand the node back instead of leaving it
// refusing traffic until a process restart.
func (s *Server) Undrain() { s.draining.Store(false) }

// QueueLen reports how many requests currently hold a service slot
// (in service plus waiting for a worker).
func (s *Server) QueueLen() int { return len(s.slots) }

// replyErr answers with an error body. Queue saturation (429) and
// worker-wait timeouts (503) clear quickly: retry in 1s. replyDraining
// asks for a longer back-off; this instance is going away.
func (s *Server) replyErr(w http.ResponseWriter, status int, format string, args ...any) {
	retry := ""
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		retry = "1"
	}
	obs.ReplyErr(w, status, retry, format, args...)
}

// replyDraining rejects a request because the server is shutting down.
func (s *Server) replyDraining(w http.ResponseWriter) {
	s.drainRejects.Add(1)
	w.Header().Set(RejectHeader, RejectDrain)
	obs.ReplyErr(w, http.StatusServiceUnavailable, "5", "draining")
}

// withWorker runs fn on a checked-out worker under the server's
// backpressure discipline: bounded queue (429 on saturation), worker-wait
// deadline (503), retire-on-error (any fn error releases with pool.Fail).
// fn returns the release outcome for the success path.
//
// The phases land on the request's trace as spans: "queue" (service-slot
// admission), "acquire" (worker wait, recorded by the pool), "execute"
// (fn itself) and "restore" (release re-provisioning, recorded by the
// pool). While fn runs, the worker's telemetry recorder is tagged with
// the trace's span tag — the worker is held exclusively, so every
// monitor boundary event recorded in that window belongs to this
// request — and afterwards those events are harvested back onto the
// trace as cycle-domain spans.
func (s *Server) withWorker(w http.ResponseWriter, r *http.Request,
	fn func(ctx context.Context, wk *pool.Worker) (pool.Outcome, error)) {
	s.withWorkerOpts(w, r, false, fn)
}

// withWorkerAdmin is withWorker for the migration/state-management plane
// (/v1/checkpoint, /v1/restore): it stays usable while the server is
// draining. Draining exists precisely so an orchestrator can stop the
// request flow and *then* pull the sealed state off the node — refusing
// the pull endpoints during a drain would deadlock every rolling-restart
// and live-migration flow against the thing that enables them.
func (s *Server) withWorkerAdmin(w http.ResponseWriter, r *http.Request,
	fn func(ctx context.Context, wk *pool.Worker) (pool.Outcome, error)) {
	s.withWorkerOpts(w, r, true, fn)
}

func (s *Server) withWorkerOpts(w http.ResponseWriter, r *http.Request, admin bool,
	fn func(ctx context.Context, wk *pool.Worker) (pool.Outcome, error)) {
	s.requests.Add(1)
	if s.draining.Load() && !admin {
		s.replyDraining(w)
		return
	}
	tr := obs.FromContext(r.Context())
	qsp := tr.StartSpan("queue")
	select {
	case s.slots <- struct{}{}:
		qsp.EndDetail("admitted")
	default:
		qsp.EndDetail("full")
		s.rejected.Add(1)
		w.Header().Set(RejectHeader, RejectQueueFull)
		s.replyErr(w, http.StatusTooManyRequests, "queue full (depth %d)", s.cfg.QueueDepth)
		return
	}
	defer func() { <-s.slots }()

	ctx, cancel := s.requestCtx(r)
	defer cancel()
	wk, err := s.cfg.Pool.Get(ctx) // records the "acquire" span
	if err != nil {
		if err == pool.ErrClosed {
			s.replyDraining(w)
			return
		}
		s.timeouts.Add(1)
		w.Header().Set(RejectHeader, RejectTimeout)
		s.replyErr(w, http.StatusServiceUnavailable, "no worker within deadline: %v", err)
		return
	}

	recorder := s.startRecording(tr, wk, r.URL.Path)
	rec := wk.System().Telemetry()
	mark := rec.Ring().Total()
	rec.SetSpanTag(tr.SpanTag())
	exec := tr.StartSpan("execute")
	outcome, err := fn(ctx, wk)
	rec.SetSpanTag(0)
	harvestCycleSpans(tr, rec, mark)
	if recorder != nil {
		tr.Attach(recorder.Stop())
	}
	if err != nil {
		exec.EndDetail("error")
		s.cfg.Pool.Release(r.Context(), wk, pool.Fail)
		s.failures.Add(1)
		s.replyErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	exec.End()
	s.cfg.Pool.Release(r.Context(), wk, outcome)
	s.served.Add(1)
}

// startRecording begins a replay recording for the request when RecordDir
// mode is on; the "record" span times the start-state capture.
func (s *Server) startRecording(tr *obs.Trace, wk *pool.Worker, endpoint string) *replay.Recorder {
	if s.cfg.RecordDir == "" || tr == nil {
		return nil
	}
	sp := tr.StartSpan("record")
	rec := replay.StartRecording(wk.System(), tr.ID().String(), endpoint)
	sp.End()
	return rec
}

// persistRecording runs for each request trace the flight recorder will
// retain: if the request was recorded, the replay trace riding on it is
// written to RecordDir and linked from the retained trace's Replay field.
// The recordings of unretained requests are dropped with their traces —
// the record knob keeps the N-slowest policy of the flight recorder.
func (s *Server) persistRecording(td obs.TraceData) obs.TraceData {
	rt, ok := td.Attachment.(*replay.Trace)
	if !ok {
		return td
	}
	path := filepath.Join(s.cfg.RecordDir, td.TraceID+".krec")
	if err := replay.Save(path, rt); err == nil {
		td.Replay = path
	}
	return td
}

// cycleSpanNames names the cycle-domain span of every SMC (row KindSMC,
// 0) and SVC (row KindSVC, 1) call below telemetry.MaxCall, built once so
// that harvesting formats no span name per request.
var cycleSpanNames = func() (names [2][telemetry.MaxCall]string) {
	for kind := range names {
		for call := range names[kind] {
			names[kind][call] = cycleSpanName(telemetry.Event{Kind: telemetry.Kind(kind), Call: uint32(call)})
		}
	}
	return names
}()

// cycleSpanName is "smc:" or "svc:" and the call's name, or "callN" for
// an unnamed call.
func cycleSpanName(e telemetry.Event) string {
	prefix := "smc:"
	if e.Kind == telemetry.KindSVC {
		prefix = "svc:"
	}
	name := telemetry.EventName(e)
	if name == "" {
		name = fmt.Sprintf("call%d", e.Call)
	}
	return prefix + name
}

// harvestCycleSpans converts the monitor boundary events recorded for
// this request (identified by span tag) into cycle-domain spans on its
// trace: one "smc:NAME" or "svc:NAME" span per call, carrying the
// simulated cycles the monitor spent in it. It reads the telemetry ring
// in place while the caller still holds the worker, so it copies no
// events.
func harvestCycleSpans(tr *obs.Trace, rec *telemetry.Recorder, mark uint64) {
	if tr == nil {
		return
	}
	tag := tr.SpanTag()
	rec.Ring().EachSince(mark, func(e telemetry.Event) {
		if e.Span != tag || e.Kind != telemetry.KindSMC && e.Kind != telemetry.KindSVC {
			return
		}
		var name string
		if e.Call < telemetry.MaxCall {
			name = cycleSpanNames[e.Kind][e.Call]
		} else {
			name = cycleSpanName(e)
		}
		tr.AddCycleSpanN(name, e.Cycles, "err=", int64(e.Err))
	})
}

func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// AttestResponse is the /v1/attest body. Word-array fields are 64-char
// hex strings (DecodeWords parses them back).
type AttestResponse struct {
	Nonce       string `json:"nonce"`       // echoed verbatim
	Data        string `json:"data"`        // NonceWords(nonce): what was attested
	Measurement string `json:"measurement"` // attester enclave identity
	Quote       string `json:"quote"`       // verify with kasm.VerifyQuote
	Worker      int    `json:"worker"`
	Epoch       int    `json:"epoch"`
}

func (s *Server) handleAttest(w http.ResponseWriter, r *http.Request) {
	nonce := r.URL.Query().Get("nonce")
	if nonce == "" {
		s.replyErr(w, http.StatusBadRequest, "missing nonce parameter")
		return
	}
	if len(nonce) > s.cfg.MaxNonceBytes {
		s.replyErr(w, http.StatusBadRequest, "nonce longer than %d bytes", s.cfg.MaxNonceBytes)
		return
	}
	s.withWorker(w, r, func(ctx context.Context, wk *pool.Worker) (pool.Outcome, error) {
		st, ok := wk.State().(*WorkerState)
		if !ok {
			return pool.Fail, fmt.Errorf("worker state is %T, want *WorkerState", wk.State())
		}
		att, err := Attest(ctx, st, NonceWords([]byte(nonce)))
		if err != nil {
			return pool.Fail, err
		}
		s.quoteKey.CompareAndSwap(nil, &st.QuoteKey)
		obs.Reply(w, http.StatusOK, AttestResponse{
			Nonce:       nonce,
			Data:        EncodeWords(att.Data),
			Measurement: EncodeWords(att.Measurement),
			Quote:       EncodeWords(att.Quote),
			Worker:      wk.ID(),
			Epoch:       wk.Epoch(),
		})
		// Attestation is stateless: restore-clone the worker.
		return pool.OK, nil
	})
}

// NotaryResponse is the /v1/notary/sign body. Notarisations are ordered
// per (worker, epoch) shard: the counter is monotonic within one shard
// and resets when the worker re-boots or restores.
type NotaryResponse struct {
	Counter uint32 `json:"counter"`
	Digest  string `json:"digest"` // H(docwords ‖ counter), hex
	MAC     string `json:"mac"`    // in-enclave MAC over the digest, hex
	Worker  int    `json:"worker"`
	Epoch   int    `json:"epoch"`
	// Restores counts foreign checkpoints restored onto this worker (via
	// /v1/restore) since it booted. It extends the stream key: counters
	// are strictly monotonic within one (worker, epoch, restores) window,
	// and a live migration that lands new state on the worker opens a new
	// window instead of silently splicing two lineages together.
	Restores int `json:"restores,omitempty"`
	// Batch carries the Merkle inclusion proof when the sign was served
	// from a sealed batch (docs/BATCHING.md): Counter/Digest/MAC then
	// describe the whole batch's enclave signature, shared by every
	// receipt in it, and Digest = H(BatchSigTag ‖ root ‖ counter).
	Batch *BatchProof `json:"batch,omitempty"`
}

func (s *Server) handleNotarySign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.replyErr(w, http.StatusMethodNotAllowed, "POST the document bytes")
		return
	}
	buf := docBufs.Get().(*[MaxDocBytes + 1]byte)
	defer docBufs.Put(buf)
	doc, err := readDoc(r.Body, buf[:])
	if err != nil {
		s.replyErr(w, http.StatusBadRequest, "reading document: %v", err)
		return
	}
	if len(doc) == 0 {
		s.replyErr(w, http.StatusBadRequest, "empty document")
		return
	}
	if len(doc) > MaxDocBytes {
		s.replyErr(w, http.StatusRequestEntityTooLarge, "document larger than %d bytes", MaxDocBytes)
		return
	}
	if s.agg != nil {
		s.handleBatchSign(w, r, doc)
		return
	}
	s.withWorker(w, r, func(ctx context.Context, wk *pool.Worker) (pool.Outcome, error) {
		st, ok := wk.State().(*WorkerState)
		if !ok {
			return pool.Fail, fmt.Errorf("worker state is %T, want *WorkerState", wk.State())
		}
		n, err := NotarySign(ctx, st, doc)
		if err != nil {
			return pool.Fail, err
		}
		// Seal the signed counter into the durable store before
		// replying: once the client sees a counter, a restart must not
		// replay it.
		if err := s.maybeCheckpoint(ctx, wk, st, n.Counter); err != nil {
			return pool.Fail, fmt.Errorf("checkpointing notary: %w", err)
		}
		obs.Reply(w, http.StatusOK, NotaryResponse{
			Counter:  n.Counter,
			Digest:   EncodeWords(n.Digest),
			MAC:      EncodeWords(n.MAC),
			Worker:   wk.ID(),
			Epoch:    wk.Epoch(),
			Restores: st.Restores,
		})
		// The notary counter is live enclave state: keep it.
		return pool.Keep, nil
	})
}

// docBufs holds the buffers handleNotarySign reads documents into, one
// byte longer than MaxDocBytes so an oversized body is seen. Nothing
// keeps a document past its handler: the batched path hashes it, and
// NotarySign copies its words into the notary's shared memory.
var docBufs = sync.Pool{New: func() any { return new([MaxDocBytes + 1]byte) }}

// readDoc reads body into buf until EOF or until buf is full, and
// returns what it read.
func readDoc(body io.Reader, buf []byte) ([]byte, error) {
	n := 0
	for n < len(buf) {
		m, err := body.Read(buf[n:])
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	return buf[:n], nil
}

// maybeCheckpoint seals the worker's notary into the checkpoint store
// (when one is configured) after every sign, and rebases the worker onto
// the committed state. The rebase makes the durable counter the restore
// point for stateless releases too: in durable mode a counter, once
// issued, is never re-issued — not after a pool restore and not after a
// process restart. The three stages are the seal, wal (encode, write
// and fsync) and rebase spans of ctx's trace.
func (s *Server) maybeCheckpoint(ctx context.Context, wk *pool.Worker, st *WorkerState, counter uint32) error {
	if s.cfg.Checkpoints == nil {
		return nil
	}
	tr := obs.FromContext(ctx)
	sp := tr.StartSpan("seal")
	err := wk.System().CheckpointInto(&st.ckpt, st.Notary)
	sp.End()
	if err != nil {
		return err
	}
	sp = tr.StartSpan("wal")
	err = s.cfg.Checkpoints.Save(wk.ID(), counter, &st.ckpt)
	sp.End()
	if err != nil {
		return err
	}
	sp = tr.StartSpan("rebase")
	wk.Rebase()
	sp.End()
	return nil
}

// CheckpointResponse is the /v1/checkpoint body.
type CheckpointResponse struct {
	Worker     int    `json:"worker"`
	Counter    uint32 `json:"counter"`
	BlobWords  int    `json:"blob_words"`
	Checkpoint string `json:"checkpoint"` // komodo.Checkpoint JSON (base64 blob inside)
}

// handleCheckpoint seals one worker's notary on demand and returns the
// portable checkpoint (also persisting it when a store is configured).
// The counter reported is the last one the store saw for this worker —
// the sealed blob itself is opaque — so without a store it reads 0.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.replyErr(w, http.StatusMethodNotAllowed, "POST to checkpoint")
		return
	}
	s.withWorkerAdmin(w, r, func(ctx context.Context, wk *pool.Worker) (pool.Outcome, error) {
		st, ok := wk.State().(*WorkerState)
		if !ok {
			return pool.Fail, fmt.Errorf("worker state is %T, want *WorkerState", wk.State())
		}
		ckpt, err := wk.System().CheckpointEnclave(st.Notary)
		if err != nil {
			return pool.Fail, err
		}
		var counter uint32
		if s.cfg.Checkpoints != nil {
			if saved, ok := s.cfg.Checkpoints.Latest(wk.ID()); ok {
				counter = saved.Counter
			}
			if err := s.cfg.Checkpoints.Save(wk.ID(), counter, ckpt); err != nil {
				return pool.Fail, err
			}
		}
		data, err := ckpt.MarshalBinary()
		if err != nil {
			return pool.Fail, err
		}
		obs.Reply(w, http.StatusOK, CheckpointResponse{
			Worker:     wk.ID(),
			Counter:    counter,
			BlobWords:  len(ckpt.Blob),
			Checkpoint: string(data),
		})
		return pool.Keep, nil
	})
}

// RestoreResponse is the /v1/restore body.
type RestoreResponse struct {
	Worker    int `json:"worker"`
	Restores  int `json:"restores"` // foreign checkpoints restored onto this worker since boot
	BlobWords int `json:"blob_words"`
}

// DrainResponse is the /v1/drain body.
type DrainResponse struct {
	Status   string `json:"status"`
	InFlight int    `json:"in_flight"`
}

// handleDrain flips the server into draining mode remotely — the
// orchestration hook a fleet gateway uses for rolling restarts and live
// migration: drain the node (health checks start failing, new request
// traffic is refused), wait for in-flight to reach zero, then pull state
// via /v1/checkpoint (which, like /v1/restore, deliberately keeps working
// while draining). POST with ?state=off reverses an earlier drain — the
// escape hatch a failed migration uses to hand the node back instead of
// stranding it out of service. Idempotent either way; GET reports the
// drain state without changing it.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		switch state := r.URL.Query().Get("state"); state {
		case "", "on", "1", "true":
			s.Drain()
		case "off", "0", "false":
			s.Undrain()
		default:
			s.replyErr(w, http.StatusBadRequest, "state must be on or off, got %q", state)
			return
		}
	} else if r.Method != http.MethodGet {
		s.replyErr(w, http.StatusMethodNotAllowed, "POST to drain, GET to inspect")
		return
	}
	status := "serving"
	if s.draining.Load() {
		status = "draining"
	}
	obs.Reply(w, http.StatusOK, DrainResponse{Status: status, InFlight: s.cfg.Pool.Stats().InFlight})
}

// handleRestore instantiates a POSTed checkpoint (either form
// komodo.UnmarshalCheckpoint reads) as the worker's notary, replacing
// the current one, and rebases the worker so the restored state
// survives pool restores. Restore fails closed on a tampered blob or a
// foreign boot secret.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.replyErr(w, http.StatusMethodNotAllowed, "POST the checkpoint JSON")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxCheckpointBytes+1))
	if err != nil {
		s.replyErr(w, http.StatusBadRequest, "reading checkpoint: %v", err)
		return
	}
	if int64(len(body)) > MaxCheckpointBytes {
		s.replyErr(w, http.StatusRequestEntityTooLarge, "checkpoint larger than %d bytes", MaxCheckpointBytes)
		return
	}
	ckpt, err := komodo.UnmarshalCheckpoint(body)
	if err != nil {
		s.replyErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.withWorkerAdmin(w, r, func(ctx context.Context, wk *pool.Worker) (pool.Outcome, error) {
		st, ok := wk.State().(*WorkerState)
		if !ok {
			return pool.Fail, fmt.Errorf("worker state is %T, want *WorkerState", wk.State())
		}
		if st.Notary != nil {
			if err := st.Notary.Destroy(); err != nil {
				return pool.Fail, err
			}
			st.Notary = nil
		}
		enc, err := wk.System().RestoreEnclave(ckpt)
		if err != nil {
			// The old notary is gone; the board is not servable as-is.
			return pool.Fail, fmt.Errorf("restore rejected: %w", err)
		}
		st.Notary = enc
		// A pushed checkpoint replaces the worker's counter lineage: bump
		// the marker that notary responses expose so clients keying
		// counter streams by (worker, epoch) can tell the new lineage from
		// the one this restore displaced.
		st.Restores++
		// Make the restored notary part of the worker's golden state so
		// stateless (OK-release) requests do not rewind it away.
		wk.Rebase()
		obs.Reply(w, http.StatusOK, RestoreResponse{Worker: wk.ID(), Restores: st.Restores, BlobWords: len(ckpt.Blob)})
		return pool.Keep, nil
	})
}

// HealthzResponse is the /v1/healthz body.
type HealthzResponse struct {
	Status    string `json:"status"`
	Live      int    `json:"live"`
	Available int    `json:"available"`
	InFlight  int    `json:"in_flight"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ps := s.cfg.Pool.Stats()
	body := HealthzResponse{Status: "ok", Live: ps.Live, Available: ps.Available, InFlight: ps.InFlight}
	status := http.StatusOK
	switch {
	case s.draining.Load():
		body.Status = "draining"
		status = http.StatusServiceUnavailable
	case ps.Live == 0:
		body.Status = "no live workers"
		status = http.StatusServiceUnavailable
	}
	obs.Reply(w, status, body)
}

// StatsResponse is the /v1/stats body: server counters, pool counters,
// and one telemetry snapshot merged across the currently idle boards. Its
// prom and merge tags (and those of the structs it holds) also define the
// /metrics families and the gateway's fleet merge (internal/obs).
type StatsResponse struct {
	Server struct {
		Requests       uint64 `json:"requests" prom:"komodo_server_requests_total" help:"Requests admitted to the worker path (attest, notary, checkpoint, restore)."`
		Served         uint64 `json:"served" prom:"komodo_server_responses_total,result=served" help:"Worker-path responses by result class."`
		Rejected       uint64 `json:"rejected_429" prom:"komodo_server_responses_total,result=rejected_429"`
		TenantRejected uint64 `json:"tenant_rejected_429" prom:"komodo_server_responses_total,result=tenant_rejected_429"`
		Timeouts       uint64 `json:"timeouts_503" prom:"komodo_server_responses_total,result=timeout_503"`
		Draining       uint64 `json:"rejected_draining_503" prom:"komodo_server_responses_total,result=draining_503"`
		Failures       uint64 `json:"failures_5xx" prom:"komodo_server_responses_total,result=failure_5xx"`
		Queue          int    `json:"queue_depth" prom:"komodo_server_queue_limit" help:"Configured service-slot bound (QueueDepth)."`
	} `json:"server"`
	// Batch reports the batched-signing aggregator (nil when batching is
	// off); Store the checkpoint WAL's write path (nil when counters are
	// volatile); Tenants per-tier admission accounting (nil when
	// admission is off). All merge fleet-wide through the gateway.
	Batch     *batch.Stats       `json:"batch,omitempty"`
	Store     *store.Stats       `json:"store,omitempty"`
	Tenants   []tenant.TierStats `json:"tenants,omitempty"`
	Pool      pool.Stats         `json:"pool"`
	Sampled   int                `json:"telemetry_workers_sampled" prom:"komodo_telemetry_workers_sampled" help:"Idle workers whose telemetry this scrape merged."`
	Telemetry telemetry.Snapshot `json:"telemetry"`
}

// Stats returns the same view /v1/stats serves.
func (s *Server) Stats() StatsResponse {
	var out StatsResponse
	out.Server.Requests = s.requests.Load()
	out.Server.Served = s.served.Load()
	out.Server.Rejected = s.rejected.Load()
	out.Server.TenantRejected = s.tenantRejects.Load()
	out.Server.Timeouts = s.timeouts.Load()
	out.Server.Draining = s.drainRejects.Load()
	out.Server.Failures = s.failures.Load()
	out.Server.Queue = s.cfg.QueueDepth
	if s.agg != nil {
		bs := s.agg.Stats()
		out.Batch = &bs
	}
	if s.cfg.Checkpoints != nil {
		ss := s.cfg.Checkpoints.StoreStats()
		out.Store = &ss
	}
	if s.cfg.Admission != nil {
		out.Tenants = s.cfg.Admission.Stats()
	}
	out.Pool = s.cfg.Pool.Stats()
	snaps := s.cfg.Pool.Telemetry()
	out.Sampled = len(snaps)
	out.Telemetry = telemetry.Merge(snaps...)
	rec, rep, div := replay.GlobalStats()
	out.Telemetry.Replay = telemetry.ReplayStats{Recorded: rec, Replayed: rep, Diverged: div}
	return out
}

// Merge folds another server's stats into st, for a fleet view: each
// field by its merge tag, then the batch mean recomputed from the merged
// sums (a mean is never summed).
func (st *StatsResponse) Merge(o StatsResponse) {
	obs.Merge(st, o)
	if b := st.Batch; b != nil && b.Batches > 0 {
		b.MeanSize = float64(b.SizeSum) / float64(b.Batches)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	obs.Reply(w, http.StatusOK, s.Stats())
}

// QuoteKeyResponse is the /v1/quotekey body. In a real deployment the
// quote key leaves the factory over a provisioning channel and never
// touches the serving path; this endpoint stands in for that channel so
// remote verifiers (and the smoke test) can check quotes.
type QuoteKeyResponse struct {
	QuoteKey string `json:"quote_key"`
}

func (s *Server) handleQuoteKey(w http.ResponseWriter, r *http.Request) {
	if k := s.quoteKey.Load(); k != nil {
		obs.Reply(w, http.StatusOK, QuoteKeyResponse{QuoteKey: EncodeWords(*k)})
		return
	}
	// No attest has run yet: peek at an idle worker's state.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	wk, err := s.cfg.Pool.Get(ctx)
	if err != nil {
		s.replyErr(w, http.StatusServiceUnavailable, "no worker within deadline: %v", err)
		return
	}
	st, ok := wk.State().(*WorkerState)
	if !ok {
		s.cfg.Pool.Put(wk, pool.Fail)
		s.replyErr(w, http.StatusInternalServerError, "worker state is %T", wk.State())
		return
	}
	key := st.QuoteKey
	s.cfg.Pool.Put(wk, pool.Keep) // nothing ran; no need to re-provision
	s.quoteKey.CompareAndSwap(nil, &key)
	obs.Reply(w, http.StatusOK, QuoteKeyResponse{QuoteKey: EncodeWords(key)})
}
