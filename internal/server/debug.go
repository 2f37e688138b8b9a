package server

import (
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/replay"
)

// maxMonCommandBytes bounds one POSTed monitor command line.
const maxMonCommandBytes = 4096

// FreezeResponse is the /v1/debug/freeze body.
type FreezeResponse struct {
	Worker int    `json:"worker"`
	Frozen bool   `json:"frozen"`
	PC     string `json:"pc,omitempty"`
	Insn   string `json:"insn,omitempty"`
	Why    string `json:"why,omitempty"`
}

// fleetEntry resolves the ?worker= parameter against the debug fleet.
func (s *Server) fleetEntry(w http.ResponseWriter, r *http.Request) (*replay.FleetEntry, int, bool) {
	if s.cfg.Fleet == nil {
		s.replyErr(w, http.StatusNotFound, "debug fleet not enabled (start with -record support / a Fleet)")
		return nil, 0, false
	}
	id, err := strconv.Atoi(r.URL.Query().Get("worker"))
	if err != nil {
		s.replyErr(w, http.StatusBadRequest, "worker must be an integer id (have %v)", s.cfg.Fleet.IDs())
		return nil, 0, false
	}
	e, err := s.cfg.Fleet.Get(id)
	if err != nil {
		s.replyErr(w, http.StatusNotFound, "%v", err)
		return nil, 0, false
	}
	return e, id, true
}

// handleDebugFreeze freezes (POST ?worker=N) or resumes (POST
// ?worker=N&state=off) a live pool worker. A freeze only lands while the
// worker is executing enclave instructions — the probe cannot fire in
// monitor or host Go code — so an idle worker answers 409; retry under
// load or use /v1/debug/mon's step/until commands once frozen.
func (s *Server) handleDebugFreeze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.replyErr(w, http.StatusMethodNotAllowed, "POST ?worker=N[&state=off]")
		return
	}
	e, id, ok := s.fleetEntry(w, r)
	if !ok {
		return
	}
	if st := r.URL.Query().Get("state"); st == "off" {
		if err := e.Fz.Resume(); err != nil {
			s.replyErr(w, http.StatusConflict, "%v", err)
			return
		}
		obs.Reply(w, http.StatusOK, FreezeResponse{Worker: id, Frozen: false})
		return
	}
	timeout := time.Second
	if ms, err := strconv.Atoi(r.URL.Query().Get("timeout_ms")); err == nil && ms > 0 {
		timeout = time.Duration(ms) * time.Millisecond
	}
	if err := e.Fz.Freeze(timeout); err != nil {
		s.replyErr(w, http.StatusConflict, "%v", err)
		return
	}
	pc, insn, why, err := e.Fz.Where()
	if err != nil {
		s.replyErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	obs.Reply(w, http.StatusOK, FreezeResponse{
		Worker: id, Frozen: true,
		PC: fmt.Sprintf("%#08x", pc), Insn: insn.Disasm(), Why: why,
	})
}

// handleDebugMon runs one monitor command line (the komodo-mon command
// language, internal/replay.Session) against a live pool worker: POST
// ?worker=N with the command in the body (or ?cmd=). Output is plain text.
func (s *Server) handleDebugMon(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.replyErr(w, http.StatusMethodNotAllowed, "POST ?worker=N with the command line as body")
		return
	}
	e, _, ok := s.fleetEntry(w, r)
	if !ok {
		return
	}
	cmd := r.URL.Query().Get("cmd")
	if cmd == "" {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxMonCommandBytes+1))
		if err != nil || len(body) > maxMonCommandBytes {
			s.replyErr(w, http.StatusBadRequest, "command line unreadable or over %d bytes", maxMonCommandBytes)
			return
		}
		cmd = string(body)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, e.Sess.Exec(cmd))
}

// ReplayCheckResponse is the /v1/debug/replay body.
type ReplayCheckResponse struct {
	Trace       string   `json:"trace"`
	Ops         int      `json:"ops"`
	Cycles      uint64   `json:"cycles"`
	OK          bool     `json:"ok"`
	Divergences []string `json:"divergences,omitempty"`
}

// handleDebugReplay re-executes a persisted replay trace in-process (POST
// ?id=<trace-id>) on a fresh board and reports any divergence — the
// self-check behind "a recorded request replays bit-identically".
func (s *Server) handleDebugReplay(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.replyErr(w, http.StatusMethodNotAllowed, "POST ?id=<trace-id>")
		return
	}
	if s.cfg.RecordDir == "" {
		s.replyErr(w, http.StatusNotFound, "recording disabled (no RecordDir)")
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" || id != filepath.Base(id) {
		s.replyErr(w, http.StatusBadRequest, "id must be a bare trace id")
		return
	}
	t, err := replay.Load(filepath.Join(s.cfg.RecordDir, id+".krec"))
	if err != nil {
		s.replyErr(w, http.StatusNotFound, "loading trace: %v", err)
		return
	}
	res, err := replay.Replay(t)
	if err != nil {
		s.replyErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	out := ReplayCheckResponse{Trace: id, Ops: res.Ops, Cycles: res.Cycles, OK: res.OK()}
	for _, d := range res.Divergence {
		out.Divergences = append(out.Divergences, d.String())
	}
	obs.Reply(w, http.StatusOK, out)
}
