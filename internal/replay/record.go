package replay

import (
	"fmt"
	"sync/atomic"

	"repro/internal/kapi"
	"repro/komodo"
)

// Package-level counters for the observability plane: how many traces this
// process recorded, replayed, and found divergent. Exposed through
// telemetry → /v1/stats → /metrics as komodo_replay_*.
var stats struct {
	recorded atomic.Uint64
	replayed atomic.Uint64
	diverged atomic.Uint64
}

// GlobalStats reports the process-wide record/replay counters.
func GlobalStats() (recorded, replayed, diverged uint64) {
	return stats.recorded.Load(), stats.replayed.Load(), stats.diverged.Load()
}

// Recorder captures one span of execution on a live system. It implements
// nwos.Tap; between Start and Stop every boundary operation is appended to
// the growing trace.
type Recorder struct {
	sys   *komodo.System
	trace *Trace
	done  bool
}

// StartRecording begins capturing on sys. The machine's TLB is flushed
// first so the recorded span is self-contained (a replayed board starts
// with an empty TLB; flushing makes the recorded run start from the same
// point — semantically invisible, it can only add a few table walks).
// The trace starts from a full memory export, which walks only the pages
// ever written.
//
// Only one recorder may be active on a system at a time; Stop detaches it.
func StartRecording(sys *komodo.System, traceID, endpoint string) *Recorder {
	m := sys.Machine()
	m.TLB.Flush()
	r := &Recorder{
		sys: sys,
		trace: &Trace{
			Header: Header{
				Boot:     sys.BootConfig(),
				TraceID:  traceID,
				Endpoint: endpoint,
			},
			Start:      m.ExportState(),
			StartPages: m.Phys.ExportPages(),
		},
	}
	sys.OS().SetTap(r)
	return r
}

// Stop detaches the recorder and finalises the trace.
func (r *Recorder) Stop() *Trace {
	if r.done {
		return r.trace
	}
	r.done = true
	r.sys.OS().SetTap(nil)
	m := r.sys.Machine()
	r.trace.End = m.ExportState()
	r.trace.EndDigest = m.Phys.Digest()
	stats.recorded.Add(1)
	return r.trace
}

func errMsg(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func (r *Recorder) counters() (uint64, uint64) {
	m := r.sys.Machine()
	return m.Cyc.Total(), m.Retired()
}

// TapSMC implements nwos.Tap.
func (r *Recorder) TapSMC(call uint32, args []uint32, errc kapi.Err, val uint32, err error) {
	cyc, ret := r.counters()
	r.trace.Ops = append(r.trace.Ops, Op{
		Kind: OpSMC, Call: call, Args: append([]uint32(nil), args...),
		Errc: errc, Val: val, ErrMsg: errMsg(err),
		EndCycles: cyc, EndRetired: ret,
	})
}

// TapWriteInsecure implements nwos.Tap.
func (r *Recorder) TapWriteInsecure(pa uint32, words []uint32, err error) {
	cyc, ret := r.counters()
	r.trace.Ops = append(r.trace.Ops, Op{
		Kind: OpWrite, PA: pa, Words: append([]uint32(nil), words...),
		ErrMsg: errMsg(err), EndCycles: cyc, EndRetired: ret,
	})
}

// TapReadInsecure implements nwos.Tap.
func (r *Recorder) TapReadInsecure(pa uint32, n int, words []uint32, err error) {
	cyc, ret := r.counters()
	r.trace.Ops = append(r.trace.Ops, Op{
		Kind: OpRead, PA: pa, N: uint32(n), Words: append([]uint32(nil), words...),
		ErrMsg: errMsg(err), EndCycles: cyc, EndRetired: ret,
	})
}

// TapScheduleIRQ implements nwos.Tap.
func (r *Recorder) TapScheduleIRQ(n int64) {
	cyc, ret := r.counters()
	r.trace.Ops = append(r.trace.Ops, Op{
		Kind: OpIRQ, After: n, EndCycles: cyc, EndRetired: ret,
	})
}

// RecordFunc records fn's boundary operations on sys and returns the trace
// (convenience for tests and tools).
func RecordFunc(sys *komodo.System, traceID, endpoint string, fn func() error) (*Trace, error) {
	rec := StartRecording(sys, traceID, endpoint)
	fnErr := fn()
	t := rec.Stop()
	if fnErr != nil {
		return t, fmt.Errorf("replay: recorded function failed: %w", fnErr)
	}
	return t, nil
}
