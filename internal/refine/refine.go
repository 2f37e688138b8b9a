// Package refine is the runtime refinement harness: the analogue of the
// paper's proof that the concrete monitor implements the functional
// specification. Every SMC issued through the Checker is executed by the
// concrete monitor against concrete machine state, then independently
// predicted by the specification over the abstract PageDB; divergence in
// the resulting PageDB, the error code, or the result value is an error.
//
// For Enter/Resume, which involve user-mode execution, the checker records
// the monitor's execution trace and validates the Enter/Resume relation
// (spec.CheckEnter), including that only legitimately writable pages
// changed and that the declassified result matches the terminal event.
package refine

import (
	"fmt"

	"repro/internal/kapi"
	"repro/internal/mem"
	"repro/internal/monitor"
	"repro/internal/pagedb"
	"repro/internal/seal"
	"repro/internal/spec"
)

// Checker wraps a monitor with per-call refinement checking.
type Checker struct {
	Mon *monitor.Monitor

	// Calls and Failures count checked SMCs and refinement violations.
	Calls    int
	Failures int

	// OnFailure, if set, is invoked with each violation (default:
	// failures are returned as errors from SMC).
	OnFailure func(error)
}

// New returns a Checker around mon, enabling trace recording.
func New(mon *monitor.Monitor) *Checker {
	mon.SetRecording(true)
	return &Checker{Mon: mon}
}

// SMC issues an SMC through the monitor and checks refinement. The
// returned values are the concrete monitor's; a non-nil error reports
// either a simulation failure or a refinement violation.
func (c *Checker) SMC(call uint32, args ...uint32) (kapi.Err, uint32, error) {
	c.Calls++
	before, err := c.Mon.DecodePageDB()
	if err != nil {
		return 0, 0, fmt.Errorf("refine: decode before: %w", err)
	}
	// MapSecure's source page may be concurrently mutable insecure
	// memory: snapshot it at call time, as the spec's parameterisation
	// demands.
	var contents *[mem.PageWords]uint32
	if call == kapi.SMCMapSecure && len(args) >= 4 {
		if snap, ok := c.snapshotInsecure(args[3]); ok {
			contents = snap
		}
	}
	// Restore consumes two insecure windows (the sealed blob and the
	// donated-page list); snapshot both before the monitor runs, for the
	// same reason as MapSecure's source page.
	var blob, pageList []uint32
	if call == kapi.SMCRestore && len(args) >= 4 {
		blob = c.snapshotWords(args[0], args[1], seal.MaxPayloadWords+seal.OverheadWords)
		pageList = c.snapshotWords(args[2], args[3], mem.PageWords)
	}

	gotErr, gotVal, simErr := c.Mon.SMC(call, args...)
	if simErr != nil {
		return gotErr, gotVal, simErr
	}

	after, err := c.Mon.DecodePageDB()
	if err != nil {
		return gotErr, gotVal, c.fail(fmt.Errorf("refine: decode after: %w", err))
	}
	if err := after.Validate(); err != nil {
		return gotErr, gotVal, c.fail(fmt.Errorf("refine: invariants violated after call %d: %w", call, err))
	}

	p := SpecParams(c.Mon)
	switch call {
	case kapi.SMCEnter, kapi.SMCResume:
		var thread pagedb.PageNr
		if len(args) > 0 {
			thread = pagedb.PageNr(args[0])
		}
		resume := call == kapi.SMCResume
		if err := spec.CheckEnter(p, before, after, thread, resume, c.Mon.Trace(), gotErr, gotVal); err != nil {
			return gotErr, gotVal, c.fail(fmt.Errorf("refine: enter relation: %w", err))
		}
	default:
		var req spec.SMCRequest
		req.Call = call
		for i := 0; i < len(args) && i < 4; i++ {
			req.Args[i] = args[i]
		}
		req.Contents = contents
		req.Blob = blob
		req.PageList = pageList
		specDB, specVal, specErr := spec.ApplySMC(p, before, req)
		if specErr != gotErr {
			return gotErr, gotVal, c.fail(fmt.Errorf(
				"refine: call %d args %v: monitor error %v, spec says %v", call, args, gotErr, specErr))
		}
		if specVal != gotVal {
			return gotErr, gotVal, c.fail(fmt.Errorf(
				"refine: call %d: monitor value %d, spec says %d", call, gotVal, specVal))
		}
		if !specDB.Equal(after) {
			return gotErr, gotVal, c.fail(fmt.Errorf(
				"refine: call %d args %v: concrete PageDB diverges from specification", call, args))
		}
		// Checkpoint also writes a sealed blob to insecure memory; the
		// spec (sharing the concrete crypto and RNG replay) predicts its
		// exact words. Compare them against what the monitor wrote.
		if call == kapi.SMCCheckpoint && gotErr == kapi.ErrSuccess {
			_, _, specBlob, _ := spec.Checkpoint(SpecParams(c.Mon), before, pagedb.PageNr(args[0]), args[1], args[2])
			got := c.snapshotWords(args[1], uint32(len(specBlob)), seal.MaxPayloadWords+seal.OverheadWords)
			if len(got) != len(specBlob) {
				return gotErr, gotVal, c.fail(fmt.Errorf(
					"refine: checkpoint: cannot re-read %d blob words", len(specBlob)))
			}
			for i := range specBlob {
				if got[i] != specBlob[i] {
					return gotErr, gotVal, c.fail(fmt.Errorf(
						"refine: checkpoint blob word %d: monitor wrote %#x, spec says %#x", i, got[i], specBlob[i]))
				}
			}
		}
	}
	return gotErr, gotVal, nil
}

// SpecParams builds the specification parameters matching mon, from what
// the monitor exports: its page count, attestation key, profile and the
// machine's memory layout. Rand replays the RNG words recorded during the
// last SMC, so refinement checking sees the same nondeterminism the
// implementation drew (§6.3's shared seed).
func SpecParams(mon *monitor.Monitor) spec.Params {
	l := mon.Machine().Phys.Layout()
	replay := mon.RNGTrace()
	return spec.Params{
		NPages:        mon.NPages(),
		InsecureBase:  l.InsecureBase,
		InsecureSize:  l.InsecureSize,
		AttestKey:     mon.AttestKey(),
		StaticProfile: mon.StaticProfile(),
		Rand: func() uint32 {
			if len(replay) == 0 {
				return 0
			}
			v := replay[0]
			replay = replay[1:]
			return v
		},
	}
}

func (c *Checker) fail(err error) error {
	c.Failures++
	if c.OnFailure != nil {
		c.OnFailure(err)
		return nil
	}
	return err
}

// snapshotWords copies n words of insecure memory starting at pa, or
// returns nil when the window is not entirely valid insecure memory (in
// which case the spec rejects the call before consulting the snapshot).
func (c *Checker) snapshotWords(pa, n, max uint32) []uint32 {
	phys := c.Mon.Machine().Phys
	if n == 0 || n > max || pa%mem.PageSize != 0 {
		return nil
	}
	if uint64(pa)+uint64(n)*4 > 1<<32 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		a := pa + uint32(i*4)
		if i%mem.PageWords == 0 && !phys.InInsecure(a) {
			return nil
		}
		w, err := phys.Read(a, mem.Secure)
		if err != nil {
			return nil
		}
		out[i] = w
	}
	return out
}

func (c *Checker) snapshotInsecure(pa uint32) (*[mem.PageWords]uint32, bool) {
	phys := c.Mon.Machine().Phys
	if pa%mem.PageSize != 0 || !phys.InInsecure(pa) {
		return nil, false
	}
	pg, err := phys.ReadPage(pa, mem.Secure)
	if err != nil {
		return nil, false
	}
	return &pg, true
}
