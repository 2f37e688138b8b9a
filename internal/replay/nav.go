package replay

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/komodo"
)

// Navigator drives an offline replay under debugger control: it boots the
// trace's platform, seats the recorded start state, installs a freezer
// armed to park on the very first instruction, and then applies the
// recorded boundary operations on its own goroutine. The session's
// step/until commands navigate the replayed timeline exactly as they would
// a live machine; Wait collects the divergence report at the end.
type Navigator struct {
	sys   *komodo.System
	trace *Trace
	fz    *Freezer

	opIdx atomic.Int64
	res   *Result
	done  chan struct{}
}

// StartNavigator boots a replay under the monitor. The machine parks on
// the first instruction of the first enclave entry; drive it with the
// returned navigator's Session/Freezer.
func StartNavigator(t *Trace, mods ...func(*komodo.BootConfig)) (*Navigator, error) {
	bc := t.Header.Boot
	for _, mod := range mods {
		mod(&bc)
	}
	sys, err := komodo.New(bc.Options()...)
	if err != nil {
		return nil, fmt.Errorf("replay: boot: %w", err)
	}
	if err := Seat(sys, t); err != nil {
		return nil, err
	}
	n := &Navigator{
		sys:   sys,
		trace: t,
		fz:    Install(sys.Machine()),
		done:  make(chan struct{}),
	}
	// Arm and request a stop so the first simulated instruction parks.
	n.fz.armed.Store(true)
	n.fz.freezeReq.Store(true)

	go func() {
		defer close(n.done)
		res := &Result{Ops: len(t.Ops)}
		for i := range t.Ops {
			n.opIdx.Store(int64(i))
			applyOp(sys, t, i, res)
			if len(res.Divergence) >= maxDivergences {
				break
			}
		}
		n.opIdx.Store(int64(len(t.Ops)))
		if len(res.Divergence) < maxDivergences {
			finalCheck(sys, t, res)
		}
		res.Cycles = sys.Cycles()
		stats.replayed.Add(1)
		if !res.OK() {
			stats.diverged.Add(1)
		}
		n.res = res
	}()

	// Give the goroutine a moment to reach the first instruction; not
	// required for correctness (a later freeze/step will park too), but
	// it makes the REPL come up already frozen for typical traces.
	select {
	case <-n.fz.parked:
	case <-time.After(3 * time.Second):
	case <-n.done:
	}
	return n, nil
}

// System returns the replayed system.
func (n *Navigator) System() *komodo.System { return n.sys }

// Trace returns the trace being replayed.
func (n *Navigator) Trace() *Trace { return n.trace }

// OpIndex reports which recorded op is currently being applied.
func (n *Navigator) OpIndex() int { return int(n.opIdx.Load()) }

// Wait blocks until the replay finishes (all ops applied and the final
// state checked) and returns the result. ok=false on timeout — usually
// because the machine is still frozen.
func (n *Navigator) Wait(timeout time.Duration) (*Result, bool) {
	select {
	case <-n.done:
		return n.res, true
	case <-time.After(timeout):
		return nil, false
	}
}

// Session builds a monitor session over the navigator.
func (n *Navigator) Session() *Session {
	s := NewSession(n.fz, n.sys)
	s.Nav = n
	return s
}
