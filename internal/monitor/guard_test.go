package monitor_test

import (
	"testing"

	"repro/internal/arm"
	"repro/internal/board"
	"repro/internal/kapi"
)

// Guard-path tests: the monitor's Go-level entry points enforce the
// architectural preconditions the hardware would.

func TestHandleSMCRequiresMonitorMode(t *testing.T) {
	plat, err := board.Boot(board.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The machine is in normal-world svc after boot — not monitor mode.
	if err := plat.Monitor.HandleSMC(); err == nil {
		t.Fatal("HandleSMC accepted a non-monitor-mode machine")
	}
}

func TestSMCHelperRequiresNormalWorldPrivileged(t *testing.T) {
	plat, err := board.Boot(board.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := plat.Machine
	// From the secure world: rejected (the helper models the OS).
	m.SetSCRNS(false)
	if _, _, err := plat.Monitor.SMC(kapi.SMCGetPhysPages); err == nil {
		t.Fatal("SMC helper accepted a secure-world caller")
	}
	m.SetSCRNS(true)
	// From user mode: rejected (SMC is a privileged instruction).
	c := m.CPSR()
	c.Mode = arm.ModeUsr
	m.SetCPSR(c)
	if _, _, err := plat.Monitor.SMC(kapi.SMCGetPhysPages); err == nil {
		t.Fatal("SMC helper accepted a user-mode caller")
	}
	// Too many arguments: rejected.
	c.Mode = arm.ModeSvc
	m.SetCPSR(c)
	if _, _, err := plat.Monitor.SMC(kapi.SMCGetPhysPages, 1, 2, 3, 4, 5); err == nil {
		t.Fatal("SMC helper accepted five arguments")
	}
}
