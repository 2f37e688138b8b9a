package mem_test

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/server"
)

// TestBootedBoardIsSparse: a booted serving board (quoting enclave
// provisioned, attester and notary loaded) allocates a few dozen of the
// default layout's 4,352 pages, so boots, golden snapshots and full
// restores cost what the board wrote rather than 17 MB.
func TestBootedBoardIsSparse(t *testing.T) {
	sys, _, err := server.Blueprint(1)()
	if err != nil {
		t.Fatal(err)
	}
	phys := sys.Machine().Phys
	if n := mem.AllocatedPages(phys); n > 64 {
		t.Fatalf("booted board holds %d allocated pages, want at most 64", n)
	} else {
		t.Logf("booted board: %d allocated pages of %d", n, phys.TotalWords()/mem.PageWords)
	}
}
