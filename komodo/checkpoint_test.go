package komodo_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/kasm"
	"repro/komodo"
)

// TestCheckpointRoundTrip: checkpoint → marshal → unmarshal → restore on
// a second identically-keyed system, then run the migrated enclave.
func TestCheckpointRoundTrip(t *testing.T) {
	sys, err := komodo.New(komodo.WithSeed(77), komodo.WithRefinementChecking())
	if err != nil {
		t.Fatal(err)
	}
	img, err := kasm.AddArgs().Image()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := sys.LoadEnclave(komodo.FromNWOSImage(img))
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := sys.CheckpointEnclave(enc)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ckpt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := komodo.UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Blob) != len(ckpt.Blob) || back.Manifest.NumPages != ckpt.Manifest.NumPages {
		t.Fatalf("round-trip mangled checkpoint: %d/%d words, %d/%d pages",
			len(back.Blob), len(ckpt.Blob), back.Manifest.NumPages, ckpt.Manifest.NumPages)
	}

	peer, err := komodo.New(komodo.WithSeed(77), komodo.WithRefinementChecking())
	if err != nil {
		t.Fatal(err)
	}
	clone, err := peer.RestoreEnclave(back)
	if err != nil {
		t.Fatal(err)
	}
	res, err := clone.Run(20, 22)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 42 {
		t.Fatalf("migrated enclave returned %d", res.Value)
	}

	// A system with a different boot secret must reject the blob.
	alien, err := komodo.New(komodo.WithSeed(78))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alien.RestoreEnclave(back); err == nil {
		t.Fatal("restore on a differently-keyed system succeeded")
	}
}

// BenchmarkCheckpoint measures sealing the §8.2 notary enclave (7 secure
// pages) into a portable checkpoint: wall time per op plus the monitor's
// charged cycle cost and the blob size as custom metrics.
func BenchmarkCheckpoint(b *testing.B) {
	sys, err := komodo.New(komodo.WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	img, err := kasm.NotaryGuest(1).Image()
	if err != nil {
		b.Fatal(err)
	}
	enc, err := sys.LoadEnclave(komodo.FromNWOSImage(img))
	if err != nil {
		b.Fatal(err)
	}
	var blobWords int
	start := sys.Cycles()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ckpt, err := sys.CheckpointEnclave(enc)
		if err != nil {
			b.Fatal(err)
		}
		blobWords = len(ckpt.Blob)
	}
	b.StopTimer()
	b.ReportMetric(float64(sys.Cycles()-start)/float64(b.N), "cycles/op")
	b.ReportMetric(float64(blobWords*4), "blob-bytes")
}

// BenchmarkRestore measures instantiating that checkpoint back onto the
// same board (restore + destroy per op, so pages do not accumulate).
func BenchmarkRestore(b *testing.B) {
	sys, err := komodo.New(komodo.WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	img, err := kasm.NotaryGuest(1).Image()
	if err != nil {
		b.Fatal(err)
	}
	enc, err := sys.LoadEnclave(komodo.FromNWOSImage(img))
	if err != nil {
		b.Fatal(err)
	}
	ckpt, err := sys.CheckpointEnclave(enc)
	if err != nil {
		b.Fatal(err)
	}
	var cyc uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c0 := sys.Cycles()
		clone, err := sys.RestoreEnclave(ckpt)
		if err != nil {
			b.Fatal(err)
		}
		cyc += sys.Cycles() - c0 // restore only; destroy is excluded below
		b.StopTimer()
		if err := clone.Destroy(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(cyc)/float64(b.N), "cycles/op")
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"not json",
		`{"version":2,"manifest":{},"blob":""}`,
		`{"version":1,"manifest":{},"blob":"!!!"}`,
	} {
		if _, err := komodo.UnmarshalCheckpoint([]byte(bad)); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

// TestNotaryCheckpointModelledCost pins what one KOM_SMC_CHECKPOINT of
// the §8.2 notary enclave costs and produces on a seed-7 board: the
// monitor's charged cycles (SHA blocks of the simulated hardware, not
// the Go implementation's work) and the SHA-256 of the sealed blob. Any
// change to either is a change to the modelled monitor or to the wire
// format, not an optimisation.
func TestNotaryCheckpointModelledCost(t *testing.T) {
	const (
		wantCycles = 1141467
		wantBlob   = "7fd3d9cbf597aa0a5683b145d2aa075c8d6eaceda0cb1d15b209669f2b21779e"
	)
	sys, err := komodo.New(komodo.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	img, err := kasm.NotaryGuest(1).Image()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := sys.LoadEnclave(komodo.FromNWOSImage(img))
	if err != nil {
		t.Fatal(err)
	}
	start := sys.Cycles()
	ckpt, err := sys.CheckpointEnclave(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Cycles() - start; got != wantCycles {
		t.Errorf("checkpoint charged %d cycles, want %d", got, wantCycles)
	}
	raw := make([]byte, 4*len(ckpt.Blob))
	for i, w := range ckpt.Blob {
		binary.BigEndian.PutUint32(raw[4*i:], w)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != wantBlob {
		t.Errorf("sealed blob digest = %s, want %s", got, wantBlob)
	}
}

// BenchmarkRebase measures making the board's state after one notary sign
// plus checkpoint the new restore point — the last stage of a durable
// sign. "incremental" folds the dirtied pages into the existing golden
// snapshot (System.Rebase); "full" takes a fresh Snapshot of all of RAM,
// what the rebase falls back to when the golden is no longer memory's
// baseline. The sign and checkpoint run with the timer stopped, so ns/op,
// B/op and allocs/op are the rebase's alone.
func BenchmarkRebase(b *testing.B) {
	for _, full := range []bool{false, true} {
		name := "incremental"
		if full {
			name = "full"
		}
		b.Run(name, func(b *testing.B) {
			sys, err := komodo.New(komodo.WithSeed(7))
			if err != nil {
				b.Fatal(err)
			}
			img, err := kasm.NotaryGuest(1).Image()
			if err != nil {
				b.Fatal(err)
			}
			enc, err := sys.LoadEnclave(komodo.FromNWOSImage(img))
			if err != nil {
				b.Fatal(err)
			}
			golden := sys.Snapshot()
			doc := make([]uint32, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := enc.WriteShared(0, 0, doc); err != nil {
					b.Fatal(err)
				}
				if _, err := enc.Run(uint32(len(doc))); err != nil {
					b.Fatal(err)
				}
				if _, err := sys.CheckpointEnclave(enc); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if full {
					golden = sys.Snapshot()
				} else if !sys.Rebase(golden) {
					b.Fatal("incremental rebase fell back")
				}
			}
		})
	}
}
