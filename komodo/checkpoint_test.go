package komodo_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/kasm"
	"repro/internal/nwos"
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

// TestCheckpointAllocationFree: checkpointing the notary into a reused
// Checkpoint allocates a small constant — the manifest — and nothing in
// proportion to the image. The monitor images the enclave into a buffer
// it reuses and seals it in place; the OS copies the blob out of
// insecure memory into the Checkpoint's own blob.
func TestCheckpointAllocationFree(t *testing.T) {
	if !allocFree {
		t.Skip("under -race, crypto/sha256's state export allocates")
	}
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
	var c komodo.Checkpoint
	checkpoint := func() {
		if err := sys.CheckpointInto(&c, enc); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint() // the blob and the monitor's reused buffers grow on the first call
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		checkpoint()
	}
	runtime.ReadMemStats(&after)
	bytes, n := (after.TotalAlloc-before.TotalAlloc)/runs, (after.Mallocs-before.Mallocs)/runs
	t.Logf("%d bytes, %d allocations per checkpoint of a %d-word blob", bytes, n, len(c.Blob))
	const limit = 1 << 10
	if bytes > limit {
		t.Errorf("checkpoint allocated %d bytes per call, want at most %d", bytes, limit)
	}
	if n > 10 {
		t.Errorf("checkpoint made %d allocations per call, want at most 10", n)
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

// seedCheckpoint is a small synthetic checkpoint with every manifest
// field set.
func seedCheckpoint() *komodo.Checkpoint {
	return &komodo.Checkpoint{
		Manifest: nwos.Manifest{
			NumPages: 4, L1: 0, Threads: []int{3},
			L2: []nwos.L2Slot{{L1Index: 0, Logical: 1}}, Data: []int{2},
			SharedPA: []uint32{0x80100000},
		},
		Blob: []uint32{1, 0xdeadbeef, 0, 0xffffffff},
	}
}

// TestAppendCompactBytes: the compact form is the magic, the version,
// the manifest's json.Marshal bytes behind their length, the blob's word
// count and its words, appended after whatever dst held.
func TestAppendCompactBytes(t *testing.T) {
	c := seedCheckpoint()
	man, err := json.Marshal(c.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("head" + "KCKP")
	want = binary.BigEndian.AppendUint32(want, 2)
	want = binary.BigEndian.AppendUint32(want, uint32(len(man)))
	want = append(want, man...)
	want = binary.BigEndian.AppendUint32(want, uint32(len(c.Blob)))
	for _, w := range c.Blob {
		want = binary.BigEndian.AppendUint32(want, w)
	}
	for _, dst := range [][]byte{[]byte("head"), append(make([]byte, 0, 1<<10), "head"...)} {
		got, err := c.AppendCompact(dst)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendCompact(cap %d) = %q, want %q", cap(dst), got, want)
		}
	}
}

// TestAppendCompactAllocations: into a dst with room for the record,
// AppendCompact encodes the manifest in place. Its one allocation is
// the writer the JSON encoder appends through, not the manifest's bytes.
func TestAppendCompactAllocations(t *testing.T) {
	if !allocFree {
		t.Skip("allocations are counted without -race")
	}
	c := seedCheckpoint()
	buf := make([]byte, 0, 1<<10)
	var err error
	if n := testing.AllocsPerRun(100, func() { buf, err = c.AppendCompact(buf[:0]) }); n > 1 || err != nil {
		t.Fatalf("AppendCompact into a buffer with room: %v allocations (err %v), want at most 1", n, err)
	}
}

// FuzzUnmarshalCheckpoint feeds UnmarshalCheckpoint arbitrary bytes,
// seeded with both forms. It must never panic, never return more blob
// than the input carries, and whatever it accepts must round-trip
// through the compact form: manifest and blob word for word.
func FuzzUnmarshalCheckpoint(f *testing.F) {
	ck := seedCheckpoint()
	js, err := ck.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	compact, err := ck.AppendCompact(nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{js, compact, compact[:len(compact)-1], compact[:12], []byte("KCKP"), nil} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := komodo.UnmarshalCheckpoint(data)
		if err != nil {
			return
		}
		if 4*len(c.Blob) > len(data) {
			t.Fatalf("%d blob words from %d bytes", len(c.Blob), len(data))
		}
		enc, err := c.AppendCompact(nil)
		if err != nil {
			t.Fatal(err)
		}
		back, err := komodo.UnmarshalCheckpoint(enc)
		if err != nil {
			t.Fatalf("compact form of an accepted checkpoint rejected: %v", err)
		}
		// Compare manifests by their JSON: omitempty folds an empty
		// SharedPA into a nil one.
		m1, _ := json.Marshal(c.Manifest)
		m2, _ := json.Marshal(back.Manifest)
		if !bytes.Equal(m1, m2) || !slices.Equal(c.Blob, back.Blob) {
			t.Fatalf("round trip changed the checkpoint: %+v became %+v", c, back)
		}
	})
}

// TestCompactCheckpointForgedLengths: length fields that claim more than
// the input holds are rejected before anything is allocated for them.
func TestCompactCheckpointForgedLengths(t *testing.T) {
	compact, err := seedCheckpoint().AppendCompact(nil)
	if err != nil {
		t.Fatal(err)
	}
	manLen := int(binary.BigEndian.Uint32(compact[8:]))
	forge := func(at int, v uint32) []byte {
		b := slices.Clone(compact)
		binary.BigEndian.PutUint32(b[at:], v)
		return b
	}
	for name, data := range map[string][]byte{
		"manifest length": forge(8, 0xffffffff),
		"word count":      forge(12+manLen, 0x3fffffff),
		"one word short":  compact[:len(compact)-4],
		"version":         forge(4, 3),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := komodo.UnmarshalCheckpoint(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: forged checkpoint accepted", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Fatalf("%s: rejecting allocated %d bytes", name, got)
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
// baseline. Each op is the whole durable step, sign and checkpoint
// included, so a run takes about its benchtime; ns/op, B/op and
// allocs/op are the step's, and rebase-ns/op is the rebase's own time.
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
			var rebase time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := enc.WriteShared(0, 0, doc); err != nil {
					b.Fatal(err)
				}
				if _, err := enc.Run(uint32(len(doc))); err != nil {
					b.Fatal(err)
				}
				if _, err := sys.CheckpointEnclave(enc); err != nil {
					b.Fatal(err)
				}
				t0 := time.Now()
				if full {
					golden = sys.Snapshot()
				} else if !sys.Rebase(golden) {
					b.Fatal("incremental rebase fell back")
				}
				rebase += time.Since(t0)
			}
			b.ReportMetric(float64(rebase.Nanoseconds())/float64(b.N), "rebase-ns/op")
		})
	}
}
