package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/nwos"
	"repro/internal/pool"
	"repro/internal/store"
	"repro/komodo"
)

// Save encodes each worker's records into two WAL frames in turn. These
// tests check that nothing outside the store sees a frame overwritten:
// not a caller of Latest, not a concurrent Save of another worker, not
// recovery, and not the record after a failed append.

// sizedCheckpoint is a synthetic checkpoint of n blob words, each
// naming the checkpoint and its position.
func sizedCheckpoint(word uint32, n int) *komodo.Checkpoint {
	c := &komodo.Checkpoint{Manifest: nwos.Manifest{NumPages: 1}, Blob: make([]uint32, n)}
	for i := range c.Blob {
		c.Blob[i] = word<<16 | uint32(i)
	}
	return c
}

// walRecord is the WAL frame of a checkpoint record, encoded field by
// field apart from Save and the store.
func walRecord(t *testing.T, seq uint64, worker int, counter uint32, ckpt *komodo.Checkpoint) []byte {
	t.Helper()
	payload := binary.BigEndian.AppendUint32(nil, recFormat)
	payload = binary.BigEndian.AppendUint32(payload, uint32(worker))
	payload = binary.BigEndian.AppendUint32(payload, counter)
	payload, err := ckpt.AppendCompact(payload)
	if err != nil {
		t.Fatal(err)
	}
	f := binary.BigEndian.AppendUint32(nil, 0x4B57414C) // "KWAL"
	f = binary.BigEndian.AppendUint64(f, seq)
	f = binary.BigEndian.AppendUint32(f, recCheckpoint)
	f = binary.BigEndian.AppendUint32(f, uint32(len(payload)))
	f = append(f, payload...)
	return binary.BigEndian.AppendUint32(f, crc32.ChecksumIEEE(f[4:]))
}

// compactOf is ckpt's compact form, the Ckpt a Save of it records.
func compactOf(t *testing.T, ckpt *komodo.Checkpoint) []byte {
	t.Helper()
	b, err := ckpt.AppendCompact(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLatestReturnsCopy: the Ckpt Latest returns is the caller's own.
// Scribbling over it leaves the store unchanged, and the Saves that
// recycle the worker's frames afterwards leave it unchanged.
func TestLatestReturnsCopy(t *testing.T) {
	cs, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	for i := uint32(1); i <= 2; i++ { // both of the worker's frames exist
		if err := cs.Save(0, i, sizedCheckpoint(i, 64)); err != nil {
			t.Fatal(err)
		}
	}
	want := compactOf(t, sizedCheckpoint(2, 64))
	got, ok := cs.Latest(0)
	if !ok || got.Counter != 2 || !bytes.Equal(got.Ckpt, want) {
		t.Fatalf("latest = counter %d (ok=%v), Ckpt equal %v", got.Counter, ok, bytes.Equal(got.Ckpt, want))
	}
	clear(got.Ckpt)
	if again, _ := cs.Latest(0); !bytes.Equal(again.Ckpt, want) {
		t.Fatal("scribbling over Latest's Ckpt changed the store's latest checkpoint")
	}

	kept, _ := cs.Latest(0)
	for i := uint32(3); i <= 4; i++ { // overwrite both frames
		if err := cs.Save(0, i, sizedCheckpoint(i, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(kept.Ckpt, want) {
		t.Fatal("later Saves overwrote a Ckpt Latest had returned")
	}
}

// TestConcurrentSavesRecycleAcrossCompactions: two workers sign and save
// real sealed checkpoints concurrently, each sealing into one reused
// Checkpoint as the server does, across several compactions (run with
// -race). After a reopen each worker's recovered checkpoint is the last
// one Latest returned, and it restores through RestoreProvision with the
// counter carrying on.
func TestConcurrentSavesRecycleAcrossCompactions(t *testing.T) {
	const seed, workers, saves = 3, 2, 100 // 200 records: 3 compactions
	for _, m := range []struct {
		name string
		opts []store.Option
	}{{"fsync", nil}, {"group", []store.Option{store.WithGroupCommit()}}} {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			cs, err := OpenCheckpointStore(dir, m.opts...)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			var wg sync.WaitGroup
			for w := range workers {
				sys, state, err := Blueprint(seed)()
				if err != nil {
					t.Fatal(err)
				}
				st := state.(*WorkerState)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range saves {
						n, err := NotarySign(ctx, st, []byte("recycled"))
						if err == nil {
							err = sys.CheckpointInto(&st.ckpt, st.Notary)
						}
						if err == nil {
							err = cs.Save(w, n.Counter, &st.ckpt)
						}
						if err != nil {
							t.Errorf("worker %d: %v", w, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			if c := cs.StoreStats().Compactions; c < 3 {
				t.Fatalf("%d compactions, want at least 3", c)
			}
			last := make([]SavedCheckpoint, workers)
			for w := range workers {
				var ok bool
				if last[w], ok = cs.Latest(w); !ok || last[w].Counter != saves {
					t.Fatalf("worker %d latest counter %d (ok=%v), want %d", w, last[w].Counter, ok, saves)
				}
			}
			if err := cs.Close(); err != nil {
				t.Fatal(err)
			}

			cs2, err := OpenCheckpointStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer cs2.Close()
			for w := range workers {
				got, ok := cs2.Latest(w)
				if !ok || got.Counter != last[w].Counter || !bytes.Equal(got.Ckpt, last[w].Ckpt) {
					t.Fatalf("worker %d recovered counter %d (ok=%v), want the last Latest's %d and its Ckpt", w, got.Counter, ok, last[w].Counter)
				}
			}
			p, err := pool.New(pool.Config{Size: workers, Boot: Blueprint(seed), Provision: RestoreProvision(cs2)})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close(ctx)
			for range workers {
				wk, err := p.Get(ctx)
				if err != nil {
					t.Fatal(err)
				}
				defer p.Release(ctx, wk, pool.Keep) // held, so the next Get is the other worker
				n, err := NotarySign(ctx, wk.State().(*WorkerState), []byte("after restore"))
				if err != nil || n.Counter != saves+1 {
					t.Fatalf("worker %d signed counter %d (%v) after restore, want %d", wk.ID(), n.Counter, err, saves+1)
				}
			}
		})
	}
}

// TestSaveFsyncFailureKeepsLatest: a Save whose fsync fails leaves the
// worker's latest checkpoint as it was, though its record fitted in the
// latest checkpoint's frame too, and the next Save, which encodes a
// shorter record into the frame the failed one used, writes exactly its
// own record's bytes.
func TestSaveFsyncFailureKeepsLatest(t *testing.T) {
	dir := t.TempDir()
	var failing atomic.Bool
	cs, err := OpenCheckpointStore(dir, store.WithSync(func(f *os.File) error {
		if failing.Load() {
			return errors.New("injected fsync failure")
		}
		return f.Sync()
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	ckpts := []*komodo.Checkpoint{sizedCheckpoint(1, 200), sizedCheckpoint(2, 200), sizedCheckpoint(3, 150), sizedCheckpoint(4, 24)}
	for i, c := range ckpts[:2] { // both of the worker's frames exist
		if err := cs.Save(5, uint32(i+1), c); err != nil {
			t.Fatal(err)
		}
	}
	failing.Store(true)
	if err := cs.Save(5, 3, ckpts[2]); err == nil {
		t.Fatal("Save through a failing fsync succeeded")
	}
	failing.Store(false)
	if got, ok := cs.Latest(5); !ok || got.Counter != 2 || !bytes.Equal(got.Ckpt, compactOf(t, ckpts[1])) {
		t.Fatalf("latest after the failed Save is counter %d (ok=%v), want counter 2 and its Ckpt", got.Counter, ok)
	}
	if err := cs.Save(5, 4, ckpts[3]); err != nil {
		t.Fatal(err)
	}
	if got, _ := cs.Latest(5); got.Counter != 4 || !bytes.Equal(got.Ckpt, compactOf(t, ckpts[3])) {
		t.Fatalf("latest after the next Save is counter %d, want counter 4 and its Ckpt", got.Counter)
	}
	var want []byte
	want = append(want, walRecord(t, 1, 5, 1, ckpts[0])...)
	want = append(want, walRecord(t, 2, 5, 2, ckpts[1])...)
	want = append(want, walRecord(t, 3, 5, 4, ckpts[3])...)
	wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wal, want) {
		t.Fatalf("WAL of %d bytes differs from the %d bytes of records 1, 2 and 4", len(wal), len(want))
	}
}
