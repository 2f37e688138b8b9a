package server

// CheckpointStore makes notary counters durable across komodo-serve
// restarts: after a sign, the server seals the notary enclave into a
// checkpoint (komodo.Checkpoint) and appends it to a crash-safe WAL
// (internal/store). At the next start the pool's Provision hook restores
// each worker's latest checkpoint before the golden snapshot is
// captured, so the monotonic counter resumes from its last durable
// value instead of 0 — the sealed-storage story of docs/SEALING.md
// applied to the serving layer.
//
// Only the sealed blob is durable. The store never sees enclave
// plaintext: a checkpoint written by one server process opens only on a
// monitor holding the same boot secret, so the state directory can live
// on untrusted disk.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/store"
	"repro/komodo"
)

const (
	// recCheckpoint is the WAL record kind for a sealed notary checkpoint.
	recCheckpoint = uint32(1)
	// recFormat versions a recCheckpoint payload: a fixed header (this
	// version, worker, counter, each u32 big-endian) followed by the
	// komodo.Checkpoint compact form. Version 1 was a JSON
	// SavedCheckpoint, told apart by its leading '{'; recovery reads
	// both. The version's leading zero byte is not JSON, so an older
	// binary rejects the record instead of skipping it.
	recFormat    = uint32(2)
	recHeadBytes = 12
	// ckptSnapshotName is the folded-state snapshot file: a JSON array of
	// SavedCheckpoint. Its name is kept across payload formats, so an
	// older binary reads it and then fails closed on the compact Ckpt.
	ckptSnapshotName = "checkpoints.json"
	// ckptCompactEvery folds the WAL into a snapshot after this many
	// appended records, bounding recovery time and log growth.
	ckptCompactEvery = 64
)

// SavedCheckpoint is one durable notary checkpoint, as recovered from a
// WAL record or a snapshot entry.
type SavedCheckpoint struct {
	Worker  int    `json:"worker"`
	Counter uint32 `json:"counter"`
	// Ckpt is the sealed blob + untrusted manifest, in either form
	// komodo.UnmarshalCheckpoint reads: compact for everything this
	// version writes, JSON in records an older version wrote.
	Ckpt []byte `json:"ckpt"`
}

// decodeRecord parses a recCheckpoint payload of either format. The
// recovered Ckpt aliases payload.
func decodeRecord(payload []byte) (SavedCheckpoint, error) {
	var s SavedCheckpoint
	if len(payload) > 0 && payload[0] == '{' {
		err := json.Unmarshal(payload, &s)
		return s, err
	}
	if len(payload) < recHeadBytes {
		return s, fmt.Errorf("payload of %d bytes is shorter than its header", len(payload))
	}
	if v := binary.BigEndian.Uint32(payload); v != recFormat {
		return s, fmt.Errorf("unknown payload format %d", v)
	}
	s.Worker = int(binary.BigEndian.Uint32(payload[4:]))
	s.Counter = binary.BigEndian.Uint32(payload[8:])
	s.Ckpt = payload[recHeadBytes:]
	return s, nil
}

// CheckpointStore persists per-worker notary checkpoints. Safe for
// concurrent use: Saves append to the WAL without holding a common
// mutex across the write, so with store.WithGroupCommit concurrent
// checkpoints coalesce into shared fsync groups.
type CheckpointStore struct {
	// cmu orders saves against compaction: every Save holds it shared
	// for append + map update, Compact takes it exclusively, so the
	// snapshot that replaces the WAL always folds every acknowledged
	// record.
	cmu sync.RWMutex
	// mu guards the in-memory map state only (never held across I/O).
	mu        sync.Mutex
	st        *store.Store
	latest    map[int]SavedCheckpoint
	latestSeq map[int]uint64 // WAL seq backing latest, so stale group members lose
	dirty     int            // records appended since the last compaction
}

// OpenCheckpointStore opens (or creates) the checkpoint store in dir,
// recovering the latest checkpoint per worker from snapshot + WAL.
func OpenCheckpointStore(dir string, opts ...store.Option) (*CheckpointStore, error) {
	st, err := store.Open(dir, opts...)
	if err != nil {
		return nil, err
	}
	c := &CheckpointStore{st: st, latest: make(map[int]SavedCheckpoint), latestSeq: make(map[int]uint64)}
	// Snapshot first (the folded base), then replay the WAL over it —
	// later records win.
	if data, ok, err := st.ReadSnapshot(ckptSnapshotName); err != nil {
		st.Close()
		return nil, err
	} else if ok {
		var snap []SavedCheckpoint
		if err := json.Unmarshal(data, &snap); err != nil {
			st.Close()
			return nil, fmt.Errorf("server: checkpoint snapshot corrupt: %w", err)
		}
		for _, s := range snap {
			c.latest[s.Worker] = s
		}
	}
	for _, rec := range st.Records() {
		// A record that passed the CRC but is of an unknown kind or
		// format was written by a newer version or by a bug, not torn
		// by a crash. Skipping it could re-issue the counters it holds,
		// so the open fails.
		if rec.Kind != recCheckpoint {
			st.Close()
			return nil, fmt.Errorf("server: WAL record %d has unknown kind %d", rec.Seq, rec.Kind)
		}
		s, err := decodeRecord(rec.Payload)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("server: checkpoint record %d: %w", rec.Seq, err)
		}
		c.latest[s.Worker] = s
		c.latestSeq[s.Worker] = rec.Seq
	}
	return c, nil
}

// Save durably records worker's notary checkpoint at the given counter.
// The record is encoded in one pass into its own WAL frame
// (store.AppendFrame), which the store writes as it is and the saved
// Ckpt then aliases. The WAL append runs outside any map mutex, so
// concurrent Saves from different sealed batches can share one fsync
// group.
func (c *CheckpointStore) Save(worker int, counter uint32, ckpt *komodo.Checkpoint) error {
	if worker < 0 || uint64(worker) > math.MaxUint32 {
		return fmt.Errorf("server: worker id %d out of range", worker)
	}
	const at = store.FrameHead + recHeadBytes
	frame := make([]byte, at)
	binary.BigEndian.PutUint32(frame[store.FrameHead:], recFormat)
	binary.BigEndian.PutUint32(frame[store.FrameHead+4:], uint32(worker))
	binary.BigEndian.PutUint32(frame[store.FrameHead+8:], counter)
	// AppendCompact grows frame once, to an allocator size class; the
	// CRC's bytes fit in its slack unless the record ends on a class
	// boundary, where this append copies it once more.
	frame, err := ckpt.AppendCompact(frame)
	if err != nil {
		return err
	}
	frame = append(frame, make([]byte, store.FrameTail)...)
	end := len(frame) - store.FrameTail
	s := SavedCheckpoint{Worker: worker, Counter: counter, Ckpt: frame[at:end:end]}
	c.cmu.RLock()
	seq, err := c.st.AppendFrame(recCheckpoint, frame)
	if err != nil {
		c.cmu.RUnlock()
		return err
	}
	c.mu.Lock()
	// Group commits can complete two Saves for one worker in either
	// map-update order; the one the WAL ordered later wins, matching
	// what recovery would replay.
	if seq >= c.latestSeq[worker] {
		c.latest[worker] = s
		c.latestSeq[worker] = seq
	}
	c.dirty++
	compactNow := c.dirty >= ckptCompactEvery
	c.mu.Unlock()
	c.cmu.RUnlock()
	if compactNow {
		c.compact()
	}
	return nil
}

// compact folds latest into a snapshot and rewinds the WAL (store.Compact
// recycles it in place behind a generation frame), with all Saves
// excluded so every acknowledged record is folded before the log is
// dropped. The snapshot rename is atomic and happens before the rewind,
// so a crash between the two replays redundant (not missing) records.
// Best effort: a failed snapshot leaves the WAL intact and a failed
// rewind comes after the snapshot, so nothing durable is lost — only
// log growth until the next Save retries.
func (c *CheckpointStore) compact() {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	c.mu.Lock()
	if c.dirty < ckptCompactEvery { // another Save already compacted
		c.mu.Unlock()
		return
	}
	snap := make([]SavedCheckpoint, 0, len(c.latest))
	for _, s := range c.latest {
		snap = append(snap, s)
	}
	c.mu.Unlock()
	data, err := json.Marshal(snap)
	if err != nil {
		return
	}
	if err := c.st.WriteSnapshot(ckptSnapshotName, data); err != nil {
		return
	}
	if err := c.st.Compact(); err != nil {
		return
	}
	c.mu.Lock()
	c.dirty = 0
	c.mu.Unlock()
}

// StoreStats reports the underlying WAL's write-path counters (appends,
// fsyncs, commit-group sizes) for /v1/stats and /metrics.
func (c *CheckpointStore) StoreStats() store.Stats { return c.st.Stats() }

// Latest returns worker's most recent checkpoint, if any.
func (c *CheckpointStore) Latest(worker int) (SavedCheckpoint, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.latest[worker]
	return s, ok
}

// Workers lists the worker IDs with saved checkpoints.
func (c *CheckpointStore) Workers() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.latest))
	for id := range c.latest {
		out = append(out, id)
	}
	return out
}

// Close closes the underlying store.
func (c *CheckpointStore) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.Close()
}

// RestoreProvision builds a pool Provision hook that restores each
// worker's latest saved checkpoint onto its freshly booted board,
// replacing the blueprint's fresh notary. It runs before the pool
// captures the golden snapshot, so the restored counter is part of the
// state every subsequent restore rewinds to.
//
// Restore fails — and with it the boot — if the blob was tampered with
// or the board's monitor holds a different boot secret: durability
// never weakens the sealing policy.
func RestoreProvision(cs *CheckpointStore) func(int, *komodo.System, any) error {
	return func(workerID int, sys *komodo.System, state any) error {
		if cs == nil {
			return nil
		}
		saved, ok := cs.Latest(workerID)
		if !ok {
			return nil
		}
		st, ok := state.(*WorkerState)
		if !ok {
			return fmt.Errorf("server: worker state is %T, want *WorkerState", state)
		}
		ckpt, err := komodo.UnmarshalCheckpoint(saved.Ckpt)
		if err != nil {
			return err
		}
		// The blueprint's fresh notary is superseded; free its pages
		// first so the restore has room. A restore failure fails the
		// boot, so the missing fresh notary is never observable.
		if st.Notary != nil {
			if err := st.Notary.Destroy(); err != nil {
				return err
			}
			st.Notary = nil
		}
		enc, err := sys.RestoreEnclave(ckpt)
		if err != nil {
			return fmt.Errorf("server: restoring worker %d notary: %w", workerID, err)
		}
		st.Notary = enc
		return nil
	}
}
