// Package store is a crash-safe record store for sealed blobs: an
// append-only write-ahead log plus atomic snapshot files. It is the
// durability layer under the serving stack's enclave checkpoints
// (docs/SEALING.md §Crash safety).
//
// Crash-safety invariants:
//
//   - Every WAL record is CRC-framed (magic, seq, kind, length, payload,
//     CRC-32/IEEE over everything after the magic), and every record's
//     seq is its predecessor's plus one. The recovery scan replays
//     records until the first frame that is torn, corrupt or out of
//     sequence — a crash mid-append loses at most the record being
//     written, never an earlier one.
//   - A caller can build a record in its own frame: AppendFrame takes a
//     buffer with FrameHead free bytes, the payload and FrameTail free
//     bytes, fills in the head and CRC under the store mutex and writes
//     the buffer as it is. Append is a wrapper that copies a payload
//     into such a frame.
//   - Append fsyncs before reporting success; if the fsync fails the
//     record is rolled back (truncated) and the error surfaced, so "it
//     returned nil" always means "it is on disk".
//   - With WithGroupCommit, concurrent Appends coalesce into commit
//     groups: one contiguous write and ONE fsync per group, each member
//     acknowledged only after the group's fsync. A failed group fsync
//     rolls the whole group back and fails every member, so the
//     fail-closed contract is per-record even when the fsync is shared.
//     Records keep their individual CRC frames, so torn-tail recovery is
//     unchanged: a crash mid-group keeps the longest intact prefix.
//   - Snapshots are written to a temp file, fsynced, then renamed into
//     place (and the directory fsynced), so a reader never observes a
//     half-written snapshot. Leftover *.tmp files from a crash are
//     ignored and removed at Open.
//   - Compact recycles the WAL in place, and only after the caller has
//     snapshotted the state the log's records are folded into: a
//     generation frame (an empty frame of a reserved kind, carrying the
//     last seq) overwrites offset 0, and later appends overwrite the
//     previous generation's frames behind it, so the file stays at its
//     high-water mark and an append's fsync rewrites allocated blocks.
//     Leftover frames all carry a seq at or below the generation's, so
//     the seq rule fences them off and a recycled log is not truncated
//     at Open. A log without a generation frame (never compacted, or
//     written by an older version) has its torn tail truncated.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

const (
	walName   = "wal.log"
	recMagic  = uint32(0x4B57414C) // "KWAL"
	headBytes = 4 + 8 + 4 + 4      // magic, seq, kind, len
	crcBytes  = 4

	// FrameHead and FrameTail are the bytes an AppendFrame buffer
	// leaves free before and after its payload for the frame's head
	// (magic, seq, kind, length) and its CRC.
	FrameHead = headBytes
	FrameTail = crcBytes

	// genKind is the kind of the generation frame Compact writes at
	// offset 0. Records() never returns it, and Append refuses it.
	genKind = ^uint32(0)

	// MaxPayloadBytes bounds one record (16 MiB) so a corrupt length
	// field cannot drive allocation during recovery.
	MaxPayloadBytes = 16 << 20
)

// ErrTooLarge reports an Append payload over MaxPayloadBytes.
var ErrTooLarge = errors.New("store: payload too large")

// ErrReservedKind reports an Append of the store's own frame kind.
var ErrReservedKind = errors.New("store: record kind is reserved")

// ErrShortFrame reports an AppendFrame buffer too short to hold a
// frame's head and CRC.
var ErrShortFrame = errors.New("store: frame shorter than its head and CRC")

// ErrClosed reports an Append after Close.
var ErrClosed = errors.New("store: closed")

// Record is one WAL entry.
type Record struct {
	Seq     uint64
	Kind    uint32
	Payload []byte
}

// RecoveryInfo describes what Open found in the WAL. Records never
// counts the generation frame. TruncatedBytes is the torn or corrupt
// tail cut off a log without a generation frame; a recycled log keeps
// its leftovers behind the live tail (fenced by the seq rule, and
// overwritten by the next appends), so it reads 0 there.
type RecoveryInfo struct {
	Records        int   // intact records replayed
	TruncatedBytes int64 // torn/corrupt tail bytes discarded
}

// Stats counts the store's write-path work. Without group commit every
// append is its own group of one, so Fsyncs == Appends and the
// group-size figures are all 1; with group commit Fsyncs counts the
// shared syncs the appends were amortised over.
type Stats struct {
	Appends      uint64 `json:"appends" prom:"komodo_store_appends_total" help:"WAL records appended (checkpoint saves)."`
	Fsyncs       uint64 `json:"fsyncs" prom:"komodo_store_fsyncs_total" help:"WAL fsyncs issued; with group commit, one per commit group."`
	Groups       uint64 `json:"group_commits" prom:"komodo_store_group_commits_total" help:"Commit groups flushed (equals appends without group commit)."`
	GroupSizeSum uint64 `json:"group_size_sum"`
	GroupSizeMax int    `json:"group_size_max" merge:"max"`
	GroupLast    int    `json:"group_size_last" merge:"last"`
	SyncFailures uint64 `json:"sync_failures" prom:"komodo_store_sync_failures_total" help:"WAL fsync failures (each failed every member of its group)."`
	LockWaitNS   uint64 `json:"lock_wait_ns" prom:"komodo_store_lock_wait_seconds_total" help:"Time WAL writers spent waiting for the store mutex."`
	FsyncNS      uint64 `json:"fsync_ns" prom:"komodo_store_fsync_seconds_total" help:"Time spent in WAL fsyncs, compactions included."`
	WALBytes     uint64 `json:"wal_bytes" prom:"komodo_store_wal_bytes_total" help:"Bytes written to the WAL, generation frames included."`
	Compactions  uint64 `json:"compactions" prom:"komodo_store_compactions_total" help:"WAL compactions (the log rewound behind a generation frame)."`
}

// MeanGroup is the mean commit-group size (0 before the first group).
func (st Stats) MeanGroup() float64 {
	if st.Groups == 0 {
		return 0
	}
	return float64(st.GroupSizeSum) / float64(st.Groups)
}

// Store is a WAL + snapshot directory. Appends, Compact and the read
// accessors are safe for concurrent use; with WithGroupCommit concurrent
// Appends additionally share fsyncs.
type Store struct {
	dir  string
	wal  *os.File
	sync func(*os.File) error

	mu    sync.Mutex // guards off, seq, recs, rec, stats
	off   int64      // end of the live log (leftovers may follow)
	seq   uint64
	recs  []Record
	rec   RecoveryInfo
	stats Stats

	// Group-commit coordinator (WithGroupCommit): appenders enqueue under
	// gmu and wait on their done channel; a dedicated committer goroutine
	// drains the queue a group at a time, so everything that arrives while
	// one fsync is in flight shares the next one.
	group   bool
	gmu     sync.Mutex
	gcond   *sync.Cond
	gq      []*groupAppend
	gclosed bool
	gdone   chan struct{} // closed when the committer exits
}

type groupAppend struct {
	kind  uint32
	frame []byte
	seq   uint64
	err   error
	done  chan struct{}
}

// Option configures Open.
type Option func(*Store)

// WithSync replaces the fsync used after every append and snapshot —
// the hook the crash-safety tests use to inject sync failures.
func WithSync(fn func(*os.File) error) Option {
	return func(s *Store) { s.sync = fn }
}

// WithGroupCommit turns on the group-commit coordinator: concurrent
// Appends are written and fsynced as one group, acknowledged after the
// group's single fsync. Serial appends behave exactly as without it
// (groups of one, identical WAL bytes).
func WithGroupCommit() Option {
	return func(s *Store) { s.group = true }
}

// Open opens (creating if needed) the store in dir and recovers the
// WAL, truncating the torn tail of a log that was never compacted.
func Open(dir string, opts ...Option) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, sync: (*os.File).Sync}
	for _, o := range opts {
		o(s)
	}
	// Clear temp files from interrupted snapshot writes.
	if ents, err := os.ReadDir(dir); err == nil {
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".tmp") {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s.wal = f
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	if s.group {
		s.gcond = sync.NewCond(&s.gmu)
		s.gdone = make(chan struct{})
		go s.committer()
	}
	return s, nil
}

// recover replays the WAL frame by frame: an optional generation frame
// at offset 0 sets the base seq, then every intact, in-sequence record
// is kept. Without a generation frame the rest of the file is a torn
// tail and is truncated. With one, the rest is left for the next appends
// to overwrite, unless it holds an intact frame the seq rule would not
// fence off.
func (s *Store) recover() error {
	info, err := s.wal.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	var off int64
	head := make([]byte, headBytes)
	recycled := false
	for {
		good, rec, next := readFrame(s.wal, off, size, head)
		if good && off == 0 && rec.Kind == genKind {
			s.seq, off, recycled = rec.Seq, next, true
			continue
		}
		if !good || rec.Kind == genKind || (off > 0 && rec.Seq != s.seq+1) {
			break
		}
		s.recs = append(s.recs, rec)
		s.seq = rec.Seq
		off = next
	}
	s.rec.Records = len(s.recs)
	s.off = off
	if off < size && (!recycled || s.laterFrame(off, size, head)) {
		s.rec.TruncatedBytes = size - off
		if err := s.wal.Truncate(off); err != nil {
			return err
		}
	}
	_, err = s.wal.Seek(off, io.SeekStart)
	return err
}

// laterFrame reports whether the WAL holds an intact frame with a seq
// above s.seq at or after off. Leftovers of earlier generations never
// do; a group write torn with a later member intact does, and once the
// next appends reached that member's offset it would read as in
// sequence. The scan reads the file a chunk at a time and reads a whole
// frame only for a header whose seq is that high.
func (s *Store) laterFrame(off, size int64, head []byte) bool {
	magic := binary.BigEndian.AppendUint32(nil, recMagic)
	chunk := make([]byte, 64<<10)
	for ; off+headBytes+crcBytes <= size; off += int64(len(chunk) - len(magic) + 1) {
		n, _ := s.wal.ReadAt(chunk, off)
		for i := 0; ; i++ {
			j := bytes.Index(chunk[i:n], magic)
			if j < 0 {
				break
			}
			i += j
			at := off + int64(i)
			if _, err := s.wal.ReadAt(head, at); err == nil && binary.BigEndian.Uint64(head[4:12]) > s.seq {
				if good, _, _ := readFrame(s.wal, at, size, head); good {
					return true
				}
			}
		}
	}
	return false
}

// readFrame parses one frame at off; reports ok=false on any torn or
// corrupt framing (including a truncated tail).
func readFrame(f *os.File, off, size int64, head []byte) (bool, Record, int64) {
	var rec Record
	if off+headBytes+crcBytes > size {
		return false, rec, off
	}
	if _, err := f.ReadAt(head, off); err != nil {
		return false, rec, off
	}
	if binary.BigEndian.Uint32(head[0:4]) != recMagic {
		return false, rec, off
	}
	rec.Seq = binary.BigEndian.Uint64(head[4:12])
	rec.Kind = binary.BigEndian.Uint32(head[12:16])
	n := int64(binary.BigEndian.Uint32(head[16:20]))
	if n > MaxPayloadBytes || off+headBytes+n+crcBytes > size {
		return false, rec, off
	}
	body := make([]byte, n+crcBytes)
	if _, err := f.ReadAt(body, off+headBytes); err != nil {
		return false, rec, off
	}
	crc := crc32.NewIEEE()
	crc.Write(head[4:]) // seq, kind, len
	crc.Write(body[:n])
	if crc.Sum32() != binary.BigEndian.Uint32(body[n:]) {
		return false, rec, off
	}
	rec.Payload = body[:n:n]
	return true, rec, off + headBytes + n + crcBytes
}

// putFrame fills in the head and CRC of frame, whose payload sits
// between its first headBytes and its last crcBytes.
func putFrame(frame []byte, seq uint64, kind uint32) {
	end := len(frame) - crcBytes
	binary.BigEndian.PutUint32(frame[0:], recMagic)
	binary.BigEndian.PutUint64(frame[4:], seq)
	binary.BigEndian.PutUint32(frame[12:], kind)
	binary.BigEndian.PutUint32(frame[16:], uint32(end-headBytes))
	binary.BigEndian.PutUint32(frame[end:], crc32.ChecksumIEEE(frame[4:end]))
}

// payloadOf is the payload of a frame built for AppendFrame.
func payloadOf(frame []byte) []byte {
	end := len(frame) - crcBytes
	return frame[headBytes:end:end]
}

// Append durably adds a record and returns its sequence number. It
// copies payload into a fresh frame and hands it to AppendFrame.
func (s *Store) Append(kind uint32, payload []byte) (uint64, error) {
	if len(payload) > MaxPayloadBytes {
		return 0, ErrTooLarge
	}
	frame := make([]byte, headBytes+len(payload)+crcBytes)
	copy(frame[headBytes:], payload)
	return s.AppendFrame(kind, frame)
}

// AppendFrame durably adds the record framed in frame and returns its
// sequence number. The caller builds frame as FrameHead free bytes, the
// payload, then FrameTail free bytes; under the store mutex AppendFrame
// fills in the head (magic, seq, kind, length) and the CRC and writes
// frame as it is, so the record is encoded once, in its final place.
// The live log's record aliases frame's payload: the caller must not
// modify frame after the call. On any write or sync failure the partial
// record is rolled back so the log never holds an unacknowledged tail.
// With WithGroupCommit, concurrent callers share one write+fsync; each
// still returns only after its record is on disk (or after the whole
// group was rolled back).
func (s *Store) AppendFrame(kind uint32, frame []byte) (uint64, error) {
	if len(frame) < headBytes+crcBytes {
		return 0, ErrShortFrame
	}
	if len(frame)-headBytes-crcBytes > MaxPayloadBytes {
		return 0, ErrTooLarge
	}
	if kind == genKind {
		return 0, ErrReservedKind
	}
	if s.group {
		p := &groupAppend{kind: kind, frame: frame, done: make(chan struct{})}
		s.gmu.Lock()
		if s.gclosed {
			s.gmu.Unlock()
			return 0, ErrClosed
		}
		s.gq = append(s.gq, p)
		s.gcond.Signal()
		s.gmu.Unlock()
		<-p.done
		return p.seq, p.err
	}

	s.lock()
	defer s.mu.Unlock()
	seq := s.seq + 1
	putFrame(frame, seq, kind)
	if err := s.write(frame); err != nil {
		return 0, err
	}
	s.off += int64(len(frame))
	s.seq = seq
	// The live log aliases the written frame rather than copying the
	// payload a second time.
	s.recs = append(s.recs, Record{Seq: seq, Kind: kind, Payload: payloadOf(frame)})
	s.stats.Appends++
	s.stats.Fsyncs++
	s.stats.Groups++
	s.stats.GroupSizeSum++
	s.stats.GroupLast = 1
	if s.stats.GroupSizeMax < 1 {
		s.stats.GroupSizeMax = 1
	}
	return seq, nil
}

// committer drains the group-commit queue: everything queued while the
// previous group's fsync was in flight forms the next group.
func (s *Store) committer() {
	for {
		s.gmu.Lock()
		for len(s.gq) == 0 && !s.gclosed {
			s.gcond.Wait()
		}
		grp := s.gq
		s.gq = nil
		closed := s.gclosed
		s.gmu.Unlock()
		if len(grp) > 0 {
			s.commitGroup(grp)
			continue
		}
		if closed {
			close(s.gdone)
			return
		}
	}
}

// commitGroup writes one contiguous run of frames and fsyncs once. A
// group of one writes its member's frame as it is; a larger group
// copies its members' frames into one buffer for a single write. A
// write or sync failure truncates the whole group away and fails every
// member — no member is ever acknowledged off a failed fsync.
func (s *Store) commitGroup(grp []*groupAppend) {
	s.lock()
	size := 0
	for i, p := range grp {
		putFrame(p.frame, s.seq+1+uint64(i), p.kind)
		size += len(p.frame)
	}
	buf := grp[0].frame
	if len(grp) > 1 {
		buf = make([]byte, 0, size)
		for _, p := range grp {
			buf = append(buf, p.frame...)
		}
	}
	if err := s.write(buf); err != nil {
		s.mu.Unlock()
		for _, p := range grp {
			p.err = err
			close(p.done)
		}
		return
	}
	for _, p := range grp {
		s.seq++
		p.seq = s.seq
		s.recs = append(s.recs, Record{Seq: p.seq, Kind: p.kind, Payload: payloadOf(p.frame)})
	}
	s.off += int64(len(buf))
	s.stats.Appends += uint64(len(grp))
	s.stats.Fsyncs++
	s.stats.Groups++
	s.stats.GroupSizeSum += uint64(len(grp))
	s.stats.GroupLast = len(grp)
	if len(grp) > s.stats.GroupSizeMax {
		s.stats.GroupSizeMax = len(grp)
	}
	s.mu.Unlock()
	for _, p := range grp {
		close(p.done)
	}
}

// lock takes s.mu for a WAL write, counting the wait.
func (s *Store) lock() {
	t0 := time.Now()
	s.mu.Lock()
	s.stats.LockWaitNS += uint64(time.Since(t0))
}

// write writes frames at the end of the live log and fsyncs them. On a
// failure it rolls the frames back and returns the error; the caller
// holds s.mu and advances s.off on success.
func (s *Store) write(frames []byte) error {
	if _, err := s.wal.WriteAt(frames, s.off); err != nil {
		s.rollback()
		return err
	}
	s.stats.WALBytes += uint64(len(frames))
	if err := s.fsync(); err != nil {
		s.stats.SyncFailures++
		s.rollback()
		return fmt.Errorf("store: wal sync: %w", err)
	}
	return nil
}

// fsync syncs the WAL, counting the time; caller holds s.mu.
func (s *Store) fsync() error {
	t0 := time.Now()
	err := s.sync(s.wal)
	s.stats.FsyncNS += uint64(time.Since(t0))
	return err
}

// rollback truncates an unacknowledged tail; caller holds s.mu.
func (s *Store) rollback() {
	s.wal.Truncate(s.off)
	s.wal.Seek(s.off, io.SeekStart)
}

// Records returns the live log: recovered records plus successful
// appends, in order. The slice is shared — callers must not mutate it.
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recs
}

// Recovery reports what the opening scan found.
func (s *Store) Recovery() RecoveryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

// Stats snapshots the write-path counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Compact empties the live log by rewinding it: a generation frame
// carrying the last seq overwrites offset 0, is fsynced, and the next
// append lands right behind it, over the previous generation's frames.
// Sequence numbers carry on across compactions. Callers write a snapshot
// of the folded state first; compacting without one loses the log's
// records. The caller must also quiesce its own appenders: a record
// appended concurrently with Compact may land before the rewind and be
// lost with it.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = nil
	s.rec = RecoveryInfo{}
	frame := make([]byte, headBytes+crcBytes)
	putFrame(frame, s.seq, genKind)
	if _, err := s.wal.WriteAt(frame, 0); err != nil {
		// A partly written generation frame would hide every later
		// append from recovery: fall back to an empty log.
		s.off = 0
		s.rollback()
		return err
	}
	// The log is rewound now, whether or not the fsync below succeeds:
	// the next append must land right behind the generation frame, where
	// recovery looks for it.
	s.off = int64(len(frame))
	s.stats.WALBytes += uint64(len(frame))
	s.stats.Compactions++
	return s.fsync()
}

// WriteSnapshot atomically replaces the named snapshot file:
// temp-write, fsync, rename, directory fsync.
func (s *Store) WriteSnapshot(name string, data []byte) error {
	if !validName(name) {
		return fmt.Errorf("store: bad snapshot name %q", name)
	}
	tmp, err := os.CreateTemp(s.dir, name+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := s.sync(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		return err
	}
	if d, err := os.Open(s.dir); err == nil {
		s.sync(d) // directory entry durability; best effort
		d.Close()
	}
	return nil
}

// ReadSnapshot returns the named snapshot, or ok=false if absent.
func (s *Store) ReadSnapshot(name string) ([]byte, bool, error) {
	if !validName(name) {
		return nil, false, fmt.Errorf("store: bad snapshot name %q", name)
	}
	b, err := os.ReadFile(filepath.Join(s.dir, name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return b, true, nil
}

func validName(name string) bool {
	return name != "" && name == filepath.Base(name) &&
		!strings.HasSuffix(name, ".tmp") && name != walName
}

// Close stops the group-commit committer (flushing anything queued) and
// closes the WAL. The store is unusable afterwards.
func (s *Store) Close() error {
	if s.group {
		s.gmu.Lock()
		if !s.gclosed {
			s.gclosed = true
			s.gcond.Broadcast()
		}
		s.gmu.Unlock()
		<-s.gdone
	}
	return s.wal.Close()
}
