// Package store is a crash-safe record store for sealed blobs: an
// append-only write-ahead log plus atomic snapshot files. It is the
// durability layer under the serving stack's enclave checkpoints
// (docs/SEALING.md §Crash safety).
//
// Crash-safety invariants:
//
//   - Every WAL record is CRC-framed (magic, seq, kind, length, payload,
//     CRC-32/IEEE over everything after the magic). The recovery scan
//     replays records until the first frame that is torn or corrupt and
//     truncates the log there — a crash mid-append loses at most the
//     record being written, never an earlier one.
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
//   - Compact truncates the WAL only after the caller has snapshotted
//     the state the log's records are folded into.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

const (
	walName   = "wal.log"
	recMagic  = uint32(0x4B57414C) // "KWAL"
	headBytes = 4 + 8 + 4 + 4      // magic, seq, kind, len
	crcBytes  = 4

	// MaxPayloadBytes bounds one record (16 MiB) so a corrupt length
	// field cannot drive allocation during recovery.
	MaxPayloadBytes = 16 << 20
)

// ErrTooLarge reports an Append payload over MaxPayloadBytes.
var ErrTooLarge = errors.New("store: payload too large")

// ErrClosed reports an Append after Close.
var ErrClosed = errors.New("store: closed")

// Record is one WAL entry.
type Record struct {
	Seq     uint64
	Kind    uint32
	Payload []byte
}

// RecoveryInfo describes what Open found in the WAL.
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
	off   int64      // committed WAL size
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
	kind    uint32
	payload []byte
	seq     uint64
	err     error
	done    chan struct{}
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
// WAL, truncating any torn tail.
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

// recover scans the WAL frame by frame, keeping every intact record and
// truncating at the first bad one.
func (s *Store) recover() error {
	info, err := s.wal.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	var off int64
	head := make([]byte, headBytes)
	for {
		good, rec, next := readFrame(s.wal, off, size, head)
		if !good {
			break
		}
		s.recs = append(s.recs, rec)
		s.seq = rec.Seq
		off = next
	}
	s.rec.Records = len(s.recs)
	s.rec.TruncatedBytes = size - off
	if off < size {
		if err := s.wal.Truncate(off); err != nil {
			return err
		}
	}
	s.off = off
	_, err = s.wal.Seek(off, io.SeekStart)
	return err
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

// appendFrame appends one CRC-framed WAL record to dst (which the
// callers size beforehand) and returns the extended slice.
func appendFrame(dst []byte, seq uint64, kind uint32, payload []byte) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, recMagic)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, kind)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start+4:]))
}

// Append durably adds a record and returns its sequence number. On any
// write or sync failure the partial record is rolled back so the log
// never holds an unacknowledged tail. With WithGroupCommit, concurrent
// callers share one write+fsync; each still returns only after its
// record is on disk (or after the whole group was rolled back).
func (s *Store) Append(kind uint32, payload []byte) (uint64, error) {
	if len(payload) > MaxPayloadBytes {
		return 0, ErrTooLarge
	}
	if s.group {
		p := &groupAppend{kind: kind, payload: payload, done: make(chan struct{})}
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

	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.seq + 1
	end := headBytes + len(payload)
	frame := appendFrame(make([]byte, 0, end+crcBytes), seq, kind, payload)
	if _, err := s.wal.WriteAt(frame, s.off); err != nil {
		s.rollback()
		return 0, err
	}
	if err := s.sync(s.wal); err != nil {
		s.stats.SyncFailures++
		s.rollback()
		return 0, fmt.Errorf("store: wal sync: %w", err)
	}
	s.off += int64(len(frame))
	s.seq = seq
	// The live log aliases the written frame rather than copying the
	// payload a second time.
	s.recs = append(s.recs, Record{Seq: seq, Kind: kind, Payload: frame[headBytes:end:end]})
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
// write or sync failure truncates the whole group away and fails every
// member — no member is ever acknowledged off a failed fsync.
func (s *Store) commitGroup(grp []*groupAppend) {
	s.mu.Lock()
	size := 0
	for _, p := range grp {
		size += headBytes + len(p.payload) + crcBytes
	}
	buf := make([]byte, 0, size)
	for i, p := range grp {
		buf = appendFrame(buf, s.seq+1+uint64(i), p.kind, p.payload)
	}
	fail := func(err error) {
		s.rollback()
		s.mu.Unlock()
		for _, p := range grp {
			p.err = err
			close(p.done)
		}
	}
	if _, err := s.wal.WriteAt(buf, s.off); err != nil {
		fail(err)
		return
	}
	if err := s.sync(s.wal); err != nil {
		s.stats.SyncFailures++
		fail(fmt.Errorf("store: wal sync: %w", err))
		return
	}
	off := 0
	for _, p := range grp {
		s.seq++
		p.seq = s.seq
		end := off + headBytes + len(p.payload)
		s.recs = append(s.recs, Record{Seq: p.seq, Kind: p.kind, Payload: buf[off+headBytes : end : end]})
		off = end + crcBytes
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

// Compact truncates the WAL. Callers write a snapshot of the folded
// state first; compacting without one loses the log's records. The
// caller must also quiesce its own appenders: a record appended
// concurrently with Compact may land before the truncate and be lost
// with it.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.wal.Truncate(0); err != nil {
		return err
	}
	// The file is empty now, whether or not the fsync below succeeds: the
	// next append must start at offset 0, not behind a hole of zeros that
	// recovery would stop at.
	s.off = 0
	s.recs = nil
	s.rec = RecoveryInfo{}
	return s.sync(s.wal)
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
