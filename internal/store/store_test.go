package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, opts ...Option) *Store {
	t.Helper()
	s, err := Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestAppendRecover(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	payloads := [][]byte{[]byte("alpha"), []byte("beta"), {}, bytes.Repeat([]byte{7}, 5000)}
	for i, p := range payloads {
		seq, err := s.Append(uint32(i), p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	s.Close()

	r := openT(t, dir)
	recs := r.Records()
	if len(recs) != len(payloads) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(payloads))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) || rec.Kind != uint32(i) || !bytes.Equal(rec.Payload, payloads[i]) {
			t.Fatalf("record %d = %+v", i, rec)
		}
	}
	if r.Recovery().TruncatedBytes != 0 {
		t.Fatalf("clean log reported truncation: %+v", r.Recovery())
	}
	// Appending after recovery continues the sequence.
	if seq, err := r.Append(9, []byte("x")); err != nil || seq != uint64(len(payloads)+1) {
		t.Fatalf("append after recover: seq=%d err=%v", seq, err)
	}
}

// TestTornTailEveryOffset truncates the WAL at every possible byte
// length: recovery must always surface the longest intact prefix and
// drop the torn frame.
func TestTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := s.Append(uint32(i), bytes.Repeat([]byte{byte(i)}, 10+i*7)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	wal := filepath.Join(dir, "wal.log")
	full, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	frameEnds := []int{}
	off := 0
	for _, n := range []int{10, 17, 24} {
		off += headBytes + n + crcBytes
		frameEnds = append(frameEnds, off)
	}
	wantAt := func(n int) int {
		w := 0
		for i, end := range frameEnds {
			if n >= end {
				w = i + 1
			}
		}
		return w
	}
	for n := 0; n <= len(full); n++ {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, "wal.log"), full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(sub)
		if err != nil {
			t.Fatalf("truncate %d: %v", n, err)
		}
		if got, want := len(r.Records()), wantAt(n); got != want {
			t.Fatalf("truncate %d: recovered %d records, want %d", n, got, want)
		}
		if want := int64(n - boundary(frameEnds, n)); r.Recovery().TruncatedBytes != want {
			t.Fatalf("truncate %d: reported %d truncated bytes, want %d",
				n, r.Recovery().TruncatedBytes, want)
		}
		// The torn tail must be gone from disk: reopening is clean.
		r.Close()
		r2, err := Open(sub)
		if err != nil {
			t.Fatal(err)
		}
		if r2.Recovery().TruncatedBytes != 0 {
			t.Fatalf("truncate %d: second recovery still truncates", n)
		}
		r2.Close()
	}
}

func boundary(ends []int, n int) int {
	b := 0
	for _, e := range ends {
		if n >= e {
			b = e
		}
	}
	return b
}

// TestCorruptedCRC flips a byte inside a middle frame: recovery keeps
// the prefix before it and discards everything from the bad frame on.
func TestCorruptedCRC(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := s.Append(1, []byte{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	wal := filepath.Join(dir, "wal.log")
	data, _ := os.ReadFile(wal)
	frame := headBytes + 4 + crcBytes
	data[frame+headBytes] ^= 0xff // payload byte of frame 2
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := openT(t, dir)
	if len(r.Records()) != 1 {
		t.Fatalf("recovered %d records, want 1", len(r.Records()))
	}
	if r.Recovery().TruncatedBytes != int64(2*frame) {
		t.Fatalf("truncated %d bytes, want %d", r.Recovery().TruncatedBytes, 2*frame)
	}
}

// checkOnlyGood checks that a store whose one acknowledged append was
// record 1, kind 1, "good" shows nothing of the appends that failed
// after it: its WAL is exactly that record's frame and its stats count
// one append.
func checkOnlyGood(t *testing.T, s *Store, dir string) {
	t.Helper()
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if want := appendFrame(nil, 1, 1, []byte("good")); !bytes.Equal(wal, want) {
		t.Fatalf("WAL after failed appends is %d bytes, want only the %d-byte good record", len(wal), len(want))
	}
	if st := s.Stats(); st.Appends != 1 {
		t.Fatalf("stats %+v: %d appends counted, want 1", st, st.Appends)
	}
}

// TestFsyncFailureRollsBack injects an fsync error: the failed append
// must not become visible, on this handle or after recovery.
func TestFsyncFailureRollsBack(t *testing.T) {
	dir := t.TempDir()
	fail := false
	s := openT(t, dir, WithSync(func(f *os.File) error {
		if fail {
			return errors.New("injected fsync failure")
		}
		return f.Sync()
	}))
	if _, err := s.Append(1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	fail = true
	if _, err := s.Append(2, []byte("doomed")); err == nil {
		t.Fatal("append with failing fsync succeeded")
	}
	fail = false
	checkOnlyGood(t, s, dir)
	// The sequence must not have a gap either.
	if seq, err := s.Append(3, []byte("after")); err != nil || seq != 2 {
		t.Fatalf("seq=%d err=%v after rollback", seq, err)
	}
	s.Close()
	r := openT(t, dir)
	recs := r.Records()
	if len(recs) != 2 || string(recs[0].Payload) != "good" || string(recs[1].Payload) != "after" {
		t.Fatalf("recovered %+v", recs)
	}
}

func TestSnapshotAtomicity(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if _, ok, err := s.ReadSnapshot("state"); err != nil || ok {
		t.Fatalf("missing snapshot: ok=%v err=%v", ok, err)
	}
	if err := s.WriteSnapshot("state", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot("state", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.ReadSnapshot("state")
	if err != nil || !ok || string(got) != "v2" {
		t.Fatalf("snapshot = %q ok=%v err=%v", got, ok, err)
	}
	// A leftover temp file (crash between write and rename) is ignored
	// and cleaned up at Open.
	tmp := filepath.Join(dir, "state.123.tmp")
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := openT(t, dir)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("temp file survived recovery")
	}
	got, ok, err = r.ReadSnapshot("state")
	if err != nil || !ok || string(got) != "v2" {
		t.Fatalf("snapshot after recovery = %q ok=%v err=%v", got, ok, err)
	}
}

func TestSnapshotNameValidation(t *testing.T) {
	s := openT(t, t.TempDir())
	for _, bad := range []string{"", "a/b", "..", "x.tmp", "wal.log"} {
		if err := s.WriteSnapshot(bad, []byte("x")); err == nil {
			t.Fatalf("name %q accepted", bad)
		}
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 5; i++ {
		if _, err := s.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if len(s.Records()) != 0 {
		t.Fatal("records survived compaction")
	}
	// Sequence numbers keep rising across compaction, so replayers can
	// order snapshot + tail.
	if seq, err := s.Append(1, []byte("post")); err != nil || seq != 6 {
		t.Fatalf("seq=%d err=%v", seq, err)
	}
	s.Close()
	r := openT(t, dir)
	if len(r.Records()) != 1 || r.Records()[0].Seq != 6 {
		t.Fatalf("recovered %+v", r.Records())
	}
}

// TestCompactFsyncFailureKeepsLaterAppends: Compact's truncate succeeds
// and its fsync fails. The error reaches the caller, but the store must
// still know the log is empty, so an append acknowledged afterwards lands
// at offset 0 and survives recovery.
func TestCompactFsyncFailureKeepsLaterAppends(t *testing.T) {
	dir := t.TempDir()
	fail := false
	s := openT(t, dir, WithSync(func(f *os.File) error {
		if fail {
			return errors.New("injected fsync failure")
		}
		return f.Sync()
	}))
	for i := 0; i < 3; i++ {
		if _, err := s.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	fail = true
	if err := s.Compact(); err == nil {
		t.Fatal("compact with failing fsync succeeded")
	}
	fail = false
	seq, err := s.Append(1, []byte("acked"))
	if err != nil || seq != 4 {
		t.Fatalf("append after failed compact: seq=%d err=%v", seq, err)
	}
	s.Close()
	r := openT(t, dir)
	recs := r.Records()
	if len(recs) != 1 || recs[0].Seq != 4 || string(recs[0].Payload) != "acked" {
		t.Fatalf("recovered %+v (recovery %+v), want the acknowledged seq 4", recs, r.Recovery())
	}
	if r.Recovery().TruncatedBytes != 0 {
		t.Fatalf("recovery truncated %d bytes", r.Recovery().TruncatedBytes)
	}
}

func TestOversizePayloadRejected(t *testing.T) {
	s := openT(t, t.TempDir())
	if _, err := s.Append(1, make([]byte, MaxPayloadBytes+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

// TestGroupCommitConcurrent hammers the group-commit path from many
// goroutines (run with -race): every append must get a unique sequence
// number, the WAL must recover every record, and the fsync count must
// show real coalescing (one per group, groups summing to all appends).
func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, WithGroupCommit())
	const goroutines, each = 16, 16
	var wg sync.WaitGroup
	seqs := make([][]uint64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq, err := s.Append(uint32(g), []byte{byte(g), byte(i)})
				if err != nil {
					t.Errorf("append(%d,%d): %v", g, i, err)
					return
				}
				seqs[g] = append(seqs[g], seq)
			}
		}(g)
	}
	wg.Wait()
	const total = goroutines * each
	seen := map[uint64]bool{}
	for _, gs := range seqs {
		for _, seq := range gs {
			if seen[seq] {
				t.Fatalf("sequence %d issued twice", seq)
			}
			seen[seq] = true
		}
	}
	if len(seen) != total {
		t.Fatalf("%d unique sequences, want %d", len(seen), total)
	}
	st := s.Stats()
	if st.Appends != total {
		t.Fatalf("stats.Appends = %d, want %d", st.Appends, total)
	}
	if st.Fsyncs != st.Groups || st.GroupSizeSum != total {
		t.Fatalf("stats %+v: want Fsyncs==Groups and GroupSizeSum==%d", st, total)
	}
	if st.Fsyncs == 0 || st.Fsyncs > total {
		t.Fatalf("stats.Fsyncs = %d out of range (0, %d]", st.Fsyncs, total)
	}
	s.Close()
	r := openT(t, dir)
	if len(r.Records()) != total {
		t.Fatalf("recovered %d records, want %d", len(r.Records()), total)
	}
	for i, rec := range r.Records() {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
	}
}

// TestGroupFsyncFailureFailsEveryMember extends TestFsyncFailureRollsBack
// to the group path: when the group's one fsync fails, every member must
// see the error, nothing may become visible, and the sequence must
// continue without a gap afterwards.
func TestGroupFsyncFailureFailsEveryMember(t *testing.T) {
	dir := t.TempDir()
	var failing atomic.Bool
	s := openT(t, dir, WithGroupCommit(), WithSync(func(f *os.File) error {
		if failing.Load() {
			return errors.New("injected fsync failure")
		}
		return f.Sync()
	}))
	if _, err := s.Append(1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	failing.Store(true)
	const doomed = 8
	var wg sync.WaitGroup
	errs := make([]error, doomed)
	for i := 0; i < doomed; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Append(2, []byte("doomed"))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("doomed append %d succeeded through failing fsync", i)
		}
	}
	failing.Store(false)
	checkOnlyGood(t, s, dir)
	if st := s.Stats(); st.SyncFailures == 0 {
		t.Fatalf("stats %+v: sync failures not counted", st)
	}
	if seq, err := s.Append(3, []byte("after")); err != nil || seq != 2 {
		t.Fatalf("seq=%d err=%v after group rollback", seq, err)
	}
	s.Close()
	r := openT(t, dir)
	recs := r.Records()
	if len(recs) != 2 || string(recs[0].Payload) != "good" || string(recs[1].Payload) != "after" {
		t.Fatalf("recovered %+v", recs)
	}
}

// TestTornGroupTailEveryOffset forces a real multi-member commit group
// (one contiguous write), then truncates the WAL at every byte offset:
// recovery must surface exactly the records whose frames survived — a
// partially written group degrades to its intact prefix, never to an
// error or a phantom record.
func TestTornGroupTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	var syncs atomic.Int32
	gate := make(chan struct{})
	s := openT(t, dir, WithGroupCommit(), WithSync(func(f *os.File) error {
		if !isDir(f) && syncs.Add(1) == 1 {
			<-gate // hold the first commit so the next appends form one group
		}
		return f.Sync()
	}))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Append(0, bytes.Repeat([]byte{0}, 10)); err != nil {
			t.Errorf("append 0: %v", err)
		}
	}()
	waitFor(t, func() bool { return syncs.Load() == 1 })
	// These three queue behind the held fsync and must commit as one
	// group. Equal payload sizes keep the frame boundaries fixed even
	// though the members race for queue order.
	sizes := []int{17, 17, 17}
	for i, n := range sizes {
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			if _, err := s.Append(uint32(i+1), bytes.Repeat([]byte{byte(i + 1)}, n)); err != nil {
				t.Errorf("append %d: %v", i+1, err)
			}
		}(i, n)
	}
	waitFor(t, func() bool {
		s.gmu.Lock()
		defer s.gmu.Unlock()
		return len(s.gq) == len(sizes)
	})
	close(gate)
	wg.Wait()
	if st := s.Stats(); st.GroupSizeMax != len(sizes) {
		t.Fatalf("stats %+v: the gated appends did not form one group of %d", st, len(sizes))
	}
	s.Close()

	full, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	frameEnds := []int{}
	off := 0
	for _, n := range append([]int{10}, sizes...) {
		off += headBytes + n + crcBytes
		frameEnds = append(frameEnds, off)
	}
	wantAt := func(n int) int {
		w := 0
		for i, end := range frameEnds {
			if n >= end {
				w = i + 1
			}
		}
		return w
	}
	for n := 0; n <= len(full); n++ {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, "wal.log"), full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(sub)
		if err != nil {
			t.Fatalf("truncate %d: %v", n, err)
		}
		if got, want := len(r.Records()), wantAt(n); got != want {
			t.Fatalf("truncate %d: recovered %d records, want %d", n, got, want)
		}
		r.Close()
	}
}

// TestGroupModeSerialByteIdentical pins the differential contract: with
// no concurrency, a group-commit store produces a byte-identical WAL to
// the serial store (groups of one, same framing, same fsync-per-append).
func TestGroupModeSerialByteIdentical(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a := openT(t, dirA)
	b := openT(t, dirB, WithGroupCommit())
	for i := 0; i < 5; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 3+i*11)
		if _, err := a.Append(uint32(i), p); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Append(uint32(i), p); err != nil {
			t.Fatal(err)
		}
	}
	if st := b.Stats(); st.Fsyncs != 5 || st.GroupSizeMax != 1 {
		t.Fatalf("serial appends through group mode: stats %+v, want 5 groups of 1", st)
	}
	a.Close()
	b.Close()
	walA, err := os.ReadFile(filepath.Join(dirA, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	walB, err := os.ReadFile(filepath.Join(dirB, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(walA, walB) {
		t.Fatal("group-commit WAL bytes differ from serial WAL bytes")
	}
}

// TestGroupCloseRejectsAppends pins the shutdown contract: Close drains
// the committer, and appends after Close fail with ErrClosed instead of
// hanging on a dead queue.
func TestGroupCloseRejectsAppends(t *testing.T) {
	s, err := Open(t.TempDir(), WithGroupCommit())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(1, []byte("y")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// isDir reports whether f is a directory: Open and WriteSnapshot sync the
// state dir through the WithSync hook too.
func isDir(f *os.File) bool {
	info, err := f.Stat()
	return err == nil && info.IsDir()
}

// dirSyncs is a WithSync hook that fsyncs files as usual and, for
// directories, records the path and returns fail's error instead of
// syncing when fail is set.
type dirSyncs struct {
	mu     sync.Mutex
	synced []string
	fail   error
}

func (d *dirSyncs) sync(f *os.File) error {
	if !isDir(f) {
		return f.Sync()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fail != nil {
		return d.fail
	}
	d.synced = append(d.synced, f.Name())
	return f.Sync()
}

// TestOpenSyncsDirectory: Open fsyncs the state dir once wal.log exists
// in it, and the parent too when it created the dir, so the log's
// directory entry survives a power cut. Reopening an existing dir syncs
// only the dir; a failed directory sync fails the open.
func TestOpenSyncsDirectory(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "state")
	rec := &dirSyncs{}
	s := openT(t, dir, WithSync(rec.sync))
	want := []string{dir, parent}
	if !slices.Equal(rec.synced, want) {
		t.Fatalf("fresh dir: directory syncs %q, want %q", rec.synced, want)
	}
	s.Close()

	rec = &dirSyncs{}
	openT(t, dir, WithSync(rec.sync)).Close()
	if want := []string{dir}; !slices.Equal(rec.synced, want) {
		t.Fatalf("existing dir: directory syncs %q, want %q", rec.synced, want)
	}

	injected := errors.New("injected dir fsync failure")
	if s, err := Open(dir, WithSync((&dirSyncs{fail: injected}).sync)); !errors.Is(err, injected) {
		if err == nil {
			s.Close()
		}
		t.Fatalf("open with failing dir sync: err = %v, want the injected failure", err)
	}
}

// TestWriteSnapshotReportsDirSyncFailure: a snapshot is durable only once
// its directory is, so a failed directory fsync is WriteSnapshot's error.
func TestWriteSnapshotReportsDirSyncFailure(t *testing.T) {
	dir := t.TempDir()
	rec := &dirSyncs{}
	s := openT(t, dir, WithSync(rec.sync))
	injected := errors.New("injected dir fsync failure")
	rec.mu.Lock()
	rec.fail = injected
	rec.mu.Unlock()
	if err := s.WriteSnapshot("snap", []byte("x")); !errors.Is(err, injected) {
		t.Fatalf("WriteSnapshot with failing dir sync: err = %v, want the injected failure", err)
	}
	rec.mu.Lock()
	rec.fail = nil
	rec.mu.Unlock()
	if err := s.WriteSnapshot("snap", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if got := rec.synced[len(rec.synced)-1]; got != dir {
		t.Fatalf("WriteSnapshot synced %q, want the state dir %q", got, dir)
	}
}
