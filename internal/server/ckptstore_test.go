package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/kasm"
	"repro/internal/nwos"
	"repro/internal/pool"
	"repro/internal/store"
	"repro/komodo"
)

// durableStack is one "process": store, provisioned pool, server.
type durableStack struct {
	cs  *CheckpointStore
	p   *pool.Pool
	srv *Server
	ts  *httptest.Server
}

func startDurable(t *testing.T, dir string, seed uint64) *durableStack {
	t.Helper()
	cs, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pool.New(pool.Config{
		Size:      1,
		Boot:      Blueprint(seed),
		Provision: RestoreProvision(cs),
	})
	if err != nil {
		cs.Close()
		t.Fatal(err)
	}
	srv := New(Config{Pool: p, Checkpoints: cs})
	return &durableStack{cs: cs, p: p, srv: srv, ts: httptest.NewServer(srv)}
}

func (d *durableStack) stop(t *testing.T) {
	t.Helper()
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.p.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := d.cs.Close(); err != nil {
		t.Fatal(err)
	}
}

func signDoc(t *testing.T, url, doc string) NotaryResponse {
	t.Helper()
	resp, err := http.Post(url+"/v1/notary/sign", "application/octet-stream",
		bytes.NewReader([]byte(doc)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("sign: %d %s", resp.StatusCode, b)
	}
	var nr NotaryResponse
	if err := json.NewDecoder(resp.Body).Decode(&nr); err != nil {
		t.Fatal(err)
	}
	return nr
}

// TestDurableCounterAcrossRestart is the headline acceptance test: sign,
// kill the process (close pool and store), start a fresh one on the same
// state directory and the same boot secret, and the counter continues
// strictly past its last durable value instead of restarting at 1.
func TestDurableCounterAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	d := startDurable(t, dir, 42)
	var last uint32
	for i := 0; i < 3; i++ {
		n := signDoc(t, d.ts.URL, fmt.Sprintf("doc-%d", i))
		if n.Counter <= last {
			t.Fatalf("counter not monotonic pre-restart: %d after %d", n.Counter, last)
		}
		last = n.Counter
	}
	d.stop(t)

	d2 := startDurable(t, dir, 42)
	defer d2.stop(t)
	n := signDoc(t, d2.ts.URL, "doc-after-restart")
	if n.Counter <= last {
		t.Fatalf("counter after restart = %d, want > %d (replayed a counter)", n.Counter, last)
	}
	if n.Counter != last+1 {
		t.Fatalf("counter after restart = %d, want %d (no gap expected)", n.Counter, last+1)
	}
}

// TestDurableCounterSurvivesPoolRestore: in durable mode every sign is
// committed and rebased, so no run of stateless (restore-on-release)
// requests between signs can rewind the counter. Each attestation
// restores the one worker to golden (a new pool epoch); the counter must
// still rise by exactly one per sign across all of them.
func TestDurableCounterSurvivesPoolRestore(t *testing.T) {
	d := startDurable(t, t.TempDir(), 42)
	defer d.stop(t)

	last := signDoc(t, d.ts.URL, "sign-0").Counter
	for i := 1; i <= 6; i++ {
		// Attestations release with OK → restore to golden. The rebase
		// at commit time moved golden forward, so the counter must not
		// reset, however many restores run between two signs.
		attests := i%3 + 1
		before := d.p.Stats().Restores
		for j := 0; j < attests; j++ {
			if code := getJSON(t, d.ts.URL+fmt.Sprintf("/v1/attest?nonce=a%d-%d", i, j), nil); code != 200 {
				t.Fatalf("attest: %d", code)
			}
		}
		if got := d.p.Stats().Restores - before; got != uint64(attests) {
			t.Fatalf("sign %d: %d restores after %d attests", i, got, attests)
		}
		n := signDoc(t, d.ts.URL, fmt.Sprintf("sign-%d", i)).Counter
		if n != last+1 {
			t.Fatalf("sign %d: counter %d after %d across %d restores: rewound or skipped", i, n, last, attests)
		}
		last = n
	}
}

// TestRestartOnForeignSecretFailsClosed: a state directory written under
// one boot secret must not provision a pool booted with another — the
// sealed blob does not open, the provision fails, and the pool refuses
// to come up rather than serving with a replayable counter.
func TestRestartOnForeignSecretFailsClosed(t *testing.T) {
	dir := t.TempDir()
	d := startDurable(t, dir, 42)
	signDoc(t, d.ts.URL, "doc")
	d.stop(t)

	cs, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	_, err = pool.New(pool.Config{
		Size:      1,
		Boot:      Blueprint(43), // different boot secret
		Provision: RestoreProvision(cs),
	})
	if err == nil {
		t.Fatal("pool booted with a foreign-secret checkpoint store")
	}
}

// TestCheckpointRestoreEndpoints exercises the admin surface: take a
// checkpoint over HTTP, rewind the notary by restoring it, and reject a
// tampered blob.
func TestCheckpointRestoreEndpoints(t *testing.T) {
	d := startDurable(t, t.TempDir(), 42)
	defer d.stop(t)

	n1 := signDoc(t, d.ts.URL, "pin this counter")

	resp, err := http.Post(d.ts.URL+"/v1/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cr CheckpointResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("checkpoint: %d", resp.StatusCode)
	}
	if cr.Counter != n1.Counter || cr.BlobWords == 0 {
		t.Fatalf("checkpoint response: %+v (signed counter %d)", cr, n1.Counter)
	}

	// Sign twice more, then restore the pinned checkpoint: the next
	// counter resumes right after the pinned one.
	signDoc(t, d.ts.URL, "a")
	signDoc(t, d.ts.URL, "b")
	resp, err = http.Post(d.ts.URL+"/v1/restore", "application/json",
		bytes.NewReader([]byte(cr.Checkpoint)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("restore: %d", resp.StatusCode)
	}
	n2 := signDoc(t, d.ts.URL, "post-restore")
	if n2.Counter != n1.Counter+1 {
		t.Fatalf("restored counter = %d, want %d", n2.Counter, n1.Counter+1)
	}

	// Tamper with one blob word: restore must fail closed, and the pool
	// must recover (the worker reboots and re-provisions).
	ckpt, err := komodo.UnmarshalCheckpoint([]byte(cr.Checkpoint))
	if err != nil {
		t.Fatal(err)
	}
	ckpt.Blob[len(ckpt.Blob)/2] ^= 1
	bad, err := ckpt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(d.ts.URL+"/v1/restore", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Fatal("tampered checkpoint restored")
	}
	if n := signDoc(t, d.ts.URL, "still alive"); n.Counter == 0 {
		t.Fatalf("server dead after rejected restore: %+v", n)
	}

	// Garbage bodies are 4xx, not 5xx.
	resp, err = http.Post(d.ts.URL+"/v1/restore", "application/json",
		bytes.NewReader([]byte("not a checkpoint")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage restore body: %d, want 400", resp.StatusCode)
	}
}

// TestCheckpointStoreRecovery unit-tests the store shim: latest-wins per
// worker across reopen, and compaction keeps the fold intact.
func TestCheckpointStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	mk := func(word uint32) *komodo.Checkpoint {
		return &komodo.Checkpoint{Manifest: nwos.Manifest{NumPages: 1}, Blob: []uint32{word}}
	}
	cs, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Enough saves to cross the compaction threshold, interleaved over
	// two workers.
	for i := uint32(1); i <= ckptCompactEvery+5; i++ {
		if err := cs.Save(int(i%2), i, mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	cs, err = OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if ids := cs.Workers(); len(ids) != 2 {
		t.Fatalf("workers after reopen: %v", ids)
	}
	last := uint32(ckptCompactEvery + 5)
	for _, worker := range []int{0, 1} {
		want := last
		if want%2 != uint32(worker) {
			want = last - 1
		}
		s, ok := cs.Latest(worker)
		if !ok || s.Counter != want {
			t.Fatalf("worker %d latest = %+v, want counter %d", worker, s, want)
		}
		back, err := komodo.UnmarshalCheckpoint(s.Ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if len(back.Blob) != 1 || back.Blob[0] != want {
			t.Fatalf("worker %d blob = %v, want [%d]", worker, back.Blob, want)
		}
	}
}

// v1Record and v1Checkpoint are the version-1 JSON forms of a WAL
// record and of the checkpoint inside it, decoded here exactly as
// version 1 decoded them.
type v1Record struct {
	Worker  int    `json:"worker"`
	Counter uint32 `json:"counter"`
	Ckpt    []byte `json:"ckpt"`
}

type v1Checkpoint struct {
	Version  int           `json:"version"`
	Manifest nwos.Manifest `json:"manifest"`
	Blob     string        `json:"blob"`
}

// v1UnmarshalCheckpoint is version 1's komodo.UnmarshalCheckpoint.
func v1UnmarshalCheckpoint(data []byte) error {
	var w v1Checkpoint
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Version != 1 {
		return fmt.Errorf("unsupported checkpoint version %d", w.Version)
	}
	raw, err := base64.StdEncoding.DecodeString(w.Blob)
	if err != nil {
		return err
	}
	if len(raw)%4 != 0 {
		return fmt.Errorf("blob length %d not word-aligned", len(raw))
	}
	return nil
}

// tinyCheckpoint is a synthetic checkpoint whose one blob word names it.
func tinyCheckpoint(word uint32) *komodo.Checkpoint {
	return &komodo.Checkpoint{Manifest: nwos.Manifest{NumPages: 1}, Blob: []uint32{word}}
}

// appendV1 appends a version-1 JSON record to dir's WAL, as an older
// binary wrote it.
func appendV1(t *testing.T, dir string, worker int, counter uint32) {
	t.Helper()
	ckpt, err := tinyCheckpoint(counter).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(v1Record{Worker: worker, Counter: counter, Ckpt: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Append(recCheckpoint, payload); err != nil {
		t.Fatal(err)
	}
}

// saveCompact saves one checkpoint through a freshly opened store.
func saveCompact(t *testing.T, dir string, worker int, counter uint32) {
	t.Helper()
	cs, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if err := cs.Save(worker, counter, tinyCheckpoint(counter)); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointStoreV1StateDir boots on a state dir written by version
// 1 (JSON WAL records and a JSON-era checkpoints.json, under seed 42):
// worker 0's latest is its WAL record, worker 1's its snapshot entry.
// Both counters recover, both sealed blobs restore, and signing resumes
// right past them; a compact record saved on top then wins over both.
func TestCheckpointStoreV1StateDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"wal.log", ckptSnapshotName} {
		b, err := os.ReadFile(filepath.Join("testdata", "v1-state", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]uint32{0: 33, 1: 32}
	for w, c := range want {
		if s, ok := cs.Latest(w); !ok || s.Counter != c {
			t.Fatalf("worker %d recovered counter %d (ok=%v), want %d", w, s.Counter, ok, c)
		}
	}

	p := newPool(t, pool.Config{Size: 2, Provision: RestoreProvision(cs)})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for range want {
		wk, err := p.Get(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Release(ctx, wk, pool.Keep)
		st := wk.State().(*WorkerState)
		n, err := NotarySign(ctx, st, []byte("after upgrade"))
		if err != nil {
			t.Fatal(err)
		}
		if n.Counter != want[wk.ID()]+1 {
			t.Fatalf("worker %d signed counter %d, want %d", wk.ID(), n.Counter, want[wk.ID()]+1)
		}
		if wk.ID() == 0 {
			ckpt, err := wk.System().CheckpointEnclave(st.Notary)
			if err != nil {
				t.Fatal(err)
			}
			if err := cs.Save(0, n.Counter, ckpt); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	cs, err = OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	want[0]++
	for w, c := range want {
		s, ok := cs.Latest(w)
		if !ok || s.Counter != c {
			t.Fatalf("worker %d counter %d (ok=%v) after a compact save, want %d", w, s.Counter, ok, c)
		}
		if _, err := komodo.UnmarshalCheckpoint(s.Ckpt); err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

// TestCheckpointStoreMixedFormats replays a WAL holding version-1 JSON
// and compact records in both orders: the record the WAL ordered last
// wins for each worker, whatever its format, blob word for word.
func TestCheckpointStoreMixedFormats(t *testing.T) {
	dir := t.TempDir()
	appendV1(t, dir, 0, 1)
	appendV1(t, dir, 1, 1)
	saveCompact(t, dir, 0, 2)
	saveCompact(t, dir, 1, 2)
	appendV1(t, dir, 1, 3)

	cs, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	for w, want := range map[int]uint32{0: 2, 1: 3} {
		s, ok := cs.Latest(w)
		if !ok || s.Counter != want {
			t.Fatalf("worker %d latest counter %d (ok=%v), want %d", w, s.Counter, ok, want)
		}
		back, err := komodo.UnmarshalCheckpoint(s.Ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(back.Blob, []uint32{want}) || back.Manifest.NumPages != 1 {
			t.Fatalf("worker %d checkpoint %+v, want blob [%d]", w, back, want)
		}
	}
}

// TestCheckpointStoreUnknownRecordsFailClosed: a CRC-clean WAL record of
// an unknown kind or payload format fails the open. Skipping it could
// hide a newer checkpoint and re-issue its counters.
func TestCheckpointStoreUnknownRecordsFailClosed(t *testing.T) {
	payload := func(format uint32) []byte {
		head := binary.BigEndian.AppendUint32(nil, format)
		head = binary.BigEndian.AppendUint32(head, 0)
		head = binary.BigEndian.AppendUint32(head, 9)
		b, err := tinyCheckpoint(9).AppendCompact(head)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name    string
		kind    uint32
		payload []byte
	}{
		{"unknown kind", recCheckpoint + 1, payload(recFormat)},
		{"unknown format", recCheckpoint, payload(recFormat + 1)},
		{"short payload", recCheckpoint, []byte{0, 0, 0}},
		{"bad json", recCheckpoint, []byte(`{"worker":`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			saveCompact(t, dir, 0, 1)
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Append(tc.kind, tc.payload); err != nil {
				t.Fatal(err)
			}
			st.Close()
			if cs, err := OpenCheckpointStore(dir); err == nil {
				cs.Close()
				t.Fatal("store opened past an unreadable record")
			}
		})
	}
}

// TestCheckpointFormatDowngradeFailsClosed: version 1's decoders reject
// what this version writes, so an older binary refuses to boot on the
// state dir instead of re-issuing counters. Its WAL decoder rejects a
// compact record outright; its snapshot decoder reads the JSON envelope
// but its UnmarshalCheckpoint rejects the compact Ckpt inside.
func TestCheckpointFormatDowngradeFailsClosed(t *testing.T) {
	dir := t.TempDir()
	cs, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(1); i <= ckptCompactEvery+1; i++ {
		if err := cs.Save(0, i, tinyCheckpoint(i)); err != nil {
			t.Fatal(err)
		}
	}
	cs.Close()

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := st.Records()
	st.Close()
	if len(recs) != 1 {
		t.Fatalf("%d WAL records after compaction, want 1", len(recs))
	}
	var rec v1Record
	if err := json.Unmarshal(recs[0].Payload, &rec); err == nil {
		t.Fatalf("version 1 decoded a compact WAL record: %+v", rec)
	}
	if err := v1UnmarshalCheckpoint(recs[0].Payload[recHeadBytes:]); err == nil {
		t.Fatal("version 1 decoded a compact checkpoint")
	}

	snap, err := os.ReadFile(filepath.Join(dir, ckptSnapshotName))
	if err != nil {
		t.Fatal(err)
	}
	var entries []v1Record
	if err := json.Unmarshal(snap, &entries); err != nil || len(entries) != 1 {
		t.Fatalf("snapshot envelope: %d entries, %v", len(entries), err)
	}
	if err := v1UnmarshalCheckpoint(entries[0].Ckpt); err == nil {
		t.Fatal("version 1 decoded a compact snapshot entry")
	}

	// A version that recovers with a CRC-only scan and does not know the
	// generation frame refuses the recycled log on the frame's kind,
	// instead of replaying the leftovers behind the live tail.
	wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := crcOnlyOpen(wal); err == nil {
		t.Fatal("a CRC-only recovery accepted a recycled WAL")
	}
	fresh := t.TempDir()
	saveCompact(t, fresh, 0, 1)
	if wal, err = os.ReadFile(filepath.Join(fresh, "wal.log")); err != nil {
		t.Fatal(err)
	}
	if err := crcOnlyOpen(wal); err != nil {
		t.Fatalf("a CRC-only recovery refused a never-compacted WAL: %v", err)
	}
}

// crcOnlyOpen is the WAL recovery of versions that truncated on Compact:
// frames are replayed while their CRC holds, with no seq rule and no
// generation frame, and OpenCheckpointStore then fails on any record
// kind it does not know.
func crcOnlyOpen(wal []byte) error {
	const head = 4 + 8 + 4 + 4
	for off := 0; off+head+4 <= len(wal); {
		if binary.BigEndian.Uint32(wal[off:]) != 0x4B57414C {
			break
		}
		seq := binary.BigEndian.Uint64(wal[off+4:])
		kind := binary.BigEndian.Uint32(wal[off+12:])
		n := int(binary.BigEndian.Uint32(wal[off+16:]))
		if n > store.MaxPayloadBytes || off+head+n+4 > len(wal) {
			break
		}
		if crc32.ChecksumIEEE(wal[off+4:off+head+n]) != binary.BigEndian.Uint32(wal[off+head+n:]) {
			break
		}
		if kind != recCheckpoint {
			return fmt.Errorf("WAL record %d has unknown kind %d", seq, kind)
		}
		off += head + n + 4
	}
	return nil
}

// TestCheckpointStoreV1StateCrashCopies boots on the version-1 state dir
// and signs worker 0 past two compactions, so the WAL is recycled in
// place. After every save it copies the state dir, as a crash right
// then would leave it, and reopens the copy: worker 0 resumes at its
// last acknowledged counter and worker 1, never signed here, keeps its
// version-1 counter through both compactions. A pool restored from the
// final state signs right past both.
func TestCheckpointStoreV1StateCrashCopies(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real enclave boards")
	}
	dir := t.TempDir()
	for _, name := range []string{"wal.log", ckptSnapshotName} {
		b, err := os.ReadFile(filepath.Join("testdata", "v1-state", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := newPool(t, pool.Config{Size: 1, Provision: RestoreProvision(cs)})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	wk, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st := wk.State().(*WorkerState)
	acked := map[int]uint32{0: 33, 1: 32}
	crash := t.TempDir()
	for i := 0; i < 2*ckptCompactEvery+2; i++ {
		n, err := NotarySign(ctx, st, []byte(fmt.Sprint("doc ", i)))
		if err != nil {
			t.Fatal(err)
		}
		if n.Counter != acked[0]+1 {
			t.Fatalf("sign %d: counter %d, want %d", i, n.Counter, acked[0]+1)
		}
		ckpt, err := wk.System().CheckpointEnclave(st.Notary)
		if err != nil {
			t.Fatal(err)
		}
		if err := cs.Save(0, n.Counter, ckpt); err != nil {
			t.Fatal(err)
		}
		acked[0] = n.Counter
		for _, name := range []string{"wal.log", ckptSnapshotName} {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(crash, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		re, err := OpenCheckpointStore(crash)
		if err != nil {
			t.Fatalf("save %d: reopening the copy: %v", i, err)
		}
		for w, c := range acked {
			if s, ok := re.Latest(w); !ok || s.Counter < c {
				t.Fatalf("save %d: worker %d resumes at %d (ok=%v), below acknowledged %d", i, w, s.Counter, ok, c)
			}
		}
		re.Close()
	}
	p.Release(ctx, wk, pool.Keep)
	if c := cs.StoreStats().Compactions; c != 2 {
		t.Fatalf("%d compactions, want 2", c)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	cs, err = OpenCheckpointStore(crash)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	p2 := newPool(t, pool.Config{Size: 2, Provision: RestoreProvision(cs)})
	for range acked {
		wk, err := p2.Get(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer p2.Release(ctx, wk, pool.Keep)
		n, err := NotarySign(ctx, wk.State().(*WorkerState), []byte("after the crash"))
		if err != nil {
			t.Fatal(err)
		}
		if n.Counter != acked[wk.ID()]+1 {
			t.Fatalf("worker %d signed counter %d after the crash, want %d", wk.ID(), n.Counter, acked[wk.ID()]+1)
		}
	}
}

// TestRetryAfterClasses pins the backpressure contract: queue-full 429
// and deadline 503 say "retry in 1s"; draining 503 says "back off 5s"
// and is counted separately from timeouts.
func TestRetryAfterClasses(t *testing.T) {
	p := newPool(t, pool.Config{Size: 1})
	srv := New(Config{Pool: p, QueueDepth: 1, RequestTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Hold the only worker: the next request takes the single slot and
	// times out waiting — a deadline 503.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/attest?nonce=deadline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("deadline: %d Retry-After=%q, want 503 / 1", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Saturate the queue: park a request in the slot, then flood — a 429.
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		resp, err := http.Get(ts.URL + "/v1/attest?nonce=parked")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.QueueLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("parked request never took the slot")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err = http.Get(ts.URL + "/v1/attest?nonce=flood")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("queue-full: %d Retry-After=%q, want 429 / 1", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	p.Put(w, pool.Keep)
	<-parked

	// Draining: longer back-off, its own counter.
	srv.Drain()
	resp, err = http.Get(ts.URL + "/v1/attest?nonce=late")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "5" {
		t.Fatalf("draining: %d Retry-After=%q, want 503 / 5", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	st := srv.Stats()
	if st.Server.Timeouts != 1 || st.Server.Rejected != 1 || st.Server.Draining != 1 {
		t.Fatalf("rejection classes misattributed: %+v", st.Server)
	}
}

// TestCheckpointStoreConcurrentGroupSaves hammers Save from many
// goroutines through a group-commit store (run with -race): every
// worker's latest checkpoint must be its last save — in this handle and
// after recovery — even though group completions can finish the map
// updates out of order, and compaction runs concurrently with saves.
func TestCheckpointStoreConcurrentGroupSaves(t *testing.T) {
	dir := t.TempDir()
	cs, err := OpenCheckpointStore(dir, store.WithGroupCommit())
	if err != nil {
		t.Fatal(err)
	}
	const workers, saves = 8, 40 // 320 records: several compactions
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= saves; i++ {
				ckpt := &komodo.Checkpoint{Blob: []uint32{uint32(w), uint32(i)}}
				if err := cs.Save(w, uint32(i), ckpt); err != nil {
					t.Errorf("save(%d,%d): %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		s, ok := cs.Latest(w)
		if !ok || s.Counter != saves {
			t.Fatalf("worker %d latest counter %d (ok=%v), want %d", w, s.Counter, ok, saves)
		}
	}
	ss := cs.StoreStats()
	if ss.Appends != workers*saves {
		t.Fatalf("store stats %+v: want %d appends", ss, workers*saves)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	// Recovery (snapshot + WAL tail) lands on the same latest set.
	cs2, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cs2.Close()
	for w := 0; w < workers; w++ {
		s, ok := cs2.Latest(w)
		if !ok || s.Counter != saves {
			t.Fatalf("recovered worker %d counter %d (ok=%v), want %d", w, s.Counter, ok, saves)
		}
	}
}

// notaryCheckpoint seals a fresh notary on a seed-7 board: the
// 26,020-byte checkpoint every durable sign saves.
func notaryCheckpoint(tb testing.TB) *komodo.Checkpoint {
	tb.Helper()
	sys, err := komodo.New(komodo.WithSeed(7))
	if err != nil {
		tb.Fatal(err)
	}
	img, err := kasm.NotaryGuest(1).Image()
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := sys.LoadEnclave(komodo.FromNWOSImage(img))
	if err != nil {
		tb.Fatal(err)
	}
	ckpt, err := sys.CheckpointEnclave(enc)
	if err != nil {
		tb.Fatal(err)
	}
	return ckpt
}

// saveModes are the store configurations a Save runs under: a real
// fsync, a no-op one, and group commit.
var saveModes = []struct {
	name string
	opts []store.Option
}{
	{"fsync", nil},
	{"nosync", []store.Option{store.WithSync(func(*os.File) error { return nil })}},
	{"group", []store.Option{store.WithGroupCommit()}},
}

// TestCheckpointStoreSaveAllocations: a Save allocates one record-sized
// buffer — the WAL frame the record is encoded into, which the store
// writes as it is and the saved checkpoint aliases — plus a small
// constant, with and without fsync and through group commit.
func TestCheckpointStoreSaveAllocations(t *testing.T) {
	if !allocFree {
		t.Skip("under -race, growing a slice allocates a temporary")
	}
	ckpt := notaryCheckpoint(t)
	compact, err := ckpt.AppendCompact(nil)
	if err != nil {
		t.Fatal(err)
	}
	record := store.FrameHead + recHeadBytes + len(compact) + store.FrameTail
	for _, m := range saveModes {
		t.Run(m.name, func(t *testing.T) {
			cs, err := OpenCheckpointStore(t.TempDir(), m.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer cs.Close()
			if err := cs.Save(0, 1, ckpt); err != nil { // the maps grow once
				t.Fatal(err)
			}
			const runs = 20 // below ckptCompactEvery: no compaction
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := range runs {
				if err := cs.Save(0, uint32(i+2), ckpt); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			const slack = 2 << 10
			if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes > uint64(record+slack) {
				t.Errorf("Save allocated %d bytes per call, want at most the %d-byte record plus %d", bytes, record, slack)
			}
		})
	}
}

// BenchmarkCheckpointStoreSave measures one durable Save of a real
// sealed notary checkpoint: encode, WAL write and fsync, with the
// compaction every ckptCompactEvery saves amortised in. The nosync
// variant swaps the fsync for a no-op to isolate encode + write.
func BenchmarkCheckpointStoreSave(b *testing.B) {
	ckpt := notaryCheckpoint(b)
	for _, v := range saveModes[:2] {
		b.Run(v.name, func(b *testing.B) {
			cs, err := OpenCheckpointStore(b.TempDir(), v.opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer cs.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cs.Save(0, uint32(i+1), ckpt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
