package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

const pinSeed = 5

// TestTracedPathFollowsServed pins the traced composition to the served
// path: with one client, the same seed and fresh state dirs, the same
// requests over HTTP and through the traced layers give the same outcomes
// (counters on the same workers, identical attest quotes), and the signs
// leave byte-identical WALs, since sealing draws only from the seeded
// board RNG.
func TestTracedPathFollowsServed(t *testing.T) {
	const n = 12 // fewer than the checkpoint store's compaction interval
	for _, name := range []string{"attest", "sign-durable"} {
		t.Run(name, func(t *testing.T) {
			w := workloads[name]
			servedDir, tracedDir := t.TempDir(), t.TempDir()
			served := servedOutcomes(t, w, servedDir, n)
			traced := tracedOutcomes(t, w, tracedDir, n)
			for i := range served {
				if served[i] != traced[i] {
					t.Fatalf("operation %d: served %+v, traced %+v", i, served[i], traced[i])
				}
			}
			if !w.sign {
				return
			}
			if served[n-1].counter == 0 {
				t.Fatal("signs returned no counters")
			}
			a, err := os.ReadFile(filepath.Join(servedDir, "wal.log"))
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(tracedDir, "wal.log"))
			if err != nil {
				t.Fatal(err)
			}
			if len(a) == 0 || !bytes.Equal(a, b) {
				t.Fatalf("WALs differ: %d and %d bytes", len(a), len(b))
			}
		})
	}
}

// servedOutcomes sends n requests from one client over HTTP.
func servedOutcomes(t *testing.T, w workload, dir string, n int) []outcome {
	t.Helper()
	st, err := openStack(w, pinSeed, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.close(); err != nil {
			t.Error(err)
		}
	}()
	var qk [8]uint32
	if !w.sign {
		if qk, err = st.quoteKey(); err != nil {
			t.Fatal(err)
		}
	}
	c := newHTTPClient(st, qk)
	defer c.tr.CloseIdleConnections()
	g := newGenerator(w, pinSeed, 0, nil)
	out := make([]outcome, n)
	for i := range out {
		if _, out[i], err = c.do(g.next()); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// tracedOutcomes runs the same n requests through the traced layers.
func tracedOutcomes(t *testing.T, w workload, dir string, n int) []outcome {
	t.Helper()
	tr, err := openTracer(w, pinSeed, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := tr.close(); err != nil {
			t.Error(err)
		}
	}()
	g := newGenerator(w, pinSeed, 0, nil)
	out := make([]outcome, n)
	for i := range out {
		if _, out[i], err = tr.do(0, g.next()); err != nil {
			t.Fatal(err)
		}
	}
	return out
}
