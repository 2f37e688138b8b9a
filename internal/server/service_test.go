package server

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/replay"
	"repro/komodo"
)

// TestNotarySignBlockCacheSteadyState: in the durable serving cycle (sign,
// checkpoint, rebase of the golden snapshot) every block a steady-state
// notary sign dispatches is already cached, so a sign misses no block and
// fills none. Heads that alias one cache slot would evict each other and
// refill on every sign.
func TestNotarySignBlockCacheSteadyState(t *testing.T) {
	sys, state, err := Blueprint(1)()
	if err != nil {
		t.Fatal(err)
	}
	st := state.(*WorkerState)
	golden := sys.Snapshot()
	doc := []byte("steady-state block cache probe document")
	sign := func() {
		t.Helper()
		if _, err := NotarySign(context.Background(), st, doc); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.CheckpointEnclave(st.Notary); err != nil {
			t.Fatal(err)
		}
		if !sys.Rebase(golden) {
			t.Fatal("rebase of the golden snapshot fell back")
		}
	}
	for i := 0; i < 3; i++ {
		sign()
	}
	before := sys.TelemetrySnapshot().BlockCache
	const signs = 5
	for i := 0; i < signs; i++ {
		sign()
	}
	after := sys.TelemetrySnapshot().BlockCache
	if after.Hits == before.Hits {
		t.Fatal("no block-cache hits: the signs did not run through the block cache")
	}
	if misses, fills := after.Misses-before.Misses, after.Fills-before.Fills; misses != 0 || fills != 0 {
		t.Fatalf("%d steady-state signs: %d block-cache misses and %d fills, want 0 (hits %d, revalidated %d)",
			signs, misses, fills, after.Hits-before.Hits, after.Revalidated-before.Revalidated)
	}
}

// TestSharedGuestImages: boards booted from the once-per-process guest
// images have the same enclave measurements and quote key as boards
// booted from freshly assembled guests, and booting and serving on them
// leaves the shared images as fresh assembly makes them.
func TestSharedGuestImages(t *testing.T) {
	type identity struct {
		qe, attester, notary [8]uint32
		quoteKey             [8]uint32
	}
	boot := func() identity {
		t.Helper()
		_, state, err := Blueprint(3)()
		if err != nil {
			t.Fatal(err)
		}
		st := state.(*WorkerState)
		if _, err := NotarySign(context.Background(), st, []byte("shared image probe")); err != nil {
			t.Fatal(err)
		}
		if _, err := Attest(context.Background(), st, NonceWords([]byte("shared image probe"))); err != nil {
			t.Fatal(err)
		}
		id := identity{quoteKey: st.QuoteKey}
		for _, m := range []struct {
			dst *[8]uint32
			enc *komodo.Enclave
		}{{&id.qe, st.QE}, {&id.attester, st.Attester}, {&id.notary, st.Notary}} {
			if *m.dst, err = m.enc.Measurement(); err != nil {
				t.Fatal(err)
			}
		}
		return id
	}
	shared := []identity{boot(), boot()}

	saved := guestImages
	t.Cleanup(func() { guestImages = saved })
	guestImages = assembleGuests
	fresh := boot()
	for i, id := range shared {
		if id != fresh {
			t.Fatalf("board %d booted from the shared images differs from fresh assembly:\n%+v\n%+v", i, id, fresh)
		}
	}

	sharedImgs, err := saved()
	if err != nil {
		t.Fatal(err)
	}
	freshImgs, err := assembleGuests()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sharedImgs, freshImgs) {
		t.Fatal("booting boards modified the shared guest images")
	}
}

// BenchmarkStartRecording measures the replay recorder's own cost per
// request: one notary sign on a Blueprint board, bare and recorded
// (StartRecording, the sign, Stop). The difference between the two is
// what recording adds; start-pages/op is the size of the memory image a
// trace starts from. Run it with -benchmem.
func BenchmarkStartRecording(b *testing.B) {
	doc := []byte("recorder cost probe document")
	for _, recorded := range []bool{false, true} {
		name := "bare"
		if recorded {
			name = "recorded"
		}
		b.Run(name, func(b *testing.B) {
			sys, state, err := Blueprint(1)()
			if err != nil {
				b.Fatal(err)
			}
			st := state.(*WorkerState)
			pages := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var rec *replay.Recorder
				if recorded {
					rec = replay.StartRecording(sys, "bench", "/v1/notary/sign")
				}
				if _, err := NotarySign(context.Background(), st, doc); err != nil {
					b.Fatal(err)
				}
				if recorded {
					pages += len(rec.Stop().StartPages)
				}
			}
			if recorded {
				b.ReportMetric(float64(pages)/float64(b.N), "start-pages/op")
			}
		})
	}
}
