package replay

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/kasm"
	"repro/komodo"
)

// legacyPredecodeBit is header flag bit 3. Recorders before the predecode
// cache was deleted set it for a board booted without that cache.
const legacyPredecodeBit = 8

// TestLegacyPredecodeFlagReplays: a .krec whose header sets flag bit 3
// must still decode, to the same header as without the bit, and replay
// bit-identically. The header frame is written field by field in the
// version-1 layout, so the test pins the wire format rather than
// re-using encHeader.
func TestLegacyPredecodeFlagReplays(t *testing.T) {
	sys, err := komodo.New(komodo.WithSeed(3), komodo.WithoutBlockCache())
	if err != nil {
		t.Fatal(err)
	}
	img, err := kasm.AddArgs().Image()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RecordFunc(sys, "t-legacy", "test", func() error {
		enc, err := sys.LoadEnclave(komodo.FromNWOSImage(img))
		if err != nil {
			return err
		}
		_, err = enc.Run(2, 3)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	var cur bytes.Buffer
	if err := WriteTrace(&cur, tr); err != nil {
		t.Fatal(err)
	}
	raw := cur.Bytes()
	const preamble = 8
	hdrEnd := preamble + 8 + int(binary.LittleEndian.Uint32(raw[preamble:]))

	b := tr.Header.Boot
	e := &enc{}
	e.u8(frameHeader)
	e.u64(b.Seed)
	e.u8(uint8(b.Protection))
	e.u8(legacyPredecodeBit | 16) // predecode cache off | NoBlockCache
	e.u64(uint64(b.Budget))
	e.u32(b.SecureSize)
	e.str(tr.Header.TraceID)
	e.str(tr.Header.Endpoint)
	e.u32(uint32(len(tr.Ops)))
	var legacy bytes.Buffer
	legacy.Write(raw[:preamble])
	if err := writeFrame(&legacy, e.b); err != nil {
		t.Fatal(err)
	}
	legacy.Write(raw[hdrEnd:])
	if bytes.Equal(legacy.Bytes(), raw) {
		t.Fatal("legacy header encodes like the current one; the fixture does not set bit 3")
	}

	back, err := ReadTrace(bytes.NewReader(legacy.Bytes()))
	if err != nil {
		t.Fatalf("trace with flag bit 3 rejected: %v", err)
	}
	if !reflect.DeepEqual(back.Header, tr.Header) {
		t.Fatalf("header = %+v, want %+v", back.Header, tr.Header)
	}
	res, err := Replay(back)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("trace with flag bit 3 diverged:\n%s", RenderResult(res))
	}
}
