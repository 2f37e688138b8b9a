package komodo

// Sealed enclave checkpoints at the facade level: a Checkpoint bundles
// the monitor-sealed blob (opaque, integrity- and confidentiality-
// protected) with the untrusted OS manifest needed to re-address the
// enclave after restore. Checkpoints serialise to JSON for transport
// (MarshalBinary) and to a compact binary form for at-rest storage
// (AppendCompact, the payload of internal/server's WAL records);
// UnmarshalCheckpoint reads both. See docs/SEALING.md.

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/nwos"
	"repro/internal/sha2"
)

// Checkpoint is a sealed, durable image of one enclave.
type Checkpoint struct {
	// Manifest is the OS bookkeeping: page roles by logical index. It is
	// untrusted — a corrupted manifest makes restore fail, never unseal
	// someone else's state.
	Manifest nwos.Manifest
	// Blob is the sealed image. Only a monitor holding the same boot
	// secret can open it, and only under the same enclave measurement.
	Blob []uint32
}

// checkpointWire is the JSON encoding: the manifest inline, the blob as
// base64 of its big-endian word bytes.
type checkpointWire struct {
	Version  int           `json:"version"`
	Manifest nwos.Manifest `json:"manifest"`
	Blob     string        `json:"blob"`
}

// MarshalBinary encodes the checkpoint as JSON, the transport form of
// /v1/checkpoint, komodo-ckpt files and gateway migration.
func (c *Checkpoint) MarshalBinary() ([]byte, error) {
	w := checkpointWire{
		Version:  1,
		Manifest: c.Manifest,
		Blob:     base64.StdEncoding.EncodeToString(sha2.WordsToBytes(c.Blob)),
	}
	return json.Marshal(w)
}

// The compact form: the magic, the format version, the manifest as
// length-prefixed JSON, then the blob's word count and its words, all
// integers big-endian. The blob is already sealed, so re-encoding it
// protects nothing; the compact form writes its words as they are.
//
//	"KCKP" | version u32 (2) | manifest length u32 | manifest JSON |
//	blob words u32 | blob words
const (
	compactMagic   = "KCKP"
	compactVersion = 2 // the JSON transport form is version 1
	compactHead    = len(compactMagic) + 4 + 4
)

// AppendCompact appends the checkpoint's compact binary form to dst and
// returns the extended slice. The manifest's JSON is encoded straight
// into dst, so a dst with room for the record is not grown.
func (c *Checkpoint) AppendCompact(dst []byte) ([]byte, error) {
	dst = append(dst, compactMagic...)
	dst = binary.BigEndian.AppendUint32(dst, compactVersion)
	at := len(dst)
	man := appender{binary.BigEndian.AppendUint32(dst, 0)}
	if err := json.NewEncoder(&man).Encode(&c.Manifest); err != nil {
		return nil, err
	}
	// Encode ends the value with a newline that Marshal does not write.
	dst = man.b[:len(man.b)-1]
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	dst = slices.Grow(dst, 4+4*len(c.Blob))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(c.Blob)))
	off := len(dst)
	dst = dst[:off+4*len(c.Blob)]
	for i, w := range c.Blob {
		binary.BigEndian.PutUint32(dst[off+4*i:], w)
	}
	return dst, nil
}

// appender is an io.Writer that appends to b.
type appender struct{ b []byte }

func (a *appender) Write(p []byte) (int, error) {
	a.b = append(a.b, p...)
	return len(p), nil
}

// UnmarshalCheckpoint decodes either form: MarshalBinary's JSON
// (leading '{') or AppendCompact's binary (leading magic). Anything
// else is rejected.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	switch {
	case bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte("{")):
		return unmarshalJSON(data)
	case bytes.HasPrefix(data, []byte(compactMagic)):
		return unmarshalCompact(data)
	}
	return nil, fmt.Errorf("komodo: checkpoint decode: neither JSON nor compact form")
}

func unmarshalJSON(data []byte) (*Checkpoint, error) {
	var w checkpointWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("komodo: checkpoint decode: %w", err)
	}
	if w.Version != 1 {
		return nil, fmt.Errorf("komodo: unsupported checkpoint version %d", w.Version)
	}
	raw, err := base64.StdEncoding.DecodeString(w.Blob)
	if err != nil {
		return nil, fmt.Errorf("komodo: checkpoint blob decode: %w", err)
	}
	if len(raw)%4 != 0 {
		return nil, fmt.Errorf("komodo: checkpoint blob length %d not word-aligned", len(raw))
	}
	return &Checkpoint{Manifest: w.Manifest, Blob: sha2.BytesToWords(raw)}, nil
}

// unmarshalCompact checks every length field against what is left of
// data before it slices or allocates, so a forged length costs nothing.
func unmarshalCompact(data []byte) (*Checkpoint, error) {
	if len(data) < compactHead {
		return nil, fmt.Errorf("komodo: compact checkpoint truncated at %d bytes", len(data))
	}
	if v := binary.BigEndian.Uint32(data[4:]); v != compactVersion {
		return nil, fmt.Errorf("komodo: unsupported checkpoint version %d", v)
	}
	rest := data[compactHead:]
	manLen := uint64(binary.BigEndian.Uint32(data[8:]))
	if manLen+4 > uint64(len(rest)) {
		return nil, fmt.Errorf("komodo: compact checkpoint manifest length %d exceeds %d bytes left", manLen, len(rest))
	}
	var c Checkpoint
	if err := json.Unmarshal(rest[:manLen], &c.Manifest); err != nil {
		return nil, fmt.Errorf("komodo: checkpoint manifest decode: %w", err)
	}
	rest = rest[manLen:]
	words := uint64(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if 4*words != uint64(len(rest)) {
		return nil, fmt.Errorf("komodo: compact checkpoint claims %d blob words in %d bytes", words, len(rest))
	}
	c.Blob = sha2.BytesToWords(rest)
	return &c, nil
}

// CheckpointEnclave seals a finalised (or stopped) enclave into a new
// portable checkpoint. The enclave keeps running; the checkpoint is a
// point-in-time copy.
func (s *System) CheckpointEnclave(e *Enclave) (*Checkpoint, error) {
	var c Checkpoint
	if err := s.CheckpointInto(&c, e); err != nil {
		return nil, err
	}
	return &c, nil
}

// CheckpointInto seals e into c, reading the blob into c.Blob's backing
// array (grown only if it is too short). A caller that checkpoints into
// the same Checkpoint again allocates nothing in proportion to the
// image, and must be done with the previous blob. On an error c's blob
// words are unspecified.
func (s *System) CheckpointInto(c *Checkpoint, e *Enclave) error {
	blob, man, err := s.os.CheckpointEnclave(e.enc, c.Blob)
	if err != nil {
		return err
	}
	c.Manifest, c.Blob = man, blob
	return nil
}

// RestoreEnclave instantiates a checkpoint onto this system. It succeeds
// exactly when this board's monitor derives the same measurement-bound
// sealing key — same boot secret, same enclave measurement — so a blob
// can migrate between identically-keyed boards but never to a foreign
// one, and never after tampering.
func (s *System) RestoreEnclave(c *Checkpoint) (*Enclave, error) {
	enc, err := s.os.RestoreEnclave(c.Blob, c.Manifest)
	if err != nil {
		return nil, err
	}
	return &Enclave{sys: s, enc: enc}, nil
}
