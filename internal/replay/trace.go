// Package replay is the deterministic record/replay layer over the
// simulated Komodo board, plus the freeze-the-world machine monitor that
// komodo-mon and the komodo-serve debug endpoints drive.
//
// A Trace captures everything non-deterministic about one span of
// execution — the boot configuration, the complete starting machine and
// memory state, and the ordered sequence of boundary operations the
// normal-world harness performed (SMCs with their results, insecure-memory
// reads/writes, interrupt scheduling) together with the cycle and
// retired-instruction counts observed after each. Because the simulator is
// deterministic (equal seeds give bit-identical simulations) and only
// enclave code executes simulated instructions, replaying those boundary
// operations on a freshly booted same-seed board reproduces the recording
// bit for bit; any divergence of results, counters, or final state is a
// determinism bug (or a tampered trace) and fails loudly.
//
// The file format (documented in docs/REPLAY.md) is a magic/version
// preamble followed by CRC-framed records. The decoder fails closed:
// truncated, oversized, or tampered frames are errors, never partial
// traces.
package replay

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/arm"
	"repro/internal/kapi"
	"repro/internal/mem"
	"repro/komodo"
)

// Trace file constants.
const (
	magic   = "KREC"
	version = 1

	// maxFrame bounds any single frame (the state frame carries whole
	// memory images, so this is generous but still refuses absurd input).
	maxFrame = 256 << 20
	// maxOps bounds the operation count a header may promise.
	maxOps = 1 << 24
	// maxPages bounds the page count of a state frame.
	maxPages = 1 << 20
	// maxWords bounds any embedded word slice (SMC args, memory traffic).
	maxWords = 1 << 22
	// maxString bounds embedded strings (trace ids, endpoints, errors).
	maxString = 1 << 12
)

// Frame type tags.
const (
	frameHeader = 1
	frameState  = 2
	frameOp     = 3
	frameEnd    = 4
)

// ErrBadTrace is wrapped by every decode failure.
var ErrBadTrace = errors.New("replay: bad trace")

// Header identifies a recording and the platform that can replay it.
type Header struct {
	Boot     komodo.BootConfig
	TraceID  string
	Endpoint string
}

// OpKind discriminates boundary operations.
type OpKind uint8

const (
	OpSMC OpKind = iota + 1
	OpWrite
	OpRead
	OpIRQ
)

func (k OpKind) String() string {
	switch k {
	case OpSMC:
		return "smc"
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpIRQ:
		return "irq"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one recorded boundary operation with its observed outcome. The
// outcome fields double as replay expectations: a replayed op must
// reproduce them exactly.
type Op struct {
	Kind OpKind

	// SMC fields (Kind == OpSMC).
	Call uint32
	Args []uint32
	Errc kapi.Err
	Val  uint32

	// Memory-traffic fields (OpWrite/OpRead). Words carries the data
	// written or the data read back.
	PA    uint32
	N     uint32
	Words []uint32

	// IRQ scheduling (OpIRQ).
	After int64

	// ErrMsg is the Go-level error text ("" = nil): replay compares
	// presence and text, so a run that starts failing differently
	// diverges.
	ErrMsg string

	// EndCycles/EndRetired are the machine counters observed after the
	// op completed.
	EndCycles  uint64
	EndRetired uint64
}

// Name renders an op for divergence reports and the monitor UI.
func (o Op) Name() string {
	switch o.Kind {
	case OpSMC:
		return fmt.Sprintf("smc %s%v", kapi.SMCName(o.Call), o.Args)
	case OpWrite:
		return fmt.Sprintf("write pa=%#x n=%d", o.PA, len(o.Words))
	case OpRead:
		return fmt.Sprintf("read pa=%#x n=%d", o.PA, o.N)
	case OpIRQ:
		return fmt.Sprintf("irq after=%d", o.After)
	}
	return o.Kind.String()
}

// Trace is a complete decoded recording.
type Trace struct {
	Header Header

	// Start is the machine state at recording start; StartPages the
	// complete memory image (non-zero pages).
	Start      arm.MachineState
	StartPages []mem.PageImage

	Ops []Op

	// End is the machine state at recording stop; EndDigest the memory
	// digest at the same instant.
	End       arm.MachineState
	EndDigest uint64
}

// --- primitive little-endian encoder/decoder ---

type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }
func (e *enc) u64(v uint64) { e.u32(uint32(v)); e.u32(uint32(v >> 32)) }
func (e *enc) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) words(w []uint32) {
	e.u32(uint32(len(w)))
	for _, v := range w {
		e.u32(v)
	}
}

type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(f string, a ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrBadTrace, fmt.Sprintf(f, a...))
	}
}

func (d *dec) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off+1 > len(d.b) {
		d.fail("truncated at byte %d", d.off)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.b) {
		d.fail("truncated at byte %d", d.off)
		return 0
	}
	v := uint32(d.b[d.off]) | uint32(d.b[d.off+1])<<8 | uint32(d.b[d.off+2])<<16 | uint32(d.b[d.off+3])<<24
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	lo := d.u32()
	hi := d.u32()
	return uint64(lo) | uint64(hi)<<32
}

func (d *dec) boolean() bool { return d.u8() != 0 }

func (d *dec) str() string {
	n := d.u32()
	if d.err != nil {
		return ""
	}
	if n > maxString || d.off+int(n) > len(d.b) {
		d.fail("bad string length %d", n)
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *dec) words() []uint32 {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if n > maxWords || d.off+4*int(n) > len(d.b) {
		d.fail("bad word-slice length %d", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = d.u32()
	}
	return out
}

func (d *dec) done() bool { return d.err == nil && d.off == len(d.b) }

// --- composite encodings ---

func encPSR(e *enc, p arm.PSR) {
	var v uint8
	set := func(bit int, b bool) {
		if b {
			v |= 1 << bit
		}
	}
	set(0, p.N)
	set(1, p.Z)
	set(2, p.C)
	set(3, p.V)
	set(4, p.I)
	set(5, p.F)
	e.u8(v)
	e.u8(uint8(p.Mode))
}

func decPSR(d *dec) arm.PSR {
	v := d.u8()
	mode := d.u8()
	return arm.PSR{
		N: v&1 != 0, Z: v&2 != 0, C: v&4 != 0, V: v&8 != 0,
		I: v&16 != 0, F: v&32 != 0,
		Mode: arm.Mode(mode),
	}
}

func encMachineState(e *enc, s arm.MachineState) {
	for _, r := range s.R {
		e.u32(r)
	}
	for i := range s.SP {
		e.u32(s.SP[i])
		e.u32(s.LR[i])
		encPSR(e, s.SPSR[i])
	}
	e.u32(s.PC)
	encPSR(e, s.CPSR)
	e.boolean(s.SCRNS)
	e.u32(s.TTBR0[0])
	e.u32(s.TTBR0[1])
	e.u32(s.TTBR1)
	e.u32(s.VBAR)
	e.u32(s.MVBAR)
	e.words(s.PTPages)
	e.u64(uint64(s.IRQCountdown))
	e.boolean(s.IRQPending)
	e.boolean(s.FIQPending)
	e.u64(s.Retired)
	e.u32(uint32(len(s.InsnClass)))
	for _, c := range s.InsnClass {
		e.u64(c)
	}
	for _, w := range s.RNG {
		e.u64(w)
	}
	e.u64(s.Cycles)
	e.boolean(s.TLBConsistent)
}

func decMachineState(d *dec) arm.MachineState {
	var s arm.MachineState
	for i := range s.R {
		s.R[i] = d.u32()
	}
	for i := range s.SP {
		s.SP[i] = d.u32()
		s.LR[i] = d.u32()
		s.SPSR[i] = decPSR(d)
	}
	s.PC = d.u32()
	s.CPSR = decPSR(d)
	s.SCRNS = d.boolean()
	s.TTBR0[0] = d.u32()
	s.TTBR0[1] = d.u32()
	s.TTBR1 = d.u32()
	s.VBAR = d.u32()
	s.MVBAR = d.u32()
	s.PTPages = d.words()
	s.IRQCountdown = int64(d.u64())
	s.IRQPending = d.boolean()
	s.FIQPending = d.boolean()
	s.Retired = d.u64()
	nc := d.u32()
	if int(nc) != len(s.InsnClass) {
		d.fail("insn class count %d != %d", nc, len(s.InsnClass))
		return s
	}
	for i := range s.InsnClass {
		s.InsnClass[i] = d.u64()
	}
	for i := range s.RNG {
		s.RNG[i] = d.u64()
	}
	s.Cycles = d.u64()
	s.TLBConsistent = d.boolean()
	return s
}

func encHeader(e *enc, h Header, nops int) {
	b := h.Boot
	e.u64(b.Seed)
	e.u8(uint8(b.Protection))
	var flags uint8
	set := func(bit int, v bool) {
		if v {
			flags |= 1 << bit
		}
	}
	set(0, b.Static)
	set(1, b.Checked)
	set(2, b.Optimised)
	// Bit 3 switched off the deleted predecode cache; it is never set.
	set(4, b.NoBlockCache)
	e.u8(flags)
	e.u64(uint64(b.Budget))
	e.u32(b.SecureSize)
	e.str(h.TraceID)
	e.str(h.Endpoint)
	e.u32(uint32(nops))
}

func decHeader(d *dec) (Header, int) {
	var h Header
	h.Boot.Seed = d.u64()
	h.Boot.Protection = komodo.Protection(d.u8())
	flags := d.u8()
	h.Boot.Static = flags&1 != 0
	h.Boot.Checked = flags&2 != 0
	h.Boot.Optimised = flags&4 != 0
	// Bit 3 (the deleted predecode cache's switch) is accepted and
	// ignored: that cache was semantically invisible, so older traces
	// replay unchanged.
	h.Boot.NoBlockCache = flags&16 != 0
	h.Boot.Budget = int64(d.u64())
	h.Boot.SecureSize = d.u32()
	h.TraceID = d.str()
	h.Endpoint = d.str()
	nops := d.u32()
	if nops > maxOps {
		d.fail("op count %d too large", nops)
	}
	return h, int(nops)
}

func encOp(e *enc, o Op) {
	e.u8(uint8(o.Kind))
	e.u32(o.Call)
	e.words(o.Args)
	e.u32(uint32(o.Errc))
	e.u32(o.Val)
	e.u32(o.PA)
	e.u32(o.N)
	e.words(o.Words)
	e.u64(uint64(o.After))
	e.str(o.ErrMsg)
	e.u64(o.EndCycles)
	e.u64(o.EndRetired)
}

func decOp(d *dec) Op {
	var o Op
	o.Kind = OpKind(d.u8())
	o.Call = d.u32()
	o.Args = d.words()
	o.Errc = kapi.Err(d.u32())
	o.Val = d.u32()
	o.PA = d.u32()
	o.N = d.u32()
	o.Words = d.words()
	o.After = int64(d.u64())
	o.ErrMsg = d.str()
	o.EndCycles = d.u64()
	o.EndRetired = d.u64()
	if d.err == nil && (o.Kind < OpSMC || o.Kind > OpIRQ) {
		d.fail("unknown op kind %d", uint8(o.Kind))
	}
	return o
}

func encState(e *enc, s arm.MachineState, pages []mem.PageImage) {
	encMachineState(e, s)
	e.u32(uint32(len(pages)))
	for _, pg := range pages {
		e.boolean(pg.Secure)
		e.u32(pg.Page)
		for _, w := range pg.Words {
			e.u32(w)
		}
	}
}

func decState(d *dec) (arm.MachineState, []mem.PageImage) {
	s := decMachineState(d)
	n := d.u32()
	if d.err != nil {
		return s, nil
	}
	if n > maxPages {
		d.fail("page count %d too large", n)
		return s, nil
	}
	if n == 0 {
		return s, nil
	}
	pages := make([]mem.PageImage, 0, min(int(n), 4096))
	for i := 0; i < int(n); i++ {
		var pg mem.PageImage
		pg.Secure = d.boolean()
		pg.Page = d.u32()
		for j := range pg.Words {
			pg.Words[j] = d.u32()
		}
		if d.err != nil {
			return s, nil
		}
		pages = append(pages, pg)
	}
	return s, pages
}

// --- framing ---

func writeFrame(w io.Writer, payload []byte) error {
	var hdr enc
	hdr.u32(uint32(len(payload)))
	hdr.u32(crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr.b); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readFrame(r io.Reader, wantType uint8) (*dec, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: frame header: %v", ErrBadTrace, err)
	}
	n := uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24
	sum := uint32(hdr[4]) | uint32(hdr[5])<<8 | uint32(hdr[6])<<16 | uint32(hdr[7])<<24
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("%w: frame length %d", ErrBadTrace, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated frame: %v", ErrBadTrace, err)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: frame CRC mismatch", ErrBadTrace)
	}
	d := &dec{b: payload}
	if t := d.u8(); t != wantType {
		return nil, fmt.Errorf("%w: frame type %d, want %d", ErrBadTrace, t, wantType)
	}
	return d, nil
}

// WriteTrace serialises a trace.
func WriteTrace(w io.Writer, t *Trace) error {
	var pre enc
	pre.b = append(pre.b, magic...)
	pre.u32(version)
	if _, err := w.Write(pre.b); err != nil {
		return err
	}

	frame := func(typ uint8, fill func(*enc)) error {
		e := &enc{}
		e.u8(typ)
		fill(e)
		return writeFrame(w, e.b)
	}
	if err := frame(frameHeader, func(e *enc) { encHeader(e, t.Header, len(t.Ops)) }); err != nil {
		return err
	}
	if err := frame(frameState, func(e *enc) { encState(e, t.Start, t.StartPages) }); err != nil {
		return err
	}
	for _, op := range t.Ops {
		op := op
		if err := frame(frameOp, func(e *enc) { encOp(e, op) }); err != nil {
			return err
		}
	}
	return frame(frameEnd, func(e *enc) {
		encMachineState(e, t.End)
		e.u64(t.EndDigest)
	})
}

// ReadTrace decodes a trace, failing closed on any truncation, tampering,
// or structural nonsense.
func ReadTrace(r io.Reader) (*Trace, error) {
	var pre [8]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, fmt.Errorf("%w: preamble: %v", ErrBadTrace, err)
	}
	if string(pre[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadTrace)
	}
	if v := uint32(pre[4]) | uint32(pre[5])<<8 | uint32(pre[6])<<16 | uint32(pre[7])<<24; v != version {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrBadTrace, v, version)
	}

	t := &Trace{}
	d, err := readFrame(r, frameHeader)
	if err != nil {
		return nil, err
	}
	var nops int
	t.Header, nops = decHeader(d)
	if d.err != nil {
		return nil, d.err
	}
	if !d.done() {
		return nil, fmt.Errorf("%w: trailing bytes in header frame", ErrBadTrace)
	}

	d, err = readFrame(r, frameState)
	if err != nil {
		return nil, err
	}
	t.Start, t.StartPages = decState(d)
	if d.err != nil {
		return nil, d.err
	}
	if !d.done() {
		return nil, fmt.Errorf("%w: trailing bytes in state frame", ErrBadTrace)
	}

	t.Ops = make([]Op, 0, min(nops, 65536))
	for i := 0; i < nops; i++ {
		d, err = readFrame(r, frameOp)
		if err != nil {
			return nil, err
		}
		op := decOp(d)
		if d.err != nil {
			return nil, d.err
		}
		if !d.done() {
			return nil, fmt.Errorf("%w: trailing bytes in op frame %d", ErrBadTrace, i)
		}
		t.Ops = append(t.Ops, op)
	}

	d, err = readFrame(r, frameEnd)
	if err != nil {
		return nil, err
	}
	t.End = decMachineState(d)
	t.EndDigest = d.u64()
	if d.err != nil {
		return nil, d.err
	}
	if !d.done() {
		return nil, fmt.Errorf("%w: trailing bytes in end frame", ErrBadTrace)
	}

	var tail [1]byte
	if _, err := r.Read(tail[:]); err != io.EOF {
		return nil, fmt.Errorf("%w: data after end frame", ErrBadTrace)
	}
	return t, nil
}

// Save writes a trace to a file.
func Save(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTrace(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a trace from a file.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
