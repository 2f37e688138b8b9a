// komodo-stats summarises telemetry in either of its two wire forms:
//
//   - an event stream produced by komodo-sim -events (or any
//     telemetry.JSONLSink): one JSON object per line, aggregated into
//     per-call counts, error rates, and cycle totals by event kind;
//   - a fleet-merged snapshot (telemetry.Merge output): a single JSON
//     document, as served inline by komodo-serve's /v1/stats. Both the
//     bare snapshot and the full /v1/stats response are accepted.
//
// The input form is sniffed: if the whole input parses as one JSON
// document it is treated as a snapshot, otherwise as JSONL.
//
//	komodo-sim -guest notary -events events.jsonl
//	komodo-stats events.jsonl
//	komodo-sim -guest count -arg 100000 -events - | komodo-stats
//	curl -s http://127.0.0.1:8787/v1/stats | komodo-stats
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/telemetry"
)

// line mirrors telemetry's JSONL wire form (sink.go jsonEvent).
type line struct {
	Seq    uint64    `json:"seq"`
	Kind   string    `json:"kind"`
	Call   uint32    `json:"call"`
	Name   string    `json:"name"`
	Args   [4]uint32 `json:"args"`
	Err    uint32    `json:"err"`
	Val    uint32    `json:"val"`
	Cycles uint64    `json:"cycles"`
}

type agg struct {
	count  uint64
	errors uint64
	cycles uint64
}

func main() {
	var r io.Reader = os.Stdin
	if len(os.Args) > 1 && os.Args[1] != "-" {
		f, err := os.Open(os.Args[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "komodo-stats:", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	input, err := io.ReadAll(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "komodo-stats:", err)
		os.Exit(1)
	}
	if snap, ok := sniffSnapshot(input); ok {
		printSnapshot(snap)
		return
	}
	sum, err := summariseJSONL(input)
	if err != nil {
		fmt.Fprintln(os.Stderr, "komodo-stats:", err)
		os.Exit(1)
	}
	sum.print()
}

// sniffSnapshot reports whether the input is one merged-snapshot JSON
// document rather than a JSONL event stream. Event lines also start
// with '{' but carry a "kind" discriminator and never a "cycles"/"smc"
// aggregate, and a multi-line stream is not a single valid document. A
// server's /v1/stats carries its snapshot under "telemetry", a gateway's
// under "fleet.telemetry".
func sniffSnapshot(input []byte) (telemetry.Snapshot, bool) {
	var snap telemetry.Snapshot
	trimmed := bytes.TrimSpace(input)
	if len(trimmed) == 0 || trimmed[0] != '{' {
		return snap, false
	}
	var probe struct {
		Kind      *string             `json:"kind"`
		Cycles    *uint64             `json:"cycles"`
		SMC       json.RawMessage     `json:"smc"`
		Telemetry *telemetry.Snapshot `json:"telemetry"`
		Fleet     *struct {
			Telemetry *telemetry.Snapshot `json:"telemetry"`
		} `json:"fleet"`
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	if dec.Decode(&probe) != nil || dec.More() {
		return snap, false // not a single document: JSONL
	}
	if probe.Telemetry != nil {
		// A full /v1/stats response: use its embedded merged snapshot.
		return *probe.Telemetry, true
	}
	if probe.Fleet != nil && probe.Fleet.Telemetry != nil {
		return *probe.Fleet.Telemetry, true
	}
	if probe.Kind != nil || (probe.Cycles == nil && probe.SMC == nil) {
		return snap, false // a lone event line, or something else
	}
	if json.Unmarshal(trimmed, &snap) != nil {
		return snap, false
	}
	return snap, true
}

// printSnapshot renders a merged telemetry.Snapshot.
func printSnapshot(s telemetry.Snapshot) {
	fmt.Printf("merged snapshot: %d cycles, %d instructions retired\n", s.Cycles, s.Retired)
	series := func(kind string, calls []telemetry.CallStats) {
		if len(calls) == 0 {
			return
		}
		sort.Slice(calls, func(i, j int) bool {
			if calls[i].Count != calls[j].Count {
				return calls[i].Count > calls[j].Count
			}
			return calls[i].Name < calls[j].Name
		})
		fmt.Printf("\n%s:\n", kind)
		for _, c := range calls {
			fmt.Printf("  %-24s %8d", c.Name, c.Count)
			if c.Errors > 0 {
				fmt.Printf("  errors=%d", c.Errors)
			}
			if c.Cycles > 0 {
				fmt.Printf("  cycles=%d (mean %d)", c.Cycles, c.Mean())
			}
			fmt.Println()
		}
	}
	series("smc", s.SMC)
	series("svc", s.SVC)
	counts := func(kind string, m map[string]uint64) {
		if len(m) == 0 {
			return
		}
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("\n%s:\n", kind)
		for _, n := range names {
			fmt.Printf("  %-24s %8d\n", n, m[n])
		}
	}
	counts("lifecycle", s.Lifecycle)
	counts("page moves", s.PageMoves)
	if s.TLB.Hits+s.TLB.Misses > 0 {
		fmt.Printf("\ntlb: %d hits, %d misses, %d flushes\n", s.TLB.Hits, s.TLB.Misses, s.TLB.Flushes)
	}
}

// summary is an event stream aggregated per kind and call name.
type summary struct {
	perKind           map[string]map[string]*agg
	total, badLines   int
	firstSeq, lastSeq uint64
}

// summariseJSONL aggregates a telemetry event stream line by line.
func summariseJSONL(input []byte) (summary, error) {
	s := summary{perKind: map[string]map[string]*agg{}}
	sc := bufio.NewScanner(bytes.NewReader(input))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var e line
		if err := json.Unmarshal(raw, &e); err != nil {
			s.badLines++
			continue
		}
		if s.total == 0 {
			s.firstSeq = e.Seq
		}
		s.lastSeq = e.Seq
		s.total++
		byName := s.perKind[e.Kind]
		if byName == nil {
			byName = map[string]*agg{}
			s.perKind[e.Kind] = byName
		}
		name := e.Name
		if name == "" {
			name = fmt.Sprintf("call-%d", e.Call)
		}
		a := byName[name]
		if a == nil {
			a = &agg{}
			byName[name] = a
		}
		a.count++
		a.cycles += e.Cycles
		if (e.Kind == "smc" || e.Kind == "svc") && telemetry.IsError(e.Err) {
			a.errors++
		}
	}
	return s, sc.Err()
}

// print renders the summary.
func (s summary) print() {
	fmt.Printf("%d events (seq %d..%d)", s.total, s.firstSeq, s.lastSeq)
	if s.badLines > 0 {
		fmt.Printf(", %d unparseable lines skipped", s.badLines)
	}
	fmt.Println()

	kinds := make([]string, 0, len(s.perKind))
	for k := range s.perKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		byName := s.perKind[kind]
		names := make([]string, 0, len(byName))
		for n := range byName {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool {
			if byName[names[i]].count != byName[names[j]].count {
				return byName[names[i]].count > byName[names[j]].count
			}
			return names[i] < names[j]
		})
		fmt.Printf("\n%s:\n", kind)
		for _, n := range names {
			a := byName[n]
			fmt.Printf("  %-24s %8d", n, a.count)
			if a.errors > 0 {
				fmt.Printf("  errors=%d", a.errors)
			}
			if a.cycles > 0 {
				fmt.Printf("  cycles=%d (mean %d)", a.cycles, a.cycles/a.count)
			}
			fmt.Println()
		}
	}
}
