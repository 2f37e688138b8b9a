// komodo-bench regenerates the paper's evaluation: Table 3, the
// crossing-optimisation ablation, the §8.1 SGX comparison, Figure 5, and
// the Table 2 line-count breakdown, plus the host hot-path section
// (-perf). With no flags it prints everything; -json emits the selected
// sections as one machine-readable object (the schema of the BENCH_*.json
// baselines that make bench-baseline writes).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/eval"
)

// output is the -json schema: each requested section, keyed by name.
type output struct {
	Table3      []eval.Table3Row   `json:"table3,omitempty"`
	Ablation    []eval.AblationRow `json:"ablation,omitempty"`
	SGX         []eval.SGXRow      `json:"sgx,omitempty"`
	Figure5     []eval.Fig5Point   `json:"figure5,omitempty"`
	Table2      []eval.LocRow      `json:"table2,omitempty"`
	PaperTable2 []eval.LocRow      `json:"paper_table2,omitempty"`
	Perf        *eval.PerfReport   `json:"perf,omitempty"`
}

func main() {
	t3 := flag.Bool("table3", false, "print only the Table 3 microbenchmarks")
	sgxOnly := flag.Bool("sgx", false, "print only the SGX crossing comparison (§8.1)")
	f5 := flag.Bool("figure5", false, "print only the Figure 5 notary series")
	t2 := flag.Bool("table2", false, "print only the Table 2 line-count breakdown")
	abl := flag.Bool("ablation", false, "print only the crossing-optimisation ablation")
	perf := flag.Bool("perf", false, "print only the host hot-path performance section (docs/PERFORMANCE.md)")
	perfReqs := flag.Int("perf-requests", 200, "notary requests the -perf section serves")
	asJSON := flag.Bool("json", false, "emit the selected sections as JSON")
	root := flag.String("root", ".", "module root for the line-count breakdown")
	flag.Parse()
	all := !*t3 && !*sgxOnly && !*f5 && !*t2 && !*abl && !*perf

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "komodo-bench:", err)
		os.Exit(1)
	}

	var out output
	if all || *t3 {
		rows, err := eval.Table3()
		if err != nil {
			fail(err)
		}
		out.Table3 = rows
	}
	if all || *abl {
		rows, err := eval.Ablation()
		if err != nil {
			fail(err)
		}
		out.Ablation = rows
	}
	if all || *sgxOnly {
		rows, err := eval.SGXComparison()
		if err != nil {
			fail(err)
		}
		out.SGX = rows
	}
	if all || *f5 {
		pts, err := eval.Figure5(eval.Figure5Sizes)
		if err != nil {
			fail(err)
		}
		out.Figure5 = pts
	}
	if all || *t2 {
		rows, err := eval.CountLines(*root)
		if err != nil {
			fail(err)
		}
		out.Table2 = rows
		out.PaperTable2 = eval.PaperTable2Rows()
	}
	if all || *perf {
		r, err := eval.Perf(*perfReqs)
		if err != nil {
			fail(err)
		}
		out.Perf = r
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
		return
	}

	if out.Table3 != nil {
		fmt.Println("Table 3: Microbenchmark results (simulated cycles vs. paper's Raspberry Pi 2)")
		fmt.Printf("  %-14s %-42s %10s %10s\n", "Operation", "Notes", "cycles", "paper")
		for _, r := range out.Table3 {
			fmt.Printf("  %-14s %-42s %10d %10d\n", r.Operation, r.Notes, r.Cycles, r.PaperCycles)
		}
		fmt.Println()
	}
	if out.Ablation != nil {
		fmt.Println("Ablation: §8.1 crossing optimisations (cycles per full crossing)")
		fmt.Printf("  %-46s %10s %10s\n", "Configuration", "cold", "hot")
		for _, r := range out.Ablation {
			fmt.Printf("  %-46s %10d %10d\n", r.Config, r.FirstCrossing, r.RepeatCrossing)
		}
		fmt.Println()
	}
	if out.SGX != nil {
		fmt.Println("SGX comparison (§8.1): enclave crossing latency")
		fmt.Printf("  %-18s %12s %12s %8s\n", "Operation", "Komodo", "SGX model", "ratio")
		for _, r := range out.SGX {
			fmt.Printf("  %-18s %12d %12d %7.1fx\n", r.Operation, r.Komodo, r.SGX, float64(r.SGX)/float64(r.Komodo))
		}
		fmt.Println()
	}
	if out.Figure5 != nil {
		fmt.Println("Figure 5: Notary performance (time to notarise vs. input size, 900 MHz clock)")
		fmt.Printf("  %8s %14s %14s %8s\n", "size", "enclave (ms)", "native (ms)", "ratio")
		for _, p := range out.Figure5 {
			fmt.Printf("  %6dkB %14.3f %14.3f %8.3f\n", p.KB, p.EnclaveMS, p.NativeMS, p.EnclaveMS/p.NativeMS)
		}
		fmt.Println()
	}
	if out.Perf != nil {
		p := out.Perf
		fmt.Println("Hot-path performance (host wall-clock; see docs/PERFORMANCE.md)")
		fmt.Printf("  interpreter: %.2fM instr/s block-cached, %.2fM uncached\n",
			p.InstrPerSec/1e6, p.InstrPerSecUncached/1e6)
		fmt.Printf("  block cache: %.2fx over uncached (hit rate %.1f%%, mean block %.1f insns)\n",
			p.BlockCacheSpeedup, p.BlockCacheHitRate*100, p.MeanBlockLen)
		fmt.Printf("  restore:     %d words/request delta vs %d full copy (%.0fx fewer)\n",
			p.RestoreWordsPerRequest, p.RestoreWordsFullCopy, p.RestoreReduction)
		fmt.Printf("  serve:       p50 %.0f µs, p95 %.0f µs over %d notary requests (%d-word docs)\n",
			p.ServeP50Micros, p.ServeP95Micros, p.Requests, p.DocWords)
		fmt.Println()
	}
	if out.Table2 != nil {
		if err := eval.WriteTable2(os.Stdout, *root); err != nil {
			fail(err)
		}
	}
}
