// komodo-loc reproduces the paper's Table 2: a line-count breakdown of the
// system by role (specification / implementation / proof-analog), printed
// next to the paper's published counts, with the trusted core's non-test
// line count. Run from the module root, or pass -root.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/eval"
)

func main() {
	root := flag.String("root", ".", "module root to count")
	flag.Parse()
	if err := eval.WriteTable2(os.Stdout, *root); err != nil {
		fmt.Fprintln(os.Stderr, "komodo-loc:", err)
		os.Exit(1)
	}
}
