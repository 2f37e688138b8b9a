package eval

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Table 2 of the paper breaks Komodo's source down into specification,
// implementation, and proof lines. This repo has the same three roles:
//
//	spec:  the trusted models — machine model, PageDB, functional spec,
//	       API definitions (what the paper writes in Dafny);
//	impl:  the monitor, the enclave-side assembly, and their supports
//	       (what the paper writes in Vale);
//	proof: the runtime verification harnesses — refinement,
//	       noninterference — and the entire test suite (standing in for
//	       the paper's proof annotations).
//
// LocRow reports one component's line counts.
type LocRow struct {
	Component string `json:"component"`
	Spec      int    `json:"spec"`
	Impl      int    `json:"impl"`
	Proof     int    `json:"proof"`
}

// TrustedCore names the packages under internal/ that make up the trusted
// core: the monitor and everything it runs on. A core package imports no
// module package outside this list (TestTrustedCoreBoundary), so the
// monitor shares only the model packages with internal/spec, the
// specification it is checked against.
var TrustedCore = []string{"monitor", "arm", "mmu", "mem", "seal", "sha2", "pagedb", "kapi", "cycles", "rng"}

// CoreLines counts the trusted core's non-test Go lines under root the
// way `make loc` counts its total: physical lines, comments and blanks
// included.
func CoreLines(root string) (int, error) {
	n := 0
	for _, pkg := range TrustedCore {
		files, _ := filepath.Glob(filepath.Join(root, "internal", pkg, "*.go")) // the pattern is well-formed
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				return 0, err
			}
			if !strings.HasSuffix(f, "_test.go") {
				n += bytes.Count(b, []byte("\n"))
			}
		}
	}
	return n, nil
}

// components lists the Table 2 rows: the directories each one covers,
// with their subdirectories ("." is the module root's own files), and
// the role of their non-test lines. Test lines are always proof.
var components = []struct {
	name string
	role int // 0 = spec, 1 = impl, 2 = proof
	dirs []string
}{
	{"ARM/TrustZone machine model", 0, []string{"internal/arm", "internal/mmu", "internal/mem"}},
	{"Support libraries (SHA-256, sealing, RNG, cycles)", 1, []string{"internal/sha2", "internal/seal", "internal/rng", "internal/cycles"}},
	{"Komodo specification (PageDB, SMC/SVC spec)", 0, []string{"internal/pagedb", "internal/kapi", "internal/spec"}},
	{"Monitor implementation", 1, []string{"internal/monitor", "internal/board"}},
	{"Assembler & enclave programs", 1, []string{"internal/asm", "internal/kasm"}},
	{"Verification harnesses (refinement, NI)", 2, []string{"internal/refine", "internal/ni"}},
	{"Evaluation substrate (OS model, SGX baseline, harness)", 1, []string{"internal/nwos", "internal/sgx", "internal/eval"}},
	{"Public API", 1, []string{"komodo"}},
	{"Tools & examples", 1, []string{"cmd", "examples"}},
	{"Benchmarks", 2, []string{"."}},
}

// componentOf classifies a repo-relative path into (component, role).
// role: 0 = spec, 1 = impl, 2 = proof, -1 = excluded.
func componentOf(rel string) (string, int) {
	dir := filepath.ToSlash(filepath.Dir(rel))
	for _, c := range components {
		for _, d := range c.dirs {
			if dir == d || strings.HasPrefix(dir, d+"/") {
				if strings.HasSuffix(rel, "_test.go") {
					return c.name, 2
				}
				return c.name, c.role
			}
		}
	}
	return "", -1
}

// CountLines walks the module rooted at root and produces the Table 2
// analogue. Lines are physical source lines excluding blanks and
// comment-only lines (the paper counts "physical lines of code, excluding
// comments and whitespace").
func CountLines(root string) ([]LocRow, error) {
	byComp := make(map[string]*LocRow)
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			name := info.Name()
			if name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		comp, roleIdx := componentOf(rel)
		if roleIdx < 0 {
			return nil
		}
		n, err := countFile(path)
		if err != nil {
			return err
		}
		row, ok := byComp[comp]
		if !ok {
			row = &LocRow{Component: comp}
			byComp[comp] = row
		}
		switch roleIdx {
		case 0:
			row.Spec += n
		case 1:
			row.Impl += n
		case 2:
			row.Proof += n
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]LocRow, 0, len(byComp))
	for _, r := range byComp {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Component < rows[j].Component })
	return rows, nil
}

// countFile counts non-blank, non-comment-only lines. Block comments are
// tracked across lines; the heuristic ignores /* */ inside string
// literals, which is fine for a line-count summary.
func countFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	n := 0
	inBlock := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if inBlock {
			if idx := strings.Index(line, "*/"); idx >= 0 {
				inBlock = false
				line = strings.TrimSpace(line[idx+2:])
			} else {
				continue
			}
		}
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		if strings.HasPrefix(line, "/*") {
			if !strings.Contains(line, "*/") {
				inBlock = true
			}
			continue
		}
		n++
	}
	return n, sc.Err()
}

// PaperTable2Rows returns the paper's own Table 2, for side-by-side
// reporting.
func PaperTable2Rows() []LocRow {
	return []LocRow{
		{"ARM model", 1174, 112, 985},
		{"Dafny libraries", 588, 0, 806},
		{"SHA-256, SHA-HMAC", 250, 415, 3200},
		{"Komodo common", 775, 358, 3078},
		{"SMC handler", 591, 1082, 4493},
		{"SVC handler", 204, 612, 2509},
		{"Other exceptions", 39, 131, 940},
		{"Noninterference", 175, 0, 2644},
		{"Assembly printer", 0, 650, 0},
	}
}

// WriteTable2 prints the Table 2 analogue of the module at root, the
// trusted core's non-test lines, and the paper's Table 2 beside them.
func WriteTable2(w io.Writer, root string) error {
	rows, err := CountLines(root)
	if err != nil {
		return err
	}
	core, err := CoreLines(root)
	if err != nil {
		return err
	}
	row := func(r LocRow) {
		fmt.Fprintf(w, "%-56s %8d %8d %8d %8d\n", r.Component, r.Spec, r.Impl, r.Proof, r.Spec+r.Impl+r.Proof)
	}
	table := func(rows []LocRow) {
		fmt.Fprintf(w, "%-56s %8s %8s %8s %8s\n", "Component", "spec", "impl", "proof", "total")
		t := LocRow{Component: "Total"}
		for _, r := range rows {
			row(r)
			t.Spec, t.Impl, t.Proof = t.Spec+r.Spec, t.Impl+r.Impl, t.Proof+r.Proof
		}
		row(t)
	}
	fmt.Fprintln(w, "Line counts of this reproduction (non-blank, non-comment lines):")
	table(rows)
	fmt.Fprintf(w, "\nTrusted core (internal/{%s}): %d non-test Go lines,\n", strings.Join(TrustedCore, ","), core)
	fmt.Fprintln(w, "counted like `make loc`'s total (physical lines, comments included).")
	fmt.Fprintln(w, "\nPaper's Table 2 (Dafny/Vale Komodo, for comparison):")
	table(PaperTable2Rows())
	fmt.Fprintln(w, "\nRoles: spec = trusted models (machine model, PageDB, functional spec);")
	fmt.Fprintln(w, "impl = monitor, assembler, enclave programs; proof = refinement +")
	fmt.Fprintln(w, "noninterference harnesses and the entire test suite.")
	return nil
}
