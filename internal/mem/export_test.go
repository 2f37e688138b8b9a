package mem

// AllocatedPages counts the pages p's page tables hold, for tests outside
// the package.
func AllocatedPages(p *Physical) int {
	n := 0
	for _, pages := range [][]*page{p.ins.pages, p.sec.pages} {
		for _, pg := range pages {
			if pg != nil {
				n++
			}
		}
	}
	return n
}
