//go:build !race

package obs

// allocFree reports a build in which Traced's allocations can be
// counted; see allocfree_no_test.go.
const allocFree = true
