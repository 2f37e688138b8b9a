//go:build !race

package seal

// allocFree reports a build in which a SHA-256 compression allocates
// nothing; see allocfree_no_test.go.
const allocFree = true
