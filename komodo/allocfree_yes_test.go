//go:build !race

package komodo_test

// allocFree reports a build in which a SHA-256 compression allocates
// nothing; see allocfree_no_test.go.
const allocFree = true
