//go:build !race

package server

// allocFree reports a build in which Save's allocations can be counted;
// see allocfree_no_test.go.
const allocFree = true
