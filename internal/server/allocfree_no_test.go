//go:build race

package server

// allocFree is false under the race detector, which compiles the standard
// library without its append(b, make([]byte, n)...) optimisation, so
// growing a slice allocates a temporary as large as the growth.
// Allocation counts are asserted in every other build.
const allocFree = false
