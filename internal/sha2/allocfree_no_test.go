//go:build race

package sha2

// allocFree is false under the race detector, which compiles the standard
// library without its append(b, make([]byte, n)...) optimisation, so
// crypto/sha256's AppendBinary allocates. Allocation counts are asserted
// in every other build.
const allocFree = false
