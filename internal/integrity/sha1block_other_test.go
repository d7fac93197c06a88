//go:build !amd64

package integrity

import "testing"

// setCompression reports whether the requested compression can run: off
// amd64 only the portable one exists.
func setCompression(t testing.TB, shani bool) bool {
	return !shani
}
