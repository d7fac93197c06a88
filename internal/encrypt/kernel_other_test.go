//go:build !amd64

package encrypt

import "testing"

// setKernel reports whether the requested kernel can run: off amd64 only
// the portable one exists.
func setKernel(t testing.TB, aesni bool) bool {
	return !aesni
}
