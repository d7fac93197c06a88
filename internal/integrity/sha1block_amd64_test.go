package integrity

import "testing"

// setCompression points block at the SHA-NI compression (shani) or the
// portable one until t ends. It reports false when the CPU lacks the SHA
// extensions and shani is asked for.
func setCompression(t testing.TB, shani bool) bool {
	if shani && !haveSHANI {
		return false
	}
	old := useSHANI
	useSHANI = shani
	t.Cleanup(func() { useSHANI = old })
	return true
}
