//go:build !amd64

package integrity

// useSHANI is false off amd64: the SHA extensions are bound only there.
const useSHANI = false

// block folds every whole 64-byte block of p into h.
func block(h *[5]uint32, p []byte) {
	blockGeneric(h, p)
}
