//go:build !amd64

package encrypt

// useAESNI is false off amd64: the AES instructions are bound only there.
const useAESNI = false

// expandKey is a no-op off amd64: the portable kernel keys crypto/aes.
func expandKey(rk *roundKeys, key *[16]byte) {}

// encryptLanes encrypts every 16-byte lane of buf in place.
func (c *CounterMode) encryptLanes(buf []byte) {
	c.encryptLanesPortable(buf)
}
