package chaos

import (
	"fmt"

	"aisebmt/internal/attack"
	"aisebmt/internal/layout"
	"aisebmt/internal/shard"
)

// Memory-bus injection rides on the attack package: the injector is the
// paper's §3 adversary pointed at one shard's off-chip memory. Every
// injection fetches a fresh memory handle from the pool, because a
// completed repair swaps the shard's controller (and with it the memory
// the old handle pointed at).

// injector tampers with a live pool's untrusted memory.
type injector struct {
	pool *shard.Pool
}

// bitflipData flips bit `bit` of the data block at shard-local address
// local on shard sh — ciphertext corruption on the bus or DIMM.
func (in *injector) bitflipData(sh int, local layout.Addr, bit int) error {
	m := in.pool.UntrustedMemory(sh)
	if m == nil {
		return fmt.Errorf("chaos: shard %d has no memory handle", sh)
	}
	attack.New(m).Spoof(local, bit)
	return nil
}

// bitflipRegion flips bit `bit` of block blockIdx inside the named
// region ("counters", "datamacs", "tree", ...) of shard sh's memory —
// metadata corruption rather than data corruption.
func (in *injector) bitflipRegion(sh int, region string, blockIdx int, bit int) error {
	m := in.pool.UntrustedMemory(sh)
	if m == nil {
		return fmt.Errorf("chaos: shard %d has no memory handle", sh)
	}
	for _, r := range m.Regions() {
		if r.Name != region {
			continue
		}
		addr := r.Base + layout.Addr(blockIdx)*layout.BlockSize
		if !r.Contains(addr) {
			return fmt.Errorf("chaos: block %d outside region %q (%d bytes)", blockIdx, region, r.Size)
		}
		attack.New(m).Spoof(addr, bit)
		return nil
	}
	return fmt.Errorf("chaos: shard %d has no region %q", sh, region)
}

// recorder returns an adversary positioned over shard sh's current
// memory, for record-then-replay rollback attacks. The recording spans
// the whole shard memory — data, counters, MACs and tree nodes roll
// back together, the strongest self-consistent rollback. The handle is
// only valid until the next repair swaps the controller.
func (in *injector) recorder(sh int) (*attack.Adversary, error) {
	m := in.pool.UntrustedMemory(sh)
	if m == nil {
		return nil, fmt.Errorf("chaos: shard %d has no memory handle", sh)
	}
	adv := attack.New(m)
	adv.RecordRange(0, m.Size())
	return adv, nil
}
