package netsite

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"distreach/internal/fragment"
)

// Live re-fragmentation over the wire. A rebalance frame ('R', request
// direction) tells every site to re-fragment the deployment at a new
// epoch: each replica re-runs the named partitioner over its current graph
// — deterministically, so independent replicas arrive at the same
// fragmentation — and atomically swaps it in. Queries in flight keep
// draining against the fragmentation they started with; the epoch tag on
// every answer frame lets the coordinator detect (and retry) the rare
// round that straddled the swap, so no query ever combines partial answers
// from two epochs. The fragment count is preserved: sites keep serving
// their fragment index, just with a new node assignment behind it.
//
// Rebalance request payload (little-endian):
//
//	epoch u64 | k u32 | seed u64 | nlen u8 | partitioner name
//
// Rebalance response payload:
//
//	epoch u64 (the replica's epoch after handling the frame) |
//	applied u8 (1 when this site performed the rebuild) |
//	fingerprint u64 (digest of graph + assignment; see
//	fragment.Fingerprint) | balance stats (as in the update reply)

// ErrReplicaDiverged reports that sites ended a rebalance round at the
// same epoch but with different fragmentation fingerprints. When the
// requested epoch was not fresh (some replica no-opped with an older
// build), a retry at a higher epoch forces every replica to rebuild and
// settles the question; a divergence that survives a forced rebuild means
// a replica's graph state genuinely differs (it restarted from stale
// files and missed updates) and needs re-seeding.
var ErrReplicaDiverged = errors.New("netsite: replica state diverged")

// RebalanceResult reports the outcome of a rebalance round.
type RebalanceResult struct {
	// Epoch is the deployment epoch after the round.
	Epoch uint64
	// Applied is false when no site rebuilt — the deployment had already
	// reached (or passed) the requested epoch.
	Applied bool
	// Stats is the balance of the post-rebalance fragmentation.
	Stats fragment.BalanceStats
}

// encodeRebalanceRequest packs one rebalance command.
func encodeRebalanceRequest(epoch uint64, k int, seed uint64, name string) ([]byte, error) {
	if len(name) == 0 || len(name) > 0xFF {
		return nil, fmt.Errorf("netsite: partitioner name of %d bytes out of range [1,255]", len(name))
	}
	b := binary.LittleEndian.AppendUint64(nil, epoch)
	b = binary.LittleEndian.AppendUint32(b, uint32(k))
	b = binary.LittleEndian.AppendUint64(b, seed)
	b = append(b, byte(len(name)))
	b = append(b, name...)
	return b, nil
}

// decodeRebalanceRequest is the inverse of encodeRebalanceRequest,
// hardened against hostile payloads.
func decodeRebalanceRequest(p []byte) (epoch uint64, k int, seed uint64, name string, err error) {
	r := &batchReader{b: p}
	if epoch, err = r.u64(); err != nil {
		return 0, 0, 0, "", err
	}
	ku, err := r.u32()
	if err != nil {
		return 0, 0, 0, "", err
	}
	if seed, err = r.u64(); err != nil {
		return 0, 0, 0, "", err
	}
	nlen, err := r.u8()
	if err != nil {
		return 0, 0, 0, "", err
	}
	if nlen == 0 {
		return 0, 0, 0, "", fmt.Errorf("netsite: rebalance frame with empty partitioner name")
	}
	nb, err := r.bytes(uint32(nlen))
	if err != nil {
		return 0, 0, 0, "", err
	}
	if err := r.done(); err != nil {
		return 0, 0, 0, "", err
	}
	return epoch, int(ku), seed, string(nb), nil
}

// encodeRebalanceReply packs one site's view of a handled rebalance.
func encodeRebalanceReply(epoch uint64, applied bool, fp uint64, bs fragment.BalanceStats) []byte {
	b := binary.LittleEndian.AppendUint64(nil, epoch)
	if applied {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.LittleEndian.AppendUint64(b, fp)
	return appendBalanceStats(b, bs)
}

// decodeRebalanceReply is the inverse of encodeRebalanceReply.
func decodeRebalanceReply(p []byte) (epoch uint64, applied bool, fp uint64, bs fragment.BalanceStats, err error) {
	r := &batchReader{b: p}
	if epoch, err = r.u64(); err != nil {
		return 0, false, 0, bs, err
	}
	ap, err := r.u8()
	if err != nil {
		return 0, false, 0, bs, err
	}
	if ap > 1 {
		return 0, false, 0, bs, fmt.Errorf("netsite: rebalance reply applied flag %d", ap)
	}
	if fp, err = r.u64(); err != nil {
		return 0, false, 0, bs, err
	}
	if bs, err = readBalanceStats(r); err != nil {
		return 0, false, 0, bs, err
	}
	if err := r.done(); err != nil {
		return 0, false, 0, bs, err
	}
	return epoch, ap == 1, fp, bs, nil
}

// Rebalance re-fragments the deployment at the given epoch using the
// named partitioner (see fragment.ByName) parameterized by seed. The
// round is serialized against update rounds, so no mutation batch ever
// straddles the epoch switch from this coordinator. Sites that already
// reached the epoch no-op (idempotent broadcast); if every site had
// already passed it, Applied is false and Epoch reports where the
// deployment actually is — callers retry with a higher epoch.
func (c *Coordinator) Rebalance(epoch uint64, partitioner string, seed uint64) (RebalanceResult, WireStats, error) {
	return c.RebalanceContext(context.Background(), epoch, partitioner, seed)
}

// RebalanceContext is Rebalance honoring a context deadline or
// cancellation. Prefer a generous deadline: the sites rebuild the whole
// fragmentation before answering.
func (c *Coordinator) RebalanceContext(ctx context.Context, epoch uint64, partitioner string, seed uint64) (RebalanceResult, WireStats, error) {
	c.updMu.Lock()
	defer c.updMu.Unlock()
	return c.rebalanceLocked(ctx, epoch, partitioner, seed)
}

// rebalanceLocked is RebalanceContext with the round lock already held
// (SyncReplicas realigns epochs mid-sync through it).
func (c *Coordinator) rebalanceLocked(ctx context.Context, epoch uint64, partitioner string, seed uint64) (RebalanceResult, WireStats, error) {
	if _, err := fragment.ByName(partitioner, seed); err != nil {
		return RebalanceResult{}, WireStats{}, err
	}
	payload, err := encodeRebalanceRequest(epoch, len(c.conns), seed, partitioner)
	if err != nil {
		return RebalanceResult{}, WireStats{}, err
	}
	results, st := c.roundtripAll(ctx, kindRebalance, payload)
	for _, r := range results {
		if r.err != nil {
			return RebalanceResult{}, st, r.err
		}
	}
	var res RebalanceResult
	var fp0, maxEpoch uint64
	split, diverged := false, -1
	for i, r := range results {
		e, applied, fp, bs, err := decodeRebalanceReply(r.payload)
		if err != nil {
			return RebalanceResult{}, st, fmt.Errorf("netsite: site %d reply: %w", i, err)
		}
		if e > maxEpoch {
			maxEpoch = e
		}
		if i == 0 {
			res.Epoch, res.Stats, fp0 = e, bs, fp
		} else if e != res.Epoch {
			split = true
		} else if fp != fp0 && diverged < 0 {
			diverged = i
		}
		res.Applied = res.Applied || applied
	}
	// Either mismatch means the replicas are not serving one coherent
	// fragmentation. Both report the highest epoch observed so the caller
	// can retry at a strictly fresher epoch, forcing every replica to
	// rebuild: a retry settles a stale-epoch straggler, while a mismatch
	// that survives a forced rebuild is genuine graph divergence (a
	// replica restarted from stale files) that needs re-seeding.
	if split {
		return RebalanceResult{Epoch: maxEpoch}, st, fmt.Errorf("%w (sites ended rebalance at different epochs, max %d)", ErrReplicaDiverged, maxEpoch)
	}
	if diverged >= 0 {
		return RebalanceResult{Epoch: maxEpoch}, st, fmt.Errorf("%w (site %d fingerprint differs at epoch %d)", ErrReplicaDiverged, diverged, res.Epoch)
	}
	res.Stats.Epoch = res.Epoch
	st.Epoch = res.Epoch
	return res, st, nil
}
