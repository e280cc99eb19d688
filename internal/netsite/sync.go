package netsite

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"distreach/internal/fragment"
	"distreach/internal/oplog"
)

// Catch-up replication over the wire. A sync frame ('S') carries one of
// four sub-requests, selected by the first payload byte:
//
//	'h' hello:    (empty) — where does the replica stand?
//	'r' replay:   count u32 | per record: lsn u64 | ops (oplog codec) —
//	              apply this update-log suffix in order
//	's' snapshot: snapshot bytes (oplog codec) — install this checkpoint
//	'f' fetch:    (empty) — encode your current state as a snapshot
//
// Replies ride inside the (epoch, lsn)-prefixed answer frame:
//
//	'h': fingerprint u64
//	'r': applied u32 | fingerprint u64
//	's': installed u8 | fingerprint u64
//	'f': snapshot bytes
//
// The coordinator drives the protocol (SyncReplicas): it asks every site
// where it stands, streams the update-log delta to the ones that fell
// behind — or pushes a whole snapshot when the log no longer reaches back
// far enough, fetching one from an up-to-date replica if it has none —
// realigns epochs with a forced rebalance when they diverge, and verifies
// that every replica ends at the same (LSN, epoch, fingerprint). This is
// what replaces "re-seed the stale site by hand": a site restarted from
// old files rejoins the deployment automatically and no query ever
// combines its stale partials with fresh ones in the meantime (the LSN
// tag on every answer guards that).

// Sync sub-request kinds (first payload byte of an 'S' frame).
const (
	syncHello    = 'h'
	syncReplay   = 'r'
	syncSnapshot = 's'
	syncFetch    = 'f'
)

// maxSyncRecords bounds one replay frame's declared record count.
const maxSyncRecords = 1 << 16

// replayChunk is how many records one replay frame carries at most; a
// long catch-up streams several frames.
const replayChunk = 512

// encodeSyncReplay packs a contiguous run of log records.
func encodeSyncReplay(recs []oplog.Record) ([]byte, error) {
	b := []byte{syncReplay}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(recs)))
	var err error
	for _, rec := range recs {
		b = binary.LittleEndian.AppendUint64(b, rec.LSN)
		if b, err = oplog.AppendOps(b, rec.Ops); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// decodeSyncReplay is the inverse of encodeSyncReplay (after the sub-kind
// byte), hardened against hostile payloads.
func decodeSyncReplay(p []byte) ([]oplog.Record, error) {
	r := oplog.NewCursor(p)
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	if n > maxSyncRecords || uint64(n)*12 > uint64(r.Remaining()+12) {
		return nil, fmt.Errorf("netsite: implausible replay record count %d", n)
	}
	recs := make([]oplog.Record, 0, n)
	for i := 0; i < int(n); i++ {
		lsn, err := r.U64()
		if err != nil {
			return nil, err
		}
		ops, err := oplog.ReadOps(r)
		if err != nil {
			return nil, err
		}
		recs = append(recs, oplog.Record{LSN: lsn, Ops: ops})
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return recs, nil
}

// handleSync serves one 'S' frame against the site's replica.
func (s *Site) handleSync(payload []byte) (uint64, uint64, []byte, error) {
	if s.rep == nil {
		return 0, 0, nil, fmt.Errorf("site serves a bare fragment; sync unsupported")
	}
	if len(payload) < 1 {
		return 0, 0, nil, fmt.Errorf("empty sync payload")
	}
	sub, body := payload[0], payload[1:]
	switch sub {
	case syncHello:
		if len(body) != 0 {
			return 0, 0, nil, fmt.Errorf("sync hello carries %d unexpected bytes", len(body))
		}
		fr, epoch, lsn := s.rep.State()
		return epoch, lsn, binary.LittleEndian.AppendUint64(nil, fr.Fingerprint()), nil
	case syncReplay:
		recs, err := decodeSyncReplay(body)
		if err != nil {
			return 0, 0, nil, err
		}
		applied := 0
		for _, rec := range recs {
			_, advanced, err := s.applyPersisted(rec.LSN, 0, rec.Ops)
			if advanced {
				applied++
				continue
			}
			if err != nil {
				if errors.Is(err, fragment.ErrReplicaBehind) {
					return 0, 0, nil, fmt.Errorf("replay gap: %w", err)
				}
				// A stale record (already applied, outside the window) is
				// redundant re-delivery, not a failure.
				continue
			}
		}
		fr, epoch, lsn := s.rep.State()
		resp := binary.LittleEndian.AppendUint32(nil, uint32(applied))
		resp = binary.LittleEndian.AppendUint64(resp, fr.Fingerprint())
		return epoch, lsn, resp, nil
	case syncSnapshot:
		snap, err := oplog.DecodeSnapshot(body)
		if err != nil {
			return 0, 0, nil, err
		}
		if snap.Fr.Card() != s.currentCard() {
			return 0, 0, nil, fmt.Errorf("snapshot has %d fragments, deployment has %d", snap.Fr.Card(), s.currentCard())
		}
		installed := s.rep.Install(snap.Fr, snap.Epoch, snap.LSN)
		if installed && s.store != nil {
			s.persistMu.Lock()
			if err := s.store.SaveSnapshot(snap); err != nil {
				s.logf("netsite: persisting installed snapshot failed: %v", err)
			}
			s.persistMu.Unlock()
		}
		fr, epoch, lsn := s.rep.State()
		resp := []byte{0}
		if installed {
			resp[0] = 1
		}
		resp = binary.LittleEndian.AppendUint64(resp, fr.Fingerprint())
		return epoch, lsn, resp, nil
	case syncFetch:
		if len(body) != 0 {
			return 0, 0, nil, fmt.Errorf("sync fetch carries %d unexpected bytes", len(body))
		}
		// Serving a snapshot (gateway checkpoint or a peer catching up) is
		// a compaction point too: the encode walks the whole state anyway.
		// With indexing on, wait out the rebuilds compaction just kicked so
		// the snapshot's index section covers every fragment — the receiver
		// then serves indexed answers from its first round instead of
		// rebuilding what we already built (the parallel builder keeps this
		// wait short).
		if fr, _ := s.rep.Current(); fr != nil {
			fr.Compact()
			if fr.ReachIndexBudget() > 0 {
				fr.WaitReachIndexes()
			}
		}
		snap, err := oplog.TakeSnapshot(s.rep)
		if err != nil {
			return 0, 0, nil, err
		}
		b, err := oplog.EncodeSnapshot(snap)
		if err != nil {
			return 0, 0, nil, err
		}
		return snap.Epoch, snap.LSN, b, nil
	default:
		return 0, 0, nil, fmt.Errorf("unknown sync sub-request %q", sub)
	}
}

func (s *Site) currentCard() int {
	fr, _ := s.rep.Current()
	return fr.Card()
}

// replicaState is one site's position as reported by a sync hello.
type replicaState struct {
	LSN         uint64
	Epoch       uint64
	Fingerprint uint64
}

// helloAll asks every site where it stands. A non-nil wire accumulates
// the hello round's frame and byte counts — sync traffic used to vanish
// from the accounting entirely.
func (c *Coordinator) helloAll(ctx context.Context, wire *WireStats) ([]replicaState, error) {
	states := make([]replicaState, len(c.conns))
	results, hst := c.roundtripAll(ctx, kindSync, []byte{syncHello})
	if wire != nil {
		wire.add(hst)
	}
	for i, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		if len(r.payload) != 8 {
			return nil, fmt.Errorf("netsite: site %d hello reply of %d bytes", i, len(r.payload))
		}
		states[i] = replicaState{LSN: r.lsn, Epoch: r.epoch, Fingerprint: binary.LittleEndian.Uint64(r.payload)}
	}
	return states, nil
}

// SyncOptions configures one catch-up round.
type SyncOptions struct {
	// Log is the deployment's write-ahead log: the replay source. nil
	// means no replay is possible — laggards are caught up by snapshot
	// transfer only.
	Log *oplog.Log
	// Snapshot, if set, supplies a locally stored checkpoint (the
	// gateway's snapshot file). When a laggard is too far behind for the
	// log, this is tried before fetching a snapshot from a peer replica.
	Snapshot func() (*oplog.Snapshot, bool)
	// Partitioner and Seed drive the forced rebalance that realigns
	// epochs when replicas report different ones after catch-up. Empty
	// partitioner defaults to "edgecut".
	Partitioner string
	Seed        uint64
}

// SyncReport summarizes one catch-up round.
type SyncReport struct {
	LSN         uint64 // deployment LSN every replica ended at
	Epoch       uint64 // deployment epoch every replica ended at
	Fingerprint uint64
	Laggards    int   // sites that needed catch-up
	Replayed    int   // log records streamed
	Snapshots   int   // snapshot installs
	Bytes       int64 // payload bytes shipped to catch laggards up
	Rebalanced  bool

	// WireSent and WireReceived are the full wire cost of the round —
	// every hello, replay, snapshot and realign frame, with framing
	// overhead — as opposed to Bytes, which counts only catch-up
	// payloads. They close the 'S'-traffic gap in the accounting: the
	// gateway folds them into its transferred-bytes totals.
	WireSent     int64
	WireReceived int64
}

// syncAttempts bounds how many hello→catch-up passes one SyncReplicas call
// makes: under live churn a pass can complete with a site one batch
// behind again, so the loop re-checks until the deployment holds still.
const syncAttempts = 5

// SyncReplicas brings every replica to the same state: update-log position
// (streaming the missed suffix from o.Log, or a whole snapshot when the
// log has been truncated past a laggard — from o.Snapshot or fetched off
// the most advanced replica), epoch (a forced rebalance realigns
// divergent epochs), and finally fingerprint. A fingerprint mismatch that
// survives all of that is genuine divergence and fails with
// ErrReplicaDiverged. Serialized against this coordinator's update and
// rebalance rounds.
func (c *Coordinator) SyncReplicas(ctx context.Context, o SyncOptions) (rep SyncReport, err error) {
	if o.Partitioner == "" {
		o.Partitioner = "edgecut"
	}
	c.updMu.Lock()
	defer c.updMu.Unlock()
	var wire WireStats
	defer func() { rep.WireSent, rep.WireReceived = wire.BytesSent, wire.BytesReceived }()
	for attempt := 0; attempt < syncAttempts; attempt++ {
		states, err := c.helloAll(ctx, &wire)
		if err != nil {
			return rep, err
		}
		target := uint64(0)
		for _, st := range states {
			if st.LSN > target {
				target = st.LSN
			}
		}
		if o.Log != nil && o.Log.LastLSN() > target {
			// The write-ahead log is ahead of every replica: a batch was
			// logged but its broadcast failed. Re-deliver it.
			target = o.Log.LastLSN()
		}
		// Adopt the deployment's position so this coordinator's next update
		// extends the order (and a durable sequencer fast-forwards its log).
		if err := c.Sequencer().Advance(target); err != nil {
			return rep, err
		}
		behind := make([]int, 0)
		for i, st := range states {
			if st.LSN < target {
				behind = append(behind, i)
			}
		}
		if attempt == 0 {
			rep.Laggards = len(behind)
		}
		// One snapshot serves every laggard of this pass: fetching (and
		// encoding) a graph-sized checkpoint per site would be k-1 times
		// redundant.
		var fetched *oplog.Snapshot
		for _, i := range behind {
			n, snaps, bytes, err := c.catchUp(ctx, i, states[i].LSN, target, o, states, &fetched, &wire)
			if err != nil {
				return rep, err
			}
			rep.Replayed += n
			rep.Snapshots += snaps
			rep.Bytes += bytes
		}
		// Re-check: everyone at one LSN now?
		states, err = c.helloAll(ctx, &wire)
		if err != nil {
			return rep, err
		}
		split := false
		for _, st := range states[1:] {
			if st.LSN != states[0].LSN {
				split = true
				break
			}
		}
		if split {
			continue // live churn moved the target; take another pass
		}
		// Epoch realign: a replica that missed rebalances while down sits at
		// an older epoch with an older assignment. One forced rebalance at a
		// strictly fresh epoch makes every replica rebuild deterministically
		// over graphs that now agree; its fingerprint cross-check settles
		// whether they truly converged.
		maxEpoch, epochSplit, fpSplit := states[0].Epoch, false, false
		for _, st := range states[1:] {
			if st.Epoch != states[0].Epoch {
				epochSplit = true
			}
			if st.Fingerprint != states[0].Fingerprint {
				fpSplit = true
			}
			if st.Epoch > maxEpoch {
				maxEpoch = st.Epoch
			}
		}
		if epochSplit || fpSplit {
			if _, rst, err := c.rebalanceLocked(ctx, maxEpoch+1, o.Partitioner, o.Seed+maxEpoch+1); err != nil {
				return rep, err
			} else {
				wire.add(rst)
			}
			rep.Rebalanced = true
			states, err = c.helloAll(ctx, &wire)
			if err != nil {
				return rep, err
			}
			ok := true
			for _, st := range states[1:] {
				if st != states[0] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
		}
		rep.LSN, rep.Epoch, rep.Fingerprint = states[0].LSN, states[0].Epoch, states[0].Fingerprint
		return rep, nil
	}
	return rep, fmt.Errorf("%w (replicas did not settle after %d catch-up passes)", ErrReplicaDiverged, syncAttempts)
}

// catchUp brings one site from lsn up to target: by log replay when the
// log reaches back far enough, otherwise by snapshot (local checkpoint,
// the pass's already-fetched one, or one fetched from the most advanced
// peer — cached into *fetched for the pass's other laggards) plus the log
// suffix after it.
func (c *Coordinator) catchUp(ctx context.Context, site int, lsn, target uint64, o SyncOptions, states []replicaState, fetched **oplog.Snapshot, wire *WireStats) (replayed, snapshots int, bytes int64, err error) {
	// Fast path: the log covers everything the site missed.
	if o.Log != nil {
		recs, ok, err := o.Log.ReadFrom(lsn + 1)
		if err != nil {
			return 0, 0, 0, err
		}
		if ok {
			n, b, err := c.replayTo(ctx, site, recs, wire)
			return n, 0, b, err
		}
	}
	// Snapshot path: a local checkpoint, or one fetched from the most
	// advanced replica.
	var snap *oplog.Snapshot
	if o.Snapshot != nil {
		if s, ok := o.Snapshot(); ok && s.LSN > lsn {
			snap = s
		}
	}
	if f := *fetched; snap == nil || !c.logReaches(o.Log, snap.LSN+1, target) {
		if f != nil && f.LSN > lsn {
			snap = f
		} else {
			best, bestLSN := -1, lsn
			for i, st := range states {
				if i != site && st.LSN > bestLSN {
					best, bestLSN = i, st.LSN
				}
			}
			if best < 0 {
				return 0, 0, 0, fmt.Errorf("netsite: site %d is at LSN %d and no log, snapshot or peer reaches %d", site, lsn, target)
			}
			body, _, _, err := c.postOne(ctx, best, kindSync, []byte{syncFetch}, wire)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("netsite: fetching snapshot from site %d: %w", best, err)
			}
			bytes += int64(len(body))
			if snap, err = oplog.DecodeSnapshot(body); err != nil {
				return 0, 0, bytes, fmt.Errorf("netsite: snapshot from site %d: %w", best, err)
			}
			*fetched = snap
		}
	}
	sb, err := oplog.EncodeSnapshot(snap)
	if err != nil {
		return 0, 0, bytes, err
	}
	payload := append([]byte{syncSnapshot}, sb...)
	if _, _, _, err := c.postOne(ctx, site, kindSync, payload, wire); err != nil {
		return 0, 0, bytes, fmt.Errorf("netsite: installing snapshot on site %d: %w", site, err)
	}
	snapshots = 1
	bytes += int64(len(payload))
	// Stream whatever the log holds past the snapshot.
	if o.Log != nil {
		if recs, ok, err := o.Log.ReadFrom(snap.LSN + 1); err != nil {
			return 0, snapshots, bytes, err
		} else if ok && len(recs) > 0 {
			n, b, err := c.replayTo(ctx, site, recs, wire)
			return n, snapshots, bytes + b, err
		}
	}
	return 0, snapshots, bytes, nil
}

// logReaches reports whether l holds every record in (from-1, to].
func (c *Coordinator) logReaches(l *oplog.Log, from, to uint64) bool {
	if from > to {
		return true
	}
	if l == nil {
		return false
	}
	_, ok, err := l.ReadFrom(from)
	return ok && err == nil && l.LastLSN() >= to
}

// replayTo streams records to one site in bounded chunks.
func (c *Coordinator) replayTo(ctx context.Context, site int, recs []oplog.Record, wire *WireStats) (int, int64, error) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].LSN < recs[j].LSN })
	sent, bytes := 0, int64(0)
	for len(recs) > 0 {
		chunk := recs
		if len(chunk) > replayChunk {
			chunk = chunk[:replayChunk]
		}
		recs = recs[len(chunk):]
		payload, err := encodeSyncReplay(chunk)
		if err != nil {
			return sent, bytes, err
		}
		if _, _, _, err := c.postOne(ctx, site, kindSync, payload, wire); err != nil {
			return sent, bytes, fmt.Errorf("netsite: replaying %d records to site %d: %w", len(chunk), site, err)
		}
		sent += len(chunk)
		bytes += int64(len(payload))
	}
	return sent, bytes, nil
}

// FetchSnapshot pulls a verified snapshot of the current deployment state
// from the most advanced replica — what the gateway checkpoints to its
// store so the write-ahead log can be truncated.
func (c *Coordinator) FetchSnapshot(ctx context.Context) (*oplog.Snapshot, error) {
	states, err := c.helloAll(ctx, nil)
	if err != nil {
		return nil, err
	}
	best := 0
	for i, st := range states {
		if st.LSN > states[best].LSN {
			best = i
		}
	}
	body, _, _, err := c.postOne(ctx, best, kindSync, []byte{syncFetch}, nil)
	if err != nil {
		return nil, err
	}
	return oplog.DecodeSnapshot(body)
}
