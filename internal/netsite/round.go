package netsite

import (
	"context"
	"encoding/binary"
	"fmt"
	"strconv"
	"time"

	"distreach/internal/graph"
	"distreach/internal/obs"
)

// Query rounds. Every query — a single reach, distance or regex query, or
// a whole batch — is one round: one request frame to each site, one final
// answer frame back from each. The coordinator hands each final to the
// query's round sink the moment it arrives. Reach queries and reach
// batches feed it into an incremental equation system (bes.Add keeps the
// dependency-graph reachability up to date, bes.Decide is O(1)) and report
// the query decided once the answers so far prove it true: a positive
// certificate is a closed chain of equations, each a sound implication at
// the round's (epoch, LSN), so no absent site can retract it. Proving
// false needs every site's equations, and distance and regex queries have
// no incremental solver, so those rounds wait for every final. With
// anytime on (SetAnytime), a decided round returns at once and cancels
// its stragglers with 'C' frames.
//
// Rounds are strict: the first final of an attempt pins its (epoch, LSN);
// a final from a different state aborts the attempt (cancelling every
// site still working) and the round retries with backoff against the
// settled deployment. Answers therefore only ever combine equations from
// one consistent deployment state.

// encodeReachRequest packs qr(s,t): s u32 | t u32.
func encodeReachRequest(s, t graph.NodeID) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint32(b, uint32(s))
	binary.LittleEndian.PutUint32(b[4:], uint32(t))
	return b
}

// decodeReachRequest is the inverse of encodeReachRequest. Any other
// length is rejected so the codec stays an identity under fuzzing.
func decodeReachRequest(p []byte) (s, t graph.NodeID, err error) {
	if len(p) != 8 {
		return 0, 0, fmt.Errorf("qr payload of %d bytes, want 8", len(p))
	}
	return graph.NodeID(binary.LittleEndian.Uint32(p)), graph.NodeID(binary.LittleEndian.Uint32(p[4:])), nil
}

// roundSink consumes one site's final answer body in a query round. It
// reports decided=true once the finals received so far determine the
// answer; an error fails the round.
type roundSink func(site int, body []byte) (decided bool, err error)

// Epoch-split retry tuning: how often a query round is retried when its
// sites answered from different states, and the backoff between attempts.
// The backoff matters: an immediate retry lands inside the same rebalance
// or update burst that split the round, while a short exponential pause
// lets the new state finish propagating to every site's worker.
const (
	epochRetries      = 8
	epochRetryBackoff = time.Millisecond
)

// queryRound runs one query round — the only path query frames take —
// retrying attempts that straddle a live rebalance or update broadcast.
// Partial answers are Boolean equations over the fragmentation and graph
// the site evaluated on; composing them across two fragmentations (or
// across an update that landed on only some replicas) would be
// meaningless, so a split attempt is thrown away and re-posted. newSink is
// called once per attempt and returns that attempt's sink, so every
// attempt decodes into fresh state.
func (c *Coordinator) queryRound(ctx context.Context, kind byte, payload []byte, qt *qtrace, newSink func() roundSink) (WireStats, error) {
	var total WireStats
	backoff := epochRetryBackoff
	for attempt := 0; ; attempt++ {
		rqt := qt
		if qt != nil {
			roundID := qt.b.StartSpan(qt.par, "round", obs.Attr{Key: "attempt", Val: strconv.Itoa(attempt)})
			rqt = qt.child(roundID)
		}
		st, split, err := c.roundAttempt(ctx, kind, payload, rqt, newSink())
		if qt != nil {
			qt.b.End(rqt.par)
		}
		total.add(st)
		if err != nil || split == "" {
			return total, err
		}
		if attempt+1 >= epochRetries {
			return total, fmt.Errorf("%w (%s after %d attempts)", ErrEpochSplit, split, attempt+1)
		}
		select {
		case <-ctx.Done():
			return total, ctx.Err()
		case <-time.After(backoff):
		}
		backoff *= 2
	}
}

// roundAttempt posts the query to every site and feeds each final, in
// arrival order, to sink. It returns when every final is in, when sink has
// decided and anytime is on, or on the first failure. split is non-empty
// (and err nil) when a final carried a different (epoch, LSN) than the
// first. Whatever the exit, no pending-table entry outlives the attempt:
// every site still owing a final is dropped and sent a 'C' frame, and a
// late final is drained by the read loop.
//
// With qt non-nil the frame ships inside a 'T' trace envelope naming a
// per-site rpc span, sites answer 't' frames carrying their recorded
// spans, and the spans are grafted into qt's trace anchored at this
// coordinator's post instant — no site wall clock is ever trusted. A
// settled attempt is reported to the guarantee auditor when one is
// attached.
func (c *Coordinator) roundAttempt(ctx context.Context, kind byte, payload []byte, qt *qtrace, sink roundSink) (st WireStats, split string, err error) {
	id := c.nextID.Add(1)
	start := time.Now()
	n := len(c.conns)
	replies := make(chan wireReply, n) // one reply per site, so delivery never blocks
	owing := make([]bool, n)           // posted, final not yet in
	var rpcIDs []uint64
	var anchors []time.Time
	if qt != nil {
		rpcIDs = make([]uint64, n)
		anchors = make([]time.Time, n)
	}
	aud := c.getAuditor()
	var round obs.AuditRound
	if aud != nil {
		round = obs.AuditRound{Query: kindLabel(kind), Frames: make([]int64, n),
			RespBytes: make([]int64, n), EvalNs: make([]int64, n)}
	}

	// cancel drops every site still owing a final and sends it a 'C' frame;
	// straggled marks an early decision, charged to the straggler histogram.
	cancel := func(straggled bool) {
		for i, sc := range c.conns {
			if !owing[i] {
				continue
			}
			owing[i] = false
			if qt != nil {
				qt.b.End(rpcIDs[i], obs.Attr{Key: "cancelled", Val: "true"})
			}
			if m := sc.cancel(id); m > 0 {
				st.BytesSent += int64(m)
				st.CancelFrames++
				c.any.cancels.Add(1)
			}
			if straggled {
				c.any.stragglers[i].Add(1)
			}
		}
	}
	fail := func(e error) (WireStats, string, error) {
		cancel(false)
		st.RoundTrip = time.Since(start)
		return st, "", e
	}

	for i, sc := range c.conns {
		wireKind, wirePayload := kind, payload
		if qt != nil {
			rpcIDs[i] = qt.b.StartSpan(qt.par, "rpc", obs.Attr{Key: "site", Val: strconv.Itoa(i)})
			wireKind = kindTraced
			wirePayload = encodeTraced(qt.id, rpcIDs[i], kind, payload)
			anchors[i] = time.Now()
		}
		m, perr := sc.post(id, wireKind, wirePayload, replies)
		if perr != nil {
			if qt != nil {
				qt.b.End(rpcIDs[i])
			}
			return fail(fmt.Errorf("site %d: %w", i, perr))
		}
		owing[i] = true
		st.BytesSent += int64(m)
		st.FramesSent++
		if aud != nil {
			round.Frames[i] = 1
		}
	}

	var epoch, lsn uint64
	for got := 0; got < n; {
		var r wireReply
		select {
		case <-ctx.Done():
			return fail(fmt.Errorf("netsite: %w", ctx.Err()))
		case r = <-replies:
		}
		owing[r.site] = false
		got++
		if !r.lost {
			st.BytesReceived += int64(r.n)
			st.FramesReceived++
		}
		res := c.result(r)
		if qt != nil {
			if res.spans != nil {
				qt.b.AttachRemote(rpcIDs[r.site], r.site, anchors[r.site], res.spans)
			}
			qt.b.End(rpcIDs[r.site])
		}
		if res.err != nil {
			return fail(res.err)
		}
		if got == 1 {
			epoch, lsn = res.epoch, res.lsn
			st.Epoch, st.LSN = epoch, lsn
		} else if res.epoch != epoch || res.lsn != lsn {
			cancel(false)
			st.RoundTrip = time.Since(start)
			return st, fmt.Sprintf("site %d at epoch %d lsn %d, round at epoch %d lsn %d",
				r.site, res.epoch, res.lsn, epoch, lsn), nil
		}
		if aud != nil {
			round.RespBytes[r.site] = int64(len(res.payload))
			round.EvalNs[r.site] = evalDurNs(res.spans)
		}
		decided, serr := sink(r.site, res.payload)
		if serr != nil {
			return fail(serr)
		}
		if decided && got < n && c.anytime.Load() {
			st.FirstAnswer = time.Since(start)
			st.EarlyTerminated = true
			c.any.earlyTerms.Add(1)
			cancel(true)
			break
		}
	}
	st.RoundTrip = time.Since(start)
	if !st.EarlyTerminated {
		st.FirstAnswer = st.RoundTrip
	}
	if aud != nil {
		aud.Observe(round)
	}
	return st, "", nil
}

// evalDurNs extracts the site's "eval" span duration from a traced reply.
func evalDurNs(spans []obs.WireSpan) int64 {
	for i := range spans {
		if spans[i].Name == "eval" {
			return int64(spans[i].DurNs)
		}
	}
	return 0
}
