package netsite

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"strconv"

	"distreach/internal/automaton"
	"distreach/internal/bes"
	"distreach/internal/core"
	"distreach/internal/graph"
	"distreach/internal/obs"
	"distreach/internal/oplog"
)

// ErrEpochSplit reports that the sites are serving from different
// deployment states — epochs or update-log positions (LSNs) — and the
// round could not be completed consistently. Transient splits (a query
// racing a rebalance swap or an update broadcast) are retried away
// internally; a persistent split means some replica is out of sync — a
// site restarted from stale files, say — and catch-up replication
// (Coordinator.SyncReplicas, run automatically by the gateway) repairs it.
var ErrEpochSplit = errors.New("netsite: sites answered from different states")

// Coordinator is the site Sc: it holds one TCP connection per worker site
// and evaluates queries by posting them to every site in parallel and
// assembling the returned partial answers. It is safe for concurrent use,
// and concurrent queries are multiplexed over the same connections: each
// query round is tagged with a request ID, sites answer in whatever order
// they finish, and a per-connection reader demultiplexes replies back to
// the waiting queries. Many queries can be in flight at once.
//
// Updates are sequenced: every batch draws a monotonic LSN from the
// coordinator's sequencer (an in-memory one by default; UseSequencer
// attaches a shared or durable one) and replicas apply batches in LSN
// order. Every coordinator and gateway writing to one deployment must
// share one sequencer — that is what gives interleaved writers a single
// total order.
//
// A dropped site connection fails its in-flight queries promptly, then
// heals itself: the coordinator redials in the background with bounded
// exponential backoff, so queries succeed again as soon as the site is
// back — no restart required.
type Coordinator struct {
	conns  []*siteConn
	nextID atomic.Uint32
	updMu  sync.Mutex // serializes update and rebalance rounds locally

	seqMu   sync.Mutex
	seq     *oplog.Sequencer
	seqInit bool // the sequencer has adopted the deployment's LSN

	// siteLSNs tracks the newest LSN each site has answered from — the
	// replica-lag signal /stats and bench report.
	siteLSNs []atomic.Uint64

	// anytime lets a query round return the moment the finals received so
	// far decide it, cancelling the stragglers (default on; see SetAnytime).
	anytime atomic.Bool
	any     anytimeCounters

	// Tracing and guarantee auditing (see SetTraceSink, SetAuditor). A nil
	// sink means queries run untraced — the zero-cost default.
	traceMu   sync.Mutex
	traceSink func(*obs.Trace)
	auditor   *obs.Auditor
	traceSeq  atomic.Uint64
}

// SetTraceSink arms distributed tracing: every subsequent query round is
// posted inside a 'T' trace envelope, sites piggyback their recorded
// spans on the reply frames, and the assembled trace tree is delivered to
// fn when the query finishes. fn must be safe for concurrent use (queries
// finish concurrently); nil disarms tracing.
func (c *Coordinator) SetTraceSink(fn func(*obs.Trace)) {
	c.traceMu.Lock()
	c.traceSink = fn
	c.traceMu.Unlock()
}

// SetAuditor attaches a guarantee auditor: every query round reports its
// per-site frame counts, response volumes, and site-measured evaluation
// times to it (see obs.Auditor). nil detaches.
func (c *Coordinator) SetAuditor(a *obs.Auditor) {
	c.traceMu.Lock()
	c.auditor = a
	c.traceMu.Unlock()
}

func (c *Coordinator) getAuditor() *obs.Auditor {
	c.traceMu.Lock()
	defer c.traceMu.Unlock()
	return c.auditor
}

// qtrace threads one query's trace through the round machinery: the
// shared builder, the trace ID the envelope carries, and the span the
// current level parents its children under. A nil *qtrace everywhere
// means "untraced".
type qtrace struct {
	b   *obs.Builder
	id  uint64
	par uint64
}

// child scopes the trace to a new parent span (e.g. one round attempt).
func (qt *qtrace) child(par uint64) *qtrace {
	return &qtrace{b: qt.b, id: qt.id, par: par}
}

// newQueryTrace starts a trace for one query when a sink is armed. Trace
// IDs are a wall-clock-seeded counter: unique across coordinator
// restarts without coordination, cheap to allocate per query.
func (c *Coordinator) newQueryTrace(name string) *qtrace {
	c.traceMu.Lock()
	armed := c.traceSink != nil
	c.traceMu.Unlock()
	if !armed {
		return nil
	}
	for c.traceSeq.Load() == 0 {
		c.traceSeq.CompareAndSwap(0, uint64(time.Now().UnixNano())<<16)
	}
	id := c.traceSeq.Add(1)
	b := obs.NewBuilder(id, name)
	return &qtrace{b: b, id: id, par: b.Root()}
}

// finishTrace completes a query's trace, stamps the trace ID into the
// query's WireStats, and delivers the tree to the sink.
func (c *Coordinator) finishTrace(qt *qtrace, st *WireStats, err error) {
	if qt == nil {
		return
	}
	if err != nil {
		qt.b.AddSpan(qt.b.Root(), "error", time.Now(), 0, obs.Attr{Key: "error", Val: err.Error()})
	}
	tr := qt.b.Finish()
	st.TraceID = tr.ID
	c.traceMu.Lock()
	sink := c.traceSink
	c.traceMu.Unlock()
	if sink != nil {
		sink(tr)
	}
}

// anytimeCounters accumulates the anytime-protocol telemetry /stats and
// bench report; see AnytimeStats.
type anytimeCounters struct {
	earlyTerms atomic.Int64
	cancels    atomic.Int64
	stragglers []atomic.Int64
}

// AnytimeStats is a snapshot of the anytime-protocol counters since the
// coordinator was dialed.
type AnytimeStats struct {
	// EarlyTerminations counts rounds answered before every site's final
	// frame arrived.
	EarlyTerminations int64
	// CancelsSent counts 'C' frames written (early terminations, aborted
	// split rounds, and context cancellations all cancel their stragglers).
	CancelsSent int64
	// Stragglers counts, per site, the rounds decided before that site's
	// final arrived — a per-site straggler histogram: a site that dominates
	// it is the one slowing full rounds down.
	Stragglers []int64
}

// AnytimeStats reports the anytime-protocol counters.
func (c *Coordinator) AnytimeStats() AnytimeStats {
	st := AnytimeStats{
		EarlyTerminations: c.any.earlyTerms.Load(),
		CancelsSent:       c.any.cancels.Load(),
		Stragglers:        make([]int64, len(c.any.stragglers)),
	}
	for i := range c.any.stragglers {
		st.Stragglers[i] = c.any.stragglers[i].Load()
	}
	return st
}

// SetAnytime decides what a query round does once the site answers
// received so far decide it — a reach query, or an all-reach batch, proved
// true by the fast sites' finals. On (the default), the round returns at
// once and cancels its stragglers with 'C' frames. Off, it waits out every
// site's final, so every round costs the same frames and bytes — the mode
// byte-accounting tests and latency baselines use.
func (c *Coordinator) SetAnytime(on bool) { c.anytime.Store(on) }

// Anytime reports whether anytime answers are enabled.
func (c *Coordinator) Anytime() bool { return c.anytime.Load() }

// pendingTotal sums the pending-table sizes across site connections
// (leak tests).
func (c *Coordinator) pendingTotal() int {
	n := 0
	for _, sc := range c.conns {
		n += sc.pendingCount()
	}
	return n
}

// Reconnect backoff bounds: the first redial happens almost immediately,
// later ones back off exponentially up to the cap.
const (
	redialMin = 25 * time.Millisecond
	redialMax = 2 * time.Second
)

// wireReply is one demultiplexed response frame, or the notice that the
// connection was lost before the request's reply arrived.
type wireReply struct {
	site    int // index of the answering site
	lost    bool
	kind    byte
	payload []byte
	n       int // bytes read off the wire for this frame
}

// siteConn is one multiplexed connection to a worker site: a write mutex
// serializes outgoing frames, a reader goroutine routes response frames to
// the pending query that posted the matching request ID. When the reader
// stops (connection dropped, site closed, corrupt frame) every pending
// query fails promptly with the cause — in-flight queries never hang —
// and a background redial loop reconnects with bounded exponential
// backoff; queries posted while the link is down fail fast with the last
// error.
type siteConn struct {
	site    int // index in Coordinator.conns, stamped on every reply
	addr    string
	timeout time.Duration // dial timeout, initial and redial
	done    chan struct{} // closed by Coordinator.Close; stops redialing

	// Lifetime wire totals for this connection (across redials): every
	// frame written (queries, updates, sync, cancels) and every frame read
	// — including late replies the demultiplexer drains after a round
	// already ended, which per-round WireStats can never see. The pair is
	// the ground truth the accounting cross-check sums against.
	bytesSent     atomic.Int64
	bytesReceived atomic.Int64

	wmu sync.Mutex // serializes whole-frame writes

	mu sync.Mutex
	// conn is nil while the link is down. pending maps each in-flight
	// request ID to the channel its one reply goes to. Whoever removes an
	// entry — the read loop, lost, close or drop — owns its single
	// delivery, and every channel is sized for one reply per site it was
	// posted to, so a delivery never blocks.
	conn      net.Conn
	pending   map[uint32]chan<- wireReply
	err       error // last failure; nil while connected
	closed    bool
	redialing bool
}

func newSiteConn(site int, addr string, conn net.Conn, timeout time.Duration) *siteConn {
	sc := &siteConn{
		site:    site,
		addr:    addr,
		timeout: timeout,
		done:    make(chan struct{}),
		conn:    conn,
		pending: make(map[uint32]chan<- wireReply),
	}
	go sc.readLoop(conn)
	return sc
}

func (sc *siteConn) readLoop(conn net.Conn) {
	for {
		id, kind, payload, n, err := readFrame(conn)
		if err != nil {
			sc.lost(conn, err)
			return
		}
		sc.bytesReceived.Add(int64(n))
		sc.mu.Lock()
		ch, ok := sc.pending[id]
		delete(sc.pending, id)
		sc.mu.Unlock()
		if !ok {
			// A reply with no pending query is dropped: its query already
			// failed on another site's error, timed out, or was cancelled
			// after an early decision — late frames drain here.
			continue
		}
		ch <- wireReply{site: sc.site, kind: kind, payload: payload, n: n}
	}
}

// failPending hands every request in pend its lost-connection notice (the
// waiter reads the cause from sc.err).
func (sc *siteConn) failPending(pend map[uint32]chan<- wireReply) {
	for _, ch := range pend {
		ch <- wireReply{site: sc.site, lost: true}
	}
}

// lost records a connection failure, wakes every pending query, and
// starts the redial loop. Stale incarnations (a write error racing the
// reader's own failure) are ignored.
func (sc *siteConn) lost(conn net.Conn, err error) {
	conn.Close()
	sc.mu.Lock()
	if sc.conn != conn {
		sc.mu.Unlock()
		return // already failed over from this incarnation
	}
	sc.conn = nil
	sc.err = err
	pend := sc.pending
	sc.pending = make(map[uint32]chan<- wireReply)
	redial := !sc.closed && !sc.redialing
	if redial {
		sc.redialing = true
	}
	sc.mu.Unlock()
	sc.failPending(pend)
	if redial {
		go sc.redial()
	}
}

// redial reconnects with bounded exponential backoff until it succeeds or
// the coordinator closes.
func (sc *siteConn) redial() {
	backoff := redialMin
	for {
		select {
		case <-sc.done:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", sc.addr, sc.timeout)
		if err == nil {
			sc.mu.Lock()
			if sc.closed {
				sc.mu.Unlock()
				conn.Close()
				return
			}
			sc.conn = conn
			sc.err = nil
			sc.redialing = false
			sc.mu.Unlock()
			go sc.readLoop(conn)
			return
		}
		sc.mu.Lock()
		sc.err = fmt.Errorf("redial %s: %w", sc.addr, err)
		sc.mu.Unlock()
		select {
		case <-sc.done:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > redialMax {
			backoff = redialMax
		}
	}
}

// post registers id in the pending table and sends the request frame; the
// reply (or a lost-connection notice) is delivered on replies. The
// registration happens before the write so a fast reply can never race
// past its waiter. After an error the caller must not wait for a reply
// from this site.
func (sc *siteConn) post(id uint32, kind byte, payload []byte, replies chan<- wireReply) (int, error) {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return 0, fmt.Errorf("coordinator closed")
	}
	if sc.conn == nil {
		err := sc.err
		sc.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("connection down")
		}
		return 0, err
	}
	conn := sc.conn
	sc.pending[id] = replies
	sc.mu.Unlock()
	sc.wmu.Lock()
	n, err := writeFrame(conn, id, kind, payload)
	sc.wmu.Unlock()
	if err != nil {
		// A failed write may have flushed part of the frame, desyncing the
		// length-prefixed stream: poison this incarnation rather than let
		// later queries parse garbage. The redial loop takes it from here.
		// The entry is dropped first so the failure is reported once, here;
		// only a reader failing at the same instant can still deliver a
		// lost notice for it.
		sc.drop(id)
		sc.lost(conn, err)
		return 0, err
	}
	sc.bytesSent.Add(int64(n))
	return n, nil
}

// drop abandons a pending request (context deadline, cancellation, or an
// early anytime decision): the reply, if it ever arrives, is discarded by
// the read loop.
func (sc *siteConn) drop(id uint32) {
	sc.mu.Lock()
	delete(sc.pending, id)
	sc.mu.Unlock()
}

// cancel drops a pending request and sends the site a best-effort 'C'
// frame so it abandons the evaluation; it reports the bytes written. A
// write failure poisons the connection exactly like a failed post (the
// stream may be desynced).
func (sc *siteConn) cancel(id uint32) int {
	sc.drop(id)
	sc.mu.Lock()
	conn := sc.conn
	sc.mu.Unlock()
	if conn == nil {
		return 0
	}
	sc.wmu.Lock()
	n, err := writeFrame(conn, id, kindCancel, nil)
	sc.wmu.Unlock()
	if err != nil {
		sc.lost(conn, err)
		return 0
	}
	sc.bytesSent.Add(int64(n))
	return n
}

// pendingCount reports the number of in-flight entries (leak tests).
func (sc *siteConn) pendingCount() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.pending)
}

// lastErr reports the current failure, if the link is down.
func (sc *siteConn) lastErr() error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.err
}

// close tears the connection down for good: no redial, pending queries
// fail. Safe to call more than once.
func (sc *siteConn) close() error {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return nil
	}
	close(sc.done)
	sc.closed = true
	conn := sc.conn
	sc.conn = nil
	if sc.err == nil {
		sc.err = fmt.Errorf("coordinator closed")
	}
	pend := sc.pending
	sc.pending = make(map[uint32]chan<- wireReply)
	sc.mu.Unlock()
	sc.failPending(pend)
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// Dial connects to the given site addresses. The coordinator starts with
// a fresh in-memory sequencer; before its first update it adopts the
// deployment's current LSN (a hello round), so it extends the existing
// order. Multiple coordinators writing to one deployment must share a
// sequencer via UseSequencer.
func Dial(addrs []string, timeout time.Duration) (*Coordinator, error) {
	c := &Coordinator{seq: oplog.NewSequencer(0)}
	for _, a := range addrs {
		conn, err := net.DialTimeout("tcp", a, timeout)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("netsite: dial %s: %w", a, err)
		}
		c.conns = append(c.conns, newSiteConn(len(c.conns), a, conn, timeout))
	}
	c.siteLSNs = make([]atomic.Uint64, len(c.conns))
	c.any.stragglers = make([]atomic.Int64, len(c.conns))
	c.anytime.Store(true)
	return c, nil
}

// NumSites reports how many worker sites the coordinator is connected to.
func (c *Coordinator) NumSites() int { return len(c.conns) }

// UseSequencer attaches the sequencer update batches draw their LSNs
// from: the shared (often durable, write-ahead logging) sequencer of the
// deployment. It replaces the private in-memory one Dial installs.
func (c *Coordinator) UseSequencer(s *oplog.Sequencer) {
	c.seqMu.Lock()
	c.seq = s
	c.seqInit = false
	c.seqMu.Unlock()
}

// Sequencer reports the coordinator's current sequencer.
func (c *Coordinator) Sequencer() *oplog.Sequencer {
	c.seqMu.Lock()
	defer c.seqMu.Unlock()
	return c.seq
}

// ReplicaLSNs reports the newest LSN each site has answered from — a lag
// of s.Sequencer().LSN()-min(ReplicaLSNs()) batches means some replica
// has not yet caught up.
func (c *Coordinator) ReplicaLSNs() []uint64 {
	out := make([]uint64, len(c.siteLSNs))
	for i := range c.siteLSNs {
		out[i] = c.siteLSNs[i].Load()
	}
	return out
}

// noteSiteLSN records the newest LSN observed from site i.
func (c *Coordinator) noteSiteLSN(i int, lsn uint64) {
	for {
		cur := c.siteLSNs[i].Load()
		if lsn <= cur || c.siteLSNs[i].CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// WireTotals reports the coordinator's lifetime wire traffic across all
// site connections: every byte written and read since Dial, including
// control frames (cancels, sync catch-up) and late replies drained after
// their round ended. Per-round WireStats necessarily undercounts the
// latter; this pair is what the accounting cross-check and the gateway's
// wire gauges sum against.
func (c *Coordinator) WireTotals() (sent, received int64) {
	for _, sc := range c.conns {
		sent += sc.bytesSent.Load()
		received += sc.bytesReceived.Load()
	}
	return sent, received
}

// Close shuts down all site connections; in-flight queries fail and no
// reconnection is attempted.
func (c *Coordinator) Close() error {
	var first error
	for _, sc := range c.conns {
		if sc != nil {
			if err := sc.close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// WireStats is the on-the-wire accounting of one query round (or one
// whole batch round; see Coordinator.Batch).
type WireStats struct {
	BytesSent      int64         // query frames to all sites (cancel frames included)
	BytesReceived  int64         // response frames from all sites
	FramesSent     int64         // request frames; one per site per round
	FramesReceived int64         // response frames; at most one per site per round
	RoundTrip      time.Duration // slowest site's post+reply wall time

	// PartialFrames is always 0. It counted the advisory 'P' chunk frames
	// of an earlier streaming protocol; every site now answers a query
	// round with exactly one frame.
	//
	// Deprecated: kept so existing readers of the field still compile.
	PartialFrames int64
	// CancelFrames counts 'C' frames sent. It is not included in
	// FramesSent, which keeps its one-per-site-per-round meaning.
	CancelFrames int64

	// FirstAnswer is the elapsed time until the answer was determined: for
	// an early-terminated round, the instant the finals received so far
	// proved it (before the stragglers' finals); otherwise it equals
	// RoundTrip. Across retried rounds it accumulates like RoundTrip.
	FirstAnswer time.Duration

	// EarlyTerminated reports that the round was answered before every
	// site's final frame arrived (the remaining sites were cancelled).
	EarlyTerminated bool

	// Epoch is the deployment epoch every site answered from, and LSN the
	// update-log position. Query rounds enforce agreement on both
	// (retrying the rare round that straddles a live rebalance or update
	// broadcast), so one answer never mixes fragmentation epochs or
	// update states.
	Epoch uint64
	LSN   uint64

	// Touched lists, sorted, the sites (== fragment indices) whose partial
	// answers the query's solution actually depends on — the dependency
	// closure of the source variable (see core.TouchedReach). An answer
	// cache keyed on it can evict precisely when a fragment changes. Nil
	// for rounds without that notion (batches report it per query, updates
	// report a dirty set instead).
	Touched []int

	// TraceID identifies the distributed trace recorded for this query,
	// when tracing was armed (SetTraceSink); 0 otherwise. The gateway
	// returns it to clients so a slow request can be looked up under
	// /trace/<id>.
	TraceID uint64
}

// add accumulates another round's accounting (used when an epoch-split
// round retries: the retried frames and bytes are real traffic).
func (st *WireStats) add(o WireStats) {
	st.BytesSent += o.BytesSent
	st.BytesReceived += o.BytesReceived
	st.FramesSent += o.FramesSent
	st.FramesReceived += o.FramesReceived
	st.RoundTrip += o.RoundTrip
	st.CancelFrames += o.CancelFrames
	st.FirstAnswer += o.FirstAnswer
	st.EarlyTerminated = o.EarlyTerminated
	st.Epoch = o.Epoch
	st.LSN = o.LSN
}

// siteResult is one site's reply in a round, interpreted: either a decoded
// answer (body + the state tag it carried, plus the spans of a traced
// answer) or an error. appErr distinguishes an error *reply* from the site
// (the frame arrived, the site refused) from a connection-level failure
// (the site never saw or never answered the frame).
type siteResult struct {
	payload []byte
	epoch   uint64
	lsn     uint64
	spans   []obs.WireSpan
	err     error
	appErr  bool
}

// result interprets one delivered reply and records the site's LSN.
func (c *Coordinator) result(r wireReply) siteResult {
	i := r.site
	switch {
	case r.lost:
		err := c.conns[i].lastErr()
		if err == nil {
			err = fmt.Errorf("connection closed")
		}
		return siteResult{err: fmt.Errorf("site %d: %w", i, err)}
	case r.kind == kindError:
		return siteResult{err: fmt.Errorf("site %d: %s", i, r.payload), appErr: true}
	case r.kind != kindAnswer && r.kind != kindTracedAnswer:
		return siteResult{err: fmt.Errorf("site %d: unexpected frame kind %q", i, r.kind), appErr: true}
	case len(r.payload) < answerPrefix:
		return siteResult{err: fmt.Errorf("site %d: answer of %d bytes lacks the state tag", i, len(r.payload)), appErr: true}
	}
	res := siteResult{
		payload: r.payload[answerPrefix:],
		epoch:   binary.LittleEndian.Uint64(r.payload),
		lsn:     binary.LittleEndian.Uint64(r.payload[8:]),
	}
	if r.kind == kindTracedAnswer {
		spans, body, err := decodeTracedAnswer(res.payload)
		if err != nil {
			return siteResult{err: fmt.Errorf("site %d: %w", i, err), appErr: true}
		}
		res.spans, res.payload = spans, body
	}
	c.noteSiteLSN(i, res.lsn)
	return res
}

// kindLabel names a query kind for audit rounds and metric labels.
func kindLabel(kind byte) string {
	switch kind {
	case kindReach:
		return "reach"
	case kindDist:
		return "dist"
	case kindRPQ:
		return "rpq"
	case kindBatch:
		return "batch"
	default:
		return string(rune(kind))
	}
}

// roundtripAll posts one frame to every site and collects one response
// from each, reporting per-site outcomes. It serves the control rounds —
// updates, rebalances and sync hellos — whose callers inspect the slice
// (sequenced updates tolerate individual failures: the log re-delivers to
// laggards); query rounds go through queryRound. Concurrent rounds
// interleave freely: each draws a fresh request ID and waits only on its
// own replies. A context deadline or cancellation abandons the round
// promptly.
func (c *Coordinator) roundtripAll(ctx context.Context, kind byte, payload []byte) ([]siteResult, WireStats) {
	id := c.nextID.Add(1)
	start := time.Now()
	results := make([]siteResult, len(c.conns))
	replies := make(chan wireReply, len(c.conns)) // one reply per site
	waiting := make([]bool, len(c.conns))
	var st WireStats
	left := 0
	for i, sc := range c.conns {
		n, err := sc.post(id, kind, payload, replies)
		if err != nil {
			results[i].err = fmt.Errorf("site %d: %w", i, err)
			continue
		}
		st.BytesSent += int64(n)
		st.FramesSent++
		waiting[i] = true
		left++
	}
	for left > 0 {
		select {
		case r := <-replies:
			if !waiting[r.site] {
				continue // a lost notice racing that site's failed post
			}
			waiting[r.site] = false
			left--
			if !r.lost {
				st.BytesReceived += int64(r.n)
				st.FramesReceived++
			}
			results[r.site] = c.result(r)
		case <-ctx.Done():
			for i, sc := range c.conns {
				if waiting[i] {
					sc.drop(id)
					results[i].err = fmt.Errorf("site %d: %w", i, ctx.Err())
				}
			}
			left = 0
		}
	}
	st.RoundTrip = time.Since(start)
	return results, st
}

// postOne posts one frame to a single site and waits for its response —
// the per-site form of roundtripAll used by catch-up replication, whose
// replay payloads differ per site.
func (c *Coordinator) postOne(ctx context.Context, site int, kind byte, payload []byte, st *WireStats) (body []byte, epoch, lsn uint64, err error) {
	if site < 0 || site >= len(c.conns) {
		return nil, 0, 0, fmt.Errorf("netsite: site %d out of range [0,%d)", site, len(c.conns))
	}
	sc := c.conns[site]
	id := c.nextID.Add(1)
	reply := make(chan wireReply, 1)
	n, err := sc.post(id, kind, payload, reply)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("site %d: %w", site, err)
	}
	if st != nil {
		st.BytesSent += int64(n)
		st.FramesSent++
	}
	var r wireReply
	select {
	case r = <-reply:
	case <-ctx.Done():
		sc.drop(id)
		return nil, 0, 0, fmt.Errorf("site %d: %w", site, ctx.Err())
	}
	if st != nil && !r.lost {
		st.BytesReceived += int64(r.n)
		st.FramesReceived++
	}
	res := c.result(r)
	return res.payload, res.epoch, res.lsn, res.err
}

// Reach evaluates qr(s, t) over the connected sites.
func (c *Coordinator) Reach(s, t graph.NodeID) (bool, WireStats, error) {
	return c.ReachContext(context.Background(), s, t)
}

// ReachContext is Reach honoring a context deadline or cancellation. Each
// site's final answer is fed into an incremental equation system as it
// arrives; with anytime on (the default) the round returns the moment the
// answers so far prove s⇝t, cancelling the remaining sites (see
// SetAnytime). A false answer needs every site's equations.
func (c *Coordinator) ReachContext(ctx context.Context, s, t graph.NodeID) (bool, WireStats, error) {
	if s == t {
		return true, WireStats{}, nil
	}
	qt := c.newQueryTrace("reach")
	var sys *bes.System[graph.NodeID]
	var partials []*core.ReachPartial
	st, err := c.queryRound(ctx, kindReach, encodeReachRequest(s, t), qt, func() roundSink {
		sys, partials = bes.New[graph.NodeID](), make([]*core.ReachPartial, len(c.conns))
		return func(site int, body []byte) (bool, error) {
			rv := new(core.ReachPartial)
			if err := rv.UnmarshalBinary(body); err != nil {
				return false, fmt.Errorf("netsite: site %d reply: %w", site, err)
			}
			partials[site] = rv
			rv.AddToSystem(sys)
			return sys.Decide(s), nil
		}
	})
	if err != nil {
		c.finishTrace(qt, &st, err)
		return false, st, err
	}
	solveStart := time.Now()
	// Touched stays sound for an early true: flipping the answer to false
	// requires breaking every path, in particular the certificate chain
	// inside the received equations — whose fragments are exactly the
	// dependency closure computed here.
	st.Touched = core.TouchedReach(partials, s)
	ok := sys.Decide(s)
	c.finishSolve(qt, &st, solveStart, ok)
	return ok, st, nil
}

// finishSolve records the post-round solve span (answer attached) and
// completes the query's trace.
func (c *Coordinator) finishSolve(qt *qtrace, st *WireStats, start time.Time, answer bool) {
	if qt != nil {
		qt.b.AddSpan(qt.b.Root(), "solve", start, time.Since(start),
			obs.Attr{Key: "answer", Val: strconv.FormatBool(answer)})
	}
	c.finishTrace(qt, st, nil)
}

// collect is the round sink of query classes that decide only once every
// site has answered: it decodes each site's final into (*out)[site].
func collect[T any, P interface {
	*T
	UnmarshalBinary([]byte) error
}](n int, out *[]P) func() roundSink {
	return func() roundSink {
		*out = make([]P, n)
		return func(site int, body []byte) (bool, error) {
			p := P(new(T))
			if err := p.UnmarshalBinary(body); err != nil {
				return false, fmt.Errorf("netsite: site %d reply: %w", site, err)
			}
			(*out)[site] = p
			return false, nil
		}
	}
}

// ReachWithin evaluates qbr(s, t, l); it returns the answer and the exact
// distance when within l (bes.Inf otherwise).
func (c *Coordinator) ReachWithin(s, t graph.NodeID, l int) (bool, int64, WireStats, error) {
	return c.ReachWithinContext(context.Background(), s, t, l)
}

// ReachWithinContext is ReachWithin honoring a context deadline or
// cancellation.
func (c *Coordinator) ReachWithinContext(ctx context.Context, s, t graph.NodeID, l int) (bool, int64, WireStats, error) {
	if s == t {
		return l >= 0, 0, WireStats{}, nil
	}
	if l <= 0 {
		return false, bes.Inf, WireStats{}, nil
	}
	qt := c.newQueryTrace("dist")
	payload := make([]byte, 12)
	binary.LittleEndian.PutUint32(payload, uint32(s))
	binary.LittleEndian.PutUint32(payload[4:], uint32(t))
	binary.LittleEndian.PutUint32(payload[8:], uint32(l))
	var partials []*core.DistPartial
	st, err := c.queryRound(ctx, kindDist, payload, qt, collect(len(c.conns), &partials))
	if err != nil {
		c.finishTrace(qt, &st, err)
		return false, bes.Inf, st, err
	}
	solveStart := time.Now()
	st.Touched = core.TouchedDist(partials, s)
	d := core.SolveDist(partials, s)
	c.finishSolve(qt, &st, solveStart, d <= int64(l))
	return d <= int64(l), d, st, nil
}

// ReachRegex evaluates qrr(s, t, R) for the query automaton a.
func (c *Coordinator) ReachRegex(s, t graph.NodeID, a *automaton.Automaton) (bool, WireStats, error) {
	return c.ReachRegexContext(context.Background(), s, t, a)
}

// ReachRegexContext is ReachRegex honoring a context deadline or
// cancellation.
func (c *Coordinator) ReachRegexContext(ctx context.Context, s, t graph.NodeID, a *automaton.Automaton) (bool, WireStats, error) {
	if s == t && a.AcceptsLabels(nil) {
		return true, WireStats{}, nil
	}
	ab, err := a.MarshalBinary()
	if err != nil {
		return false, WireStats{}, err
	}
	qt := c.newQueryTrace("rpq")
	payload := make([]byte, 8, 8+len(ab))
	binary.LittleEndian.PutUint32(payload, uint32(s))
	binary.LittleEndian.PutUint32(payload[4:], uint32(t))
	payload = append(payload, ab...)
	var partials []*core.RPQPartial
	st, err := c.queryRound(ctx, kindRPQ, payload, qt, collect(len(c.conns), &partials))
	if err != nil {
		c.finishTrace(qt, &st, err)
		return false, st, err
	}
	solveStart := time.Now()
	st.Touched = core.TouchedRPQ(partials, s, a.NumStates())
	ok := core.SolveRPQ(partials, s, a)
	c.finishSolve(qt, &st, solveStart, ok)
	return ok, st, nil
}
