package netsite

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"distreach/internal/automaton"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/graph"
	"distreach/internal/obs"
	"distreach/internal/oplog"
)

// errCancelled marks a request abandoned after a 'C' frame: a cancelled
// request owes no response at all, so the worker writes nothing.
var errCancelled = errors.New("netsite: request cancelled")

// defaultWorkers bounds the per-connection worker pool when SiteOptions
// leaves Workers zero: enough to keep a multiplexing coordinator busy
// without letting one connection monopolize the site.
const defaultWorkers = 8

// SiteOptions tunes a Site at construction time.
type SiteOptions struct {
	// Workers bounds the per-connection worker pool: how many frames from
	// one coordinator connection evaluate concurrently. 0 means the
	// default (8).
	Workers int
	// Delay adds an artificial pause before each local evaluation. It
	// emulates slower sites (WAN deployments, loaded machines) and gives
	// tests a deterministic per-query service time; 0 disables it.
	Delay time.Duration
	// Store, if set, makes the site durable: every applied update batch
	// (live or replayed) is appended to the store's log, and snapshots are
	// written every SnapshotEvery batches (truncating the log behind
	// them). A restarted site recovers from the store (oplog.Recover) and
	// catch-up replication streams only what it missed while down.
	Store *oplog.Store
	// SnapshotEvery is the local checkpoint cadence in applied batches;
	// 0 disables periodic snapshots (the log grows until truncated by an
	// installed snapshot).
	SnapshotEvery int
	// Metrics, if set, receives the site's own request telemetry (frame
	// counts by kind, queue-wait and evaluation histograms) — what a
	// standalone cmd/site process serves at its /metrics endpoint. Sites
	// may share one registry; the families are registered idempotently.
	Metrics *obs.Registry
}

// siteMetrics is the per-site instrument set, non-nil only when
// SiteOptions.Metrics was given.
type siteMetrics struct {
	frames *obs.CounterVec // by request kind
	errs   *obs.Counter
	queue  *obs.Histogram    // seconds a frame waited for a worker
	eval   *obs.HistogramVec // seconds one local evaluation took, by kind
}

func newSiteMetrics(r *obs.Registry) *siteMetrics {
	return &siteMetrics{
		frames: r.CounterVec("site_frames_total", "Request frames served, by kind.", "kind"),
		errs:   r.Counter("site_frame_errors_total", "Request frames answered with an error frame."),
		queue:  r.Histogram("site_queue_wait_seconds", "Seconds a frame waited for a worker.", nil),
		eval:   r.HistogramVec("site_eval_seconds", "Seconds one local evaluation took, by kind.", "kind", nil),
	}
}

// Site serves one fragment index over TCP. Create with NewSiteFor (or
// NewSite for a bare fragment without update support), then Addr gives the
// dial address for the coordinator; Close shuts the listener down. Frames
// arriving on one connection are evaluated concurrently by a bounded
// worker pool, so a coordinator multiplexing many queries over the
// connection is served in parallel, not one frame at a time.
//
// A site built with NewSiteFor (or NewSiteReplica) holds a Replica of the
// whole fragmentation and accepts update, rebalance and sync frames:
// queries snapshot the replica's current state, evaluate under its read
// lock (so a mutation never tears a fragment mid-evaluation), and stamp
// their answer with the epoch and update-log LSN they evaluated at; a
// rebalance builds the next fragmentation while queries keep flowing and
// swaps it in atomically; sync frames stream the update-log suffix (or a
// whole snapshot) into a replica that fell behind. In-process sites
// created by ServeFragmentation share one Replica, which makes broadcast
// updates and rebalances idempotent across them.
type Site struct {
	rep     *fragment.Replica  // nil: bare fragment, updates rejected
	bare    *fragment.Fragment // set iff rep is nil
	fragID  int
	ln      net.Listener
	workers int
	delay   time.Duration

	store     *oplog.Store
	snapEvery int
	persistMu sync.Mutex // orders replica apply + log append across workers
	met       *siteMetrics

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	// Logf, if set, receives connection-level errors (default: dropped).
	// Set it before the first coordinator connects.
	Logf func(format string, args ...any)
}

// NewSite starts serving f on addr ("127.0.0.1:0" picks a free port) with
// default options. The site has no fragmentation replica, so it rejects
// update and rebalance frames; prefer NewSiteFor for live deployments.
func NewSite(addr string, f *fragment.Fragment) (*Site, error) {
	return NewSiteOpts(addr, f, SiteOptions{})
}

// NewSiteOpts starts serving f on addr with explicit options and no update
// support (see NewSite).
func NewSiteOpts(addr string, f *fragment.Fragment, o SiteOptions) (*Site, error) {
	return newSite(addr, nil, f, f.ID, o)
}

// NewSiteFor starts serving fragment fragID of fr on addr. The site wraps
// fr in its own Replica of the deployment, which enables update and
// rebalance frames.
func NewSiteFor(addr string, fr *fragment.Fragmentation, fragID int, o SiteOptions) (*Site, error) {
	if fragID < 0 || fragID >= fr.Card() {
		return nil, fmt.Errorf("netsite: fragment %d out of range [0,%d)", fragID, fr.Card())
	}
	return newSite(addr, fragment.NewReplica(fr), nil, fragID, o)
}

// NewSiteReplica starts serving fragment fragID of the given shared
// replica on addr. Sites sharing one Replica (the in-process deployment
// of ServeFragmentation) apply broadcast updates and rebalances once
// between them.
func NewSiteReplica(addr string, rep *fragment.Replica, fragID int, o SiteOptions) (*Site, error) {
	fr, _ := rep.Current()
	if fragID < 0 || fragID >= fr.Card() {
		return nil, fmt.Errorf("netsite: fragment %d out of range [0,%d)", fragID, fr.Card())
	}
	return newSite(addr, rep, nil, fragID, o)
}

func newSite(addr string, rep *fragment.Replica, bare *fragment.Fragment, fragID int, o SiteOptions) (*Site, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netsite: %w", err)
	}
	workers := o.Workers
	if workers <= 0 {
		workers = defaultWorkers
	}
	s := &Site{
		rep:       rep,
		bare:      bare,
		fragID:    fragID,
		ln:        ln,
		workers:   workers,
		delay:     o.Delay,
		store:     o.Store,
		snapEvery: o.SnapshotEvery,
		conns:     make(map[net.Conn]struct{}),
	}
	if o.Metrics != nil {
		s.met = newSiteMetrics(o.Metrics)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr reports the address the site listens on.
func (s *Site) Addr() string { return s.ln.Addr().String() }

// Close stops the site and its connections.
func (s *Site) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Site) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Site) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			if err := s.serveConn(conn); err != nil {
				s.logf("netsite: connection ended: %v", err)
			}
		}()
	}
}

// frameJob is one request frame awaiting evaluation. cancel, non-nil for
// query kinds, is the flag a later 'C' frame flips; the evaluator polls it
// at cooperative checkpoints. A frame that arrived inside a 'T' envelope
// has traced set (kind/payload are the unwrapped inner query) and carries
// a span recorder anchored at recv, the frame-receipt instant.
type frameJob struct {
	id      uint32
	kind    byte
	payload []byte
	cancel  *atomic.Bool
	traced  bool
	recv    time.Time
	rec     *obs.Recorder
}

// connCancels is one connection's registry of in-flight cancellable
// requests. The reader registers query frames before queueing them and
// fires 'C' frames inline — a cancel thus overtakes queued work even when
// every worker is busy. Workers remove entries when their job finishes
// (or was skipped); a 'C' for a finished request finds no entry and is a
// no-op, as the protocol requires.
type connCancels struct {
	mu sync.Mutex
	m  map[uint32]*atomic.Bool
}

func (c *connCancels) register(id uint32) *atomic.Bool {
	flag := new(atomic.Bool)
	c.mu.Lock()
	c.m[id] = flag
	c.mu.Unlock()
	return flag
}

func (c *connCancels) fire(id uint32) {
	c.mu.Lock()
	if flag, ok := c.m[id]; ok {
		flag.Store(true)
	}
	c.mu.Unlock()
}

func (c *connCancels) remove(id uint32) {
	c.mu.Lock()
	delete(c.m, id)
	c.mu.Unlock()
}

// serveConn handles one coordinator connection: a reader feeds request
// frames to a bounded pool of workers, each answering with a response
// frame that echoes the request ID and carries the epoch and update-log
// LSN the frame was served at. Responses go out in completion order; the
// coordinator's demultiplexer reorders by ID. Cancel frames are handled by
// the reader itself (never queued). Every request gets at most one
// response frame; a cancelled one gets none.
func (s *Site) serveConn(conn net.Conn) error {
	jobs := make(chan frameJob)
	cancels := connCancels{m: make(map[uint32]*atomic.Bool)}
	var (
		wmu    sync.Mutex  // serializes whole response frames
		broken atomic.Bool // a response write failed; drain without writing
		wg     sync.WaitGroup
	)
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if j.cancel != nil && j.cancel.Load() {
					cancels.remove(j.id)
					continue // cancelled while queued; no response owed
				}
				if broken.Load() {
					if j.cancel != nil {
						cancels.remove(j.id)
					}
					continue // connection died; don't evaluate dead work
				}
				j := j
				if j.traced {
					j.rec = obs.NewRecorder(j.recv)
					j.rec.Span(-1, "queue", j.recv, time.Now())
				}
				if s.met != nil {
					s.met.frames.With(kindLabel(j.kind)).Inc()
					s.met.queue.Observe(time.Since(j.recv).Seconds())
				}
				epoch, lsn, resp, err := s.handle(j)
				if j.cancel != nil {
					cancels.remove(j.id)
				}
				if errors.Is(err, errCancelled) {
					continue // a cancelled request owes no response
				}
				kind := byte(kindAnswer)
				if err != nil {
					kind, resp = kindError, []byte(err.Error())
					if s.met != nil {
						s.met.errs.Inc()
					}
				} else {
					tagged := make([]byte, answerPrefix, answerPrefix+len(resp))
					binary.LittleEndian.PutUint64(tagged, epoch)
					binary.LittleEndian.PutUint64(tagged[8:], lsn)
					if j.rec != nil {
						// Piggyback the recorded spans on the final answer:
						// tag | spans | body, under the 't' kind so the
						// coordinator knows to split them back out. Errors
						// stay plain 'E' frames — untraced, like before.
						kind = kindTracedAnswer
						resp = encodeTracedAnswer(tagged, j.rec.Wire(), resp)
					} else {
						resp = append(tagged, resp...)
					}
				}
				wmu.Lock()
				_, werr := writeFrame(conn, j.id, kind, resp)
				wmu.Unlock()
				if werr != nil {
					// Poison the connection: the reader unblocks with an
					// error, and remaining jobs drain without writing.
					broken.Store(true)
					conn.Close()
				}
			}
		}()
	}
	var err error
	for {
		id, kind, payload, _, rerr := readFrame(conn)
		if rerr != nil {
			err = rerr // includes clean EOF on coordinator close
			break
		}
		recv := time.Now()
		if kind == kindCancel {
			cancels.fire(id)
			continue
		}
		traced := false
		if kind == kindTraced {
			// Unwrap the trace envelope here so cancellation registers under
			// the inner query kind; a malformed envelope keeps kind = 'T'
			// and the worker answers 'E' for it. The envelope's trace and
			// parent-span IDs never leave the coordinator — sites record
			// spans relative to the rpc span implicitly (parent index -1).
			if _, _, inner, innerPayload, derr := decodeTraced(payload); derr == nil {
				kind, payload, traced = inner, innerPayload, true
			}
		}
		var flag *atomic.Bool
		switch kind {
		case kindReach, kindDist, kindRPQ, kindBatch:
			flag = cancels.register(id)
		}
		jobs <- frameJob{id: id, kind: kind, payload: payload, cancel: flag, traced: traced, recv: recv}
	}
	close(jobs)
	wg.Wait()
	return err
}

// pause sleeps the site's artificial service delay in short slices so a
// cancel frame cuts the wait short; it reports false when cancelled.
func (s *Site) pause(cancel *atomic.Bool) bool {
	if s.delay <= 0 {
		return true
	}
	if cancel == nil {
		time.Sleep(s.delay)
		return true
	}
	deadline := time.Now().Add(s.delay)
	for {
		if cancel.Load() {
			return false
		}
		left := time.Until(deadline)
		if left <= 0 {
			return true
		}
		if left > time.Millisecond {
			left = time.Millisecond
		}
		time.Sleep(left)
	}
}

// snapshot resolves the fragmentation and fragment this frame evaluates
// against, plus the epoch and LSN to stamp the answer with. Bare sites
// have no replica: epoch 0, LSN 0, no fragmentation lock to take.
func (s *Site) snapshot() (*fragment.Fragment, *fragment.Fragmentation, uint64, uint64) {
	if s.rep == nil {
		return s.bare, nil, 0, 0
	}
	fr, epoch, lsn := s.rep.State()
	return fr.Fragments()[s.fragID], fr, epoch, lsn
}

// handle evaluates one request frame. A request whose cancel flag fires
// mid-evaluation returns errCancelled: no response frame is written for it.
func (s *Site) handle(j frameJob) (uint64, uint64, []byte, error) {
	kind, payload := j.kind, j.payload
	if !s.pause(j.cancel) {
		return 0, 0, nil, errCancelled
	}
	switch kind {
	case kindUpdate:
		return s.handleUpdate(payload)
	case kindRebalance:
		return s.handleRebalance(payload)
	case kindSync:
		return s.handleSync(payload)
	case kindTraced:
		// The reader failed to unwrap this envelope; reject it like any
		// malformed payload.
		return 0, 0, nil, errTracedPayload
	}
	// Queries snapshot the current fragmentation and read their fragment
	// under its lock, so a concurrent update never mutates it
	// mid-evaluation and a concurrent rebalance swap leaves this
	// evaluation draining consistently against the old epoch.
	f, fr, epoch, lsn := s.snapshot()
	if fr != nil {
		lockStart := time.Now()
		fr.RLock()
		defer fr.RUnlock()
		if j.rec != nil {
			j.rec.Span(-1, "lock", lockStart, time.Now())
		}
	}
	var opt *core.Options
	if j.cancel != nil || j.rec != nil {
		opt = &core.Options{}
		if j.cancel != nil {
			opt.Cancel = j.cancel.Load
		}
	}
	var met *core.EvalMetrics
	if j.rec != nil {
		met = &core.EvalMetrics{}
		opt.Metrics = met
	}
	if j.rec != nil || s.met != nil {
		evalStart := time.Now()
		defer func() {
			end := time.Now()
			if j.rec != nil {
				j.rec.Span(-1, "eval", evalStart, end, evalAttrs(met)...)
			}
			if s.met != nil {
				s.met.eval.With(kindLabel(kind)).Observe(end.Sub(evalStart).Seconds())
			}
		}()
	}
	switch kind {
	case kindReach:
		src, dst, err := decodeReachRequest(payload)
		if err != nil {
			return 0, 0, nil, err
		}
		rv := core.LocalEvalReach(f, src, dst, opt)
		if rv == nil {
			return 0, 0, nil, errCancelled
		}
		b, err := rv.MarshalBinary()
		return epoch, lsn, b, err
	case kindDist:
		if len(payload) < 12 {
			return 0, 0, nil, fmt.Errorf("short qbr payload")
		}
		src := graph.NodeID(binary.LittleEndian.Uint32(payload))
		dst := graph.NodeID(binary.LittleEndian.Uint32(payload[4:]))
		l := int(binary.LittleEndian.Uint32(payload[8:]))
		rv := core.LocalEvalDist(f, src, dst, l)
		b, err := rv.MarshalBinary()
		return epoch, lsn, b, err
	case kindRPQ:
		if len(payload) < 8 {
			return 0, 0, nil, fmt.Errorf("short qrr payload")
		}
		src := graph.NodeID(binary.LittleEndian.Uint32(payload))
		dst := graph.NodeID(binary.LittleEndian.Uint32(payload[4:]))
		var a automaton.Automaton
		if err := a.UnmarshalBinary(payload[8:]); err != nil {
			return 0, 0, nil, err
		}
		rv := core.LocalEvalRPQ(f, src, dst, &a)
		b, err := rv.MarshalBinary()
		return epoch, lsn, b, err
	case kindBatch:
		b, err := s.handleBatch(f, payload, opt, j.cancel)
		return epoch, lsn, b, err
	default:
		return 0, 0, nil, fmt.Errorf("unknown request kind %q", kind)
	}
}

// evalAttrs renders one evaluation's equation counters as eval-span
// attributes, headed by the overall reachability-index outcome: hit
// (every index consult answered), fallback (every consult fell back to
// BFS — stale entry or over-budget component), mixed, or off (no
// equation consulted an index at all).
func evalAttrs(met *core.EvalMetrics) []obs.Attr {
	fell := met.StaleEqs + met.OverBudgetEqs
	outcome := "off"
	switch {
	case met.IndexedEqs > 0 && fell == 0:
		outcome = "hit"
	case met.IndexedEqs > 0:
		outcome = "mixed"
	case fell > 0:
		outcome = "fallback"
	}
	return []obs.Attr{
		{Key: "reachindex_outcome", Val: outcome},
		{Key: "eqs_indexed", Val: strconv.FormatInt(met.IndexedEqs, 10)},
		{Key: "eqs_bfs", Val: strconv.FormatInt(met.BFSEqs, 10)},
		{Key: "eqs_alias", Val: strconv.FormatInt(met.AliasEqs, 10)},
		{Key: "eqs_const", Val: strconv.FormatInt(met.ConstEqs, 10)},
		{Key: "eqs_stale", Val: strconv.FormatInt(met.StaleEqs, 10)},
		{Key: "eqs_overbudget", Val: strconv.FormatInt(met.OverBudgetEqs, 10)},
	}
}

// applyPersisted runs one sequenced batch through the replica and, when
// the site is durable, logs the slot (applied or deterministically
// rejected — both advance the order) and takes a periodic checkpoint. The
// persist mutex keeps the log's LSN sequence aligned with the replica's
// when a live update and a catch-up replay interleave.
func (s *Site) applyPersisted(lsn, nonce uint64, ops []Op) (fragment.ApplyResult, bool, error) {
	if s.store != nil {
		s.persistMu.Lock()
		defer s.persistMu.Unlock()
	}
	res, advanced, err := s.rep.ApplyLSN(lsn, nonce, ops)
	if advanced && s.store != nil {
		if perr := s.store.Log().Append(oplog.Record{LSN: lsn, Ops: ops}); perr != nil {
			s.logf("netsite: oplog append of batch %d failed: %v", lsn, perr)
		} else if s.snapEvery > 0 && lsn >= s.store.SnapshotLSN()+uint64(s.snapEvery) {
			// The periodic checkpoint is a designated compaction point:
			// fold the accumulated mutation overlays back into the flat
			// CSR bases before freezing the state. Compaction renumbers
			// slots and retires the reachability indexes, so when they are
			// enabled, wait out the rebuilds — a checkpoint that carries
			// the index section hands a restarted site warm indexes.
			if fr, _ := s.rep.Current(); fr != nil {
				fr.Compact()
				if fr.ReachIndexBudget() > 0 {
					fr.WaitReachIndexes()
				}
			}
			if snap, serr := oplog.TakeSnapshot(s.rep); serr != nil {
				s.logf("netsite: snapshot at batch %d failed: %v", lsn, serr)
			} else if serr := s.store.SaveSnapshot(snap); serr != nil {
				s.logf("netsite: snapshot at batch %d failed: %v", lsn, serr)
			}
		}
	}
	return res, advanced, err
}

// handleUpdate applies one sequenced mutation batch to the site's replica
// and reports what changed from its point of view, including the
// post-update balance stats. The mutation locks out query evaluation
// internally (writers exclude the read lock queries take), the LSN orders
// the batch against every other writer's, and re-delivered frames replay
// the recorded outcome.
func (s *Site) handleUpdate(payload []byte) (uint64, uint64, []byte, error) {
	if s.rep == nil {
		return 0, 0, nil, fmt.Errorf("site serves a bare fragment; updates unsupported")
	}
	lsn, nonce, ops, err := decodeUpdateRequest(payload)
	if err != nil {
		return 0, 0, nil, err
	}
	res, _, err := s.applyPersisted(lsn, nonce, ops)
	if err != nil {
		return 0, 0, nil, err
	}
	fr, epoch, at := s.rep.State()
	return epoch, at, encodeUpdateReply(res.Changed, res.Dirty, res.NewIDs, fr.BalanceStats()), nil
}

// handleRebalance re-fragments the site's replica at the requested epoch.
// The rebuild happens under the old fragmentation's read lock — queries
// keep flowing the whole time — and the swap is atomic; replicas already
// at (or past) the epoch no-op, which makes the broadcast idempotent both
// for co-located sites sharing a replica and for re-delivered frames.
func (s *Site) handleRebalance(payload []byte) (uint64, uint64, []byte, error) {
	if s.rep == nil {
		return 0, 0, nil, fmt.Errorf("site serves a bare fragment; rebalance unsupported")
	}
	epoch, k, seed, name, err := decodeRebalanceRequest(payload)
	if err != nil {
		return 0, 0, nil, err
	}
	p, err := fragment.ByName(name, seed)
	if err != nil {
		return 0, 0, nil, err
	}
	cur, _ := s.rep.Current()
	if k != cur.Card() {
		return 0, 0, nil, fmt.Errorf("rebalance wants %d fragments, deployment has %d sites", k, cur.Card())
	}
	applied, err := s.rep.Rebalance(epoch, p)
	if err != nil {
		return 0, 0, nil, err
	}
	fr, at, lsn := s.rep.State()
	return at, lsn, encodeRebalanceReply(at, applied, fr.Fingerprint(), fr.BalanceStats()), nil
}

// handleBatch evaluates a whole batch frame against the fragment in one
// pass and returns one partial answer per query. Reach queries sharing a
// target share their in-node equations (those are source-independent): the
// per-target local evaluation runs once however many queries ask for it,
// AND its result ships once, as a shared reply section the queries
// reference — each query's own slot carries only its source equation.
// Distance and regex queries evaluate individually. The frame's service
// delay (Site.delay) is paid once per batch, not once per query — the
// amortization the batch protocol exists to deliver. The cancel flag is
// polled between queries and inside the local evaluations.
func (s *Site) handleBatch(frag *fragment.Fragment, payload []byte, opt *core.Options, cancel *atomic.Bool) ([]byte, error) {
	qs, err := decodeBatchRequest(payload)
	if err != nil {
		return nil, err
	}
	cancelled := func() bool { return cancel != nil && cancel.Load() }
	parts := make([][]byte, len(qs))
	refs := make([]uint32, len(qs))
	var shared [][]byte
	sectionOf := make(map[graph.NodeID]uint32) // target -> 1+section index
	for i, q := range qs {
		if cancelled() {
			return nil, errCancelled
		}
		switch q.Class {
		case ClassReach:
			ref, ok := sectionOf[q.T]
			if !ok {
				base := core.LocalEvalReach(frag, graph.None, q.T, opt)
				if base == nil {
					return nil, errCancelled
				}
				sb, err := base.MarshalBinary()
				if err != nil {
					return nil, err
				}
				shared = append(shared, sb)
				ref = uint32(len(shared))
				sectionOf[q.T] = ref
			}
			refs[i] = ref
			own := core.SourceOnlyReach(frag, q.S, q.T, opt)
			if own == nil && cancelled() {
				return nil, errCancelled
			}
			if own != nil {
				if parts[i], err = own.MarshalBinary(); err != nil {
					return nil, err
				}
			}
		case ClassDist:
			rv := core.LocalEvalDist(frag, q.S, q.T, q.L)
			if parts[i], err = rv.MarshalBinary(); err != nil {
				return nil, err
			}
		case ClassRPQ:
			rv := core.LocalEvalRPQ(frag, q.S, q.T, q.A)
			if parts[i], err = rv.MarshalBinary(); err != nil {
				return nil, err
			}
		default:
			// Unreachable: decodeBatchRequest rejects unknown classes.
			return nil, fmt.Errorf("unknown batch query class %q", byte(q.Class))
		}
	}
	return encodeBatchReply(shared, refs, parts), nil
}

// ServeFragmentation is a convenience that starts one Site per fragment on
// loopback ports and returns the sites plus their addresses. The sites
// share one Replica, so broadcast updates and rebalances apply once.
// Callers must Close every site.
func ServeFragmentation(fr *fragment.Fragmentation) ([]*Site, []string, error) {
	return ServeFragmentationOpts(fr, SiteOptions{})
}

// ServeFragmentationOpts is ServeFragmentation with explicit site options.
func ServeFragmentationOpts(fr *fragment.Fragmentation, o SiteOptions) ([]*Site, []string, error) {
	rep := fragment.NewReplica(fr)
	return ServeReplica(rep, o)
}

// ServeReplica starts one Site per fragment of the given shared replica on
// loopback ports — ServeFragmentation for a replica recovered from a
// store (oplog.Recover) rather than built fresh.
func ServeReplica(rep *fragment.Replica, o SiteOptions) ([]*Site, []string, error) {
	fr, _ := rep.Current()
	sites := make([]*Site, 0, fr.Card())
	addrs := make([]string, 0, fr.Card())
	for _, f := range fr.Fragments() {
		s, err := NewSiteReplica("127.0.0.1:0", rep, f.ID, o)
		if err != nil {
			for _, prev := range sites {
				prev.Close()
			}
			return nil, nil, err
		}
		sites = append(sites, s)
		addrs = append(addrs, s.Addr())
	}
	return sites, addrs, nil
}
