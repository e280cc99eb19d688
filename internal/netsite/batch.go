package netsite

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"distreach/internal/automaton"
	"distreach/internal/bes"
	"distreach/internal/core"
	"distreach/internal/graph"
)

// Wire batching: a batch frame ('B') carries many mixed-class queries in
// one payload, and each site answers with a single frame carrying one
// partial answer per query. The per-query visit guarantee thus becomes a
// per-batch guarantee over real connections: k queries over n sites cost
// 2n frames, independent of k.
//
// Batch request payload (little-endian):
//
//	version u8 | flags u8 | count u32 | per query:
//	  class u8 ('r'|'b'|'q') | s u32 | t u32
//	  class 'b' adds: l u32
//	  class 'q' adds: alen u32 | automaton bytes
//
// The flags byte is reserved and must be 0.
//
// Batch response payload:
//
//	version u8 | nshared u32 | per section: slen u32 | bytes
//	           | count u32 | per query: sref u32 | plen u32 | partial bytes
//
// The shared sections deduplicate the reply: reach queries sharing a
// target share their in-node equations (they are independent of the
// source), so the site ships that rvset once as a section and each query
// references it by sref (1+index; 0 means no section) alongside its own
// source equation. However many sources ask about one target, the shared
// equations cross the wire once — mirroring the site already computing
// them once.
//
// Both codecs are hardened against hostile input (fuzzed): every count and
// length is bounds-checked against the remaining buffer and trailing bytes
// are rejected, so a corrupt or adversarial payload yields an error, never
// a panic or an over-allocation.

// QueryClass tags one query in a wire batch with its query class.
type QueryClass byte

// The three query classes of the paper, reusing the single-query frame
// kinds as class tags.
const (
	ClassReach QueryClass = kindReach // qr(s,t)
	ClassDist  QueryClass = kindDist  // qbr(s,t,l)
	ClassRPQ   QueryClass = kindRPQ   // qrr(s,t,R)
)

// BatchQuery is one query in a wire batch.
type BatchQuery struct {
	Class QueryClass
	S, T  graph.NodeID
	L     int                  // distance bound; ClassDist only
	A     *automaton.Automaton // query automaton; ClassRPQ only
}

// BatchAnswer is one query's answer within a batch. Dist is meaningful for
// ClassDist only: the exact distance when Answer is true, bes.Inf
// otherwise (mirroring Coordinator.ReachWithin). Touched mirrors
// WireStats.Touched per query: the sites whose partials the answer
// depends on (nil for locally short-circuited queries).
type BatchAnswer struct {
	Answer  bool
	Dist    int64
	Touched []int
}

// batchVersion versions the batch payload codecs independently of the
// frame layout. Version 2 added the shared per-target sections to the
// reply; version 3 added the request flags byte.
const batchVersion = 3

// maxBatch bounds the declared per-payload query count against hostile
// length prefixes; real batches are orders of magnitude smaller.
const maxBatch = 1 << 20

// batchReader is a bounds-checked cursor over a batch payload.
type batchReader struct {
	b   []byte
	off int
}

func (r *batchReader) u8() (byte, error) {
	if r.off+1 > len(r.b) {
		return 0, fmt.Errorf("netsite: truncated batch payload at offset %d", r.off)
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *batchReader) u16() (uint16, error) {
	if r.off+2 > len(r.b) {
		return 0, fmt.Errorf("netsite: truncated batch payload at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v, nil
}

func (r *batchReader) u32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, fmt.Errorf("netsite: truncated batch payload at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *batchReader) u64() (uint64, error) {
	if r.off+8 > len(r.b) {
		return 0, fmt.Errorf("netsite: truncated batch payload at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *batchReader) bytes(n uint32) ([]byte, error) {
	if uint64(n) > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("netsite: batch payload claims %d bytes, %d remain", n, len(r.b)-r.off)
	}
	v := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return v, nil
}

// version checks the leading version byte.
func (r *batchReader) version() error {
	v, err := r.u8()
	if err != nil {
		return err
	}
	if v != batchVersion {
		return fmt.Errorf("netsite: unsupported batch version %d", v)
	}
	return nil
}

// count decodes an item count, guarding it: each item occupies at least
// min bytes of the remaining buffer.
func (r *batchReader) count(min int) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if n > maxBatch || uint64(n)*uint64(min) > uint64(len(r.b)-r.off) {
		return 0, fmt.Errorf("netsite: implausible batch count %d", n)
	}
	return int(n), nil
}

// header decodes the version byte and the item count shared by both batch
// payloads, guarding the count: each item occupies at least min bytes.
func (r *batchReader) header(min int) (int, error) {
	if err := r.version(); err != nil {
		return 0, err
	}
	return r.count(min)
}

// done rejects trailing bytes, so that decode∘encode is the identity and a
// frame cannot smuggle data past the codec.
func (r *batchReader) done() error {
	if r.off != len(r.b) {
		return fmt.Errorf("netsite: %d trailing bytes after batch payload", len(r.b)-r.off)
	}
	return nil
}

// encodeBatchRequest packs a mixed-class query batch into one payload.
func encodeBatchRequest(qs []BatchQuery) ([]byte, error) {
	b := []byte{batchVersion, 0}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(qs)))
	for i, q := range qs {
		b = append(b, byte(q.Class))
		b = binary.LittleEndian.AppendUint32(b, uint32(q.S))
		b = binary.LittleEndian.AppendUint32(b, uint32(q.T))
		switch q.Class {
		case ClassReach:
		case ClassDist:
			b = binary.LittleEndian.AppendUint32(b, uint32(q.L))
		case ClassRPQ:
			if q.A == nil {
				return nil, fmt.Errorf("netsite: batch query %d: nil automaton", i)
			}
			ab, err := q.A.MarshalBinary()
			if err != nil {
				return nil, err
			}
			b = binary.LittleEndian.AppendUint32(b, uint32(len(ab)))
			b = append(b, ab...)
		default:
			return nil, fmt.Errorf("netsite: batch query %d: unknown class %q", i, byte(q.Class))
		}
	}
	return b, nil
}

// decodeBatchRequest is the inverse of encodeBatchRequest. A nonzero
// flags byte is rejected so the codec stays an identity under fuzzing.
func decodeBatchRequest(p []byte) ([]BatchQuery, error) {
	r := &batchReader{b: p}
	if err := r.version(); err != nil {
		return nil, err
	}
	flags, err := r.u8()
	if err != nil {
		return nil, err
	}
	if flags != 0 {
		return nil, fmt.Errorf("netsite: unknown batch flags %#x", flags)
	}
	n, err := r.count(9) // class + s + t at minimum
	if err != nil {
		return nil, err
	}
	qs := make([]BatchQuery, 0, n)
	for i := 0; i < n; i++ {
		cls, err := r.u8()
		if err != nil {
			return nil, err
		}
		s, err := r.u32()
		if err != nil {
			return nil, err
		}
		t, err := r.u32()
		if err != nil {
			return nil, err
		}
		q := BatchQuery{Class: QueryClass(cls), S: graph.NodeID(s), T: graph.NodeID(t)}
		switch q.Class {
		case ClassReach:
		case ClassDist:
			l, err := r.u32()
			if err != nil {
				return nil, err
			}
			q.L = int(l)
		case ClassRPQ:
			alen, err := r.u32()
			if err != nil {
				return nil, err
			}
			ab, err := r.bytes(alen)
			if err != nil {
				return nil, err
			}
			q.A = new(automaton.Automaton)
			if err := q.A.UnmarshalBinary(ab); err != nil {
				return nil, fmt.Errorf("netsite: batch query %d: %w", i, err)
			}
		default:
			return nil, fmt.Errorf("netsite: batch query %d: unknown class %q", i, cls)
		}
		qs = append(qs, q)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return qs, nil
}

// encodeBatchReply packs the shared per-target sections plus, per batched
// query, a section reference (0 = none, else 1+index) and the query's own
// marshaled partial (empty when the shared section says it all).
func encodeBatchReply(shared [][]byte, refs []uint32, parts [][]byte) []byte {
	b := []byte{batchVersion}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(shared)))
	for _, s := range shared {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(parts)))
	for i, p := range parts {
		b = binary.LittleEndian.AppendUint32(b, refs[i])
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
		b = append(b, p...)
	}
	return b
}

// decodeBatchReply is the inverse of encodeBatchReply. Every count, length
// and section reference is validated.
func decodeBatchReply(p []byte) (shared [][]byte, refs []uint32, parts [][]byte, err error) {
	r := &batchReader{b: p}
	ns, err := r.header(4) // a length prefix per section at minimum
	if err != nil {
		return nil, nil, nil, err
	}
	shared = make([][]byte, 0, ns)
	for i := 0; i < ns; i++ {
		slen, err := r.u32()
		if err != nil {
			return nil, nil, nil, err
		}
		s, err := r.bytes(slen)
		if err != nil {
			return nil, nil, nil, err
		}
		shared = append(shared, s)
	}
	n, err := r.u32()
	if err != nil {
		return nil, nil, nil, err
	}
	if n > maxBatch || uint64(n)*8 > uint64(len(r.b)-r.off) {
		return nil, nil, nil, fmt.Errorf("netsite: implausible batch reply count %d", n)
	}
	refs = make([]uint32, 0, n)
	parts = make([][]byte, 0, n)
	for i := 0; i < int(n); i++ {
		ref, err := r.u32()
		if err != nil {
			return nil, nil, nil, err
		}
		if ref > uint32(len(shared)) {
			return nil, nil, nil, fmt.Errorf("netsite: batch reply query %d references section %d of %d", i, ref, len(shared))
		}
		plen, err := r.u32()
		if err != nil {
			return nil, nil, nil, err
		}
		part, err := r.bytes(plen)
		if err != nil {
			return nil, nil, nil, err
		}
		refs = append(refs, ref)
		parts = append(parts, part)
	}
	if err := r.done(); err != nil {
		return nil, nil, nil, err
	}
	return shared, refs, parts, nil
}

// Batch evaluates a mixed-class query batch in one wire round: exactly one
// request frame per site carries the whole batch, each site evaluates it
// against its fragment in one pass and answers with one frame carrying a
// partial per query, and the coordinator demultiplexes and solves each
// query from its partials. The returned WireStats covers the whole batch:
// FramesSent equals the site count, and FramesReceived is at most that —
// independent of len(qs) — which is the per-batch form of the paper's
// visit bound. An all-reach batch whose every query is proved true before
// the last final arrives returns early (see SetAnytime).
//
// Queries that short-circuit locally (s == t, or a non-positive distance
// bound) are answered without touching the wire; a batch of only such
// queries sends zero frames. Concurrent batches multiplex over the same
// connections like single queries do.
func (c *Coordinator) Batch(qs []BatchQuery) ([]BatchAnswer, WireStats, error) {
	return c.BatchContext(context.Background(), qs)
}

// BatchContext is Batch honoring a context deadline or cancellation.
func (c *Coordinator) BatchContext(ctx context.Context, qs []BatchQuery) ([]BatchAnswer, WireStats, error) {
	answers := make([]BatchAnswer, len(qs))
	wire := make([]BatchQuery, 0, len(qs))
	widx := make([]int, 0, len(qs))
	for i, q := range qs {
		switch q.Class {
		case ClassReach:
			if q.S == q.T {
				answers[i] = BatchAnswer{Answer: true}
				continue
			}
		case ClassDist:
			if q.S == q.T {
				answers[i] = BatchAnswer{Answer: q.L >= 0, Dist: 0}
				continue
			}
			if q.L <= 0 {
				answers[i] = BatchAnswer{Answer: false, Dist: bes.Inf}
				continue
			}
		case ClassRPQ:
			if q.A == nil {
				return nil, WireStats{}, fmt.Errorf("netsite: batch query %d: nil automaton", i)
			}
			if q.S == q.T && q.A.AcceptsLabels(nil) {
				answers[i] = BatchAnswer{Answer: true}
				continue
			}
		default:
			return nil, WireStats{}, fmt.Errorf("netsite: batch query %d: unknown class %q", i, byte(q.Class))
		}
		wire = append(wire, q)
		widx = append(widx, i)
	}
	if len(wire) == 0 {
		return answers, WireStats{}, nil
	}
	payload, err := encodeBatchRequest(wire)
	if err != nil {
		return nil, WireStats{}, err
	}
	qt := c.newQueryTrace("batch")
	var br *batchRound
	st, err := c.queryRound(ctx, kindBatch, payload, qt, func() roundSink {
		br = newBatchRound(wire, len(c.conns))
		return br.final
	})
	if err != nil {
		c.finishTrace(qt, &st, err)
		return nil, st, err
	}
	solveStart := time.Now()
	if err := br.compose(widx, answers); err != nil {
		c.finishTrace(qt, &st, err)
		return nil, st, err
	}
	if qt != nil {
		qt.b.AddSpan(qt.b.Root(), "solve", solveStart, time.Since(solveStart))
	}
	c.finishTrace(qt, &st, nil)
	return answers, st, nil
}

// batchReply is one site's decoded batch reply: the shared per-target
// reach sections, and per query its section reference, its own reach
// partial (nil when the shared section says it all) and its raw partial
// bytes (decoded at compose time for distance and regex queries).
type batchReply struct {
	shared []*core.ReachPartial
	refs   []uint32
	own    []*core.ReachPartial
	parts  [][]byte
}

// batchRound is the round sink of a batch. Every reach query's equations
// feed one incremental system per distinct target as finals arrive; the
// round is decided once every query in the batch is proved true, which
// only an all-reach batch can reach early (false verdicts, distance and
// regex answers need every site's final).
type batchRound struct {
	wire      []BatchQuery
	sites     []*batchReply // per site; nil until its final arrives
	sys       map[graph.NodeID]*bes.System[graph.NodeID]
	decided   []bool
	undecided int
}

func newBatchRound(wire []BatchQuery, sites int) *batchRound {
	br := &batchRound{
		wire:      wire,
		sites:     make([]*batchReply, sites),
		sys:       make(map[graph.NodeID]*bes.System[graph.NodeID]),
		decided:   make([]bool, len(wire)),
		undecided: len(wire),
	}
	for _, q := range wire {
		if _, ok := br.sys[q.T]; q.Class == ClassReach && !ok {
			br.sys[q.T] = bes.New[graph.NodeID]()
		}
	}
	return br
}

// final decodes one site's batch reply and feeds its reach equations.
func (br *batchRound) final(site int, body []byte) (bool, error) {
	shared, refs, parts, err := decodeBatchReply(body)
	if err != nil {
		return false, fmt.Errorf("netsite: site %d reply: %w", site, err)
	}
	if len(parts) != len(br.wire) {
		return false, fmt.Errorf("netsite: site %d answered %d of %d batch queries", site, len(parts), len(br.wire))
	}
	rep := &batchReply{shared: make([]*core.ReachPartial, len(shared)), refs: refs,
		own: make([]*core.ReachPartial, len(parts)), parts: parts}
	for k, sb := range shared {
		rep.shared[k] = new(core.ReachPartial)
		if err := rep.shared[k].UnmarshalBinary(sb); err != nil {
			return false, fmt.Errorf("netsite: site %d shared section %d: %w", site, k, err)
		}
	}
	// Each shared section belongs to exactly one target; feed it once
	// however many queries reference it.
	fed := make([]bool, len(shared))
	for j, q := range br.wire {
		if q.Class != ClassReach {
			continue
		}
		sys := br.sys[q.T]
		if ref := refs[j]; ref > 0 && !fed[ref-1] {
			fed[ref-1] = true
			rep.shared[ref-1].AddToSystem(sys)
		}
		if len(parts[j]) > 0 {
			rep.own[j] = new(core.ReachPartial)
			if err := rep.own[j].UnmarshalBinary(parts[j]); err != nil {
				return false, fmt.Errorf("netsite: site %d batch query %d: %w", site, j, err)
			}
			rep.own[j].AddToSystem(sys)
		}
	}
	br.sites[site] = rep
	for j, q := range br.wire {
		if !br.decided[j] && q.Class == ClassReach && br.sys[q.T].Decide(q.S) {
			br.decided[j] = true
			br.undecided--
		}
	}
	return br.undecided == 0, nil
}

// compose solves each wire query into its answer slot from the finals
// received. A reach answer is its target system's verdict; after an early
// decision the stragglers' replies are missing, which leaves the (true)
// verdicts and the dependency-closure Touched sets sound.
func (br *batchRound) compose(widx []int, answers []BatchAnswer) error {
	// siteOf maps a 2-per-site partial layout (shared, own) back to sites.
	siteOf := func(idx []int) []int {
		out := make([]int, 0, len(idx))
		last := -1
		for _, x := range idx { // idx is sorted; x/2 is nondecreasing
			if s := x / 2; s != last {
				out = append(out, s)
				last = s
			}
		}
		return out
	}
	for j, q := range br.wire {
		i := widx[j]
		switch q.Class {
		case ClassReach:
			// Two partials per site: the shared per-target rvset and the
			// query's own source equation.
			partials := make([]*core.ReachPartial, 2*len(br.sites))
			for site, rep := range br.sites {
				if rep == nil {
					continue
				}
				if ref := rep.refs[j]; ref > 0 {
					partials[2*site] = rep.shared[ref-1]
				}
				partials[2*site+1] = rep.own[j]
			}
			answers[i].Answer = br.sys[q.T].Decide(q.S)
			answers[i].Touched = siteOf(core.TouchedReach(partials, q.S))
		case ClassDist:
			partials := make([]*core.DistPartial, len(br.sites))
			for site, rep := range br.sites {
				partials[site] = new(core.DistPartial)
				if err := partials[site].UnmarshalBinary(rep.parts[j]); err != nil {
					return fmt.Errorf("netsite: site %d batch query %d: %w", site, i, err)
				}
			}
			d := core.SolveDist(partials, q.S)
			answers[i] = BatchAnswer{Answer: d <= int64(q.L), Dist: d, Touched: core.TouchedDist(partials, q.S)}
		case ClassRPQ:
			partials := make([]*core.RPQPartial, len(br.sites))
			for site, rep := range br.sites {
				partials[site] = new(core.RPQPartial)
				if err := partials[site].UnmarshalBinary(rep.parts[j]); err != nil {
					return fmt.Errorf("netsite: site %d batch query %d: %w", site, i, err)
				}
			}
			answers[i].Answer = core.SolveRPQ(partials, q.S, q.A)
			answers[i].Touched = core.TouchedRPQ(partials, q.S, q.A.NumStates())
		}
	}
	return nil
}
