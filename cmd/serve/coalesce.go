package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"distreach/internal/graph"
	"distreach/internal/netsite"
)

// maxCoalesce bounds one coalesced wire round: once this many reach
// queries have piled up inside the window, the round flushes immediately
// instead of waiting the timer out.
const maxCoalesce = 256

// coalescer implements the gateway's adaptive batching: concurrent GET
// /reach requests that miss the cache within one -coalesce window travel
// the wire as a SINGLE batch round (one frame per site for the whole
// group) instead of one round each. The first query to arrive arms the
// window timer; everything that lands before it fires shares the round.
// Under light traffic the window adds at most its own length of latency;
// under a multiplexed flood it collapses N concurrent rounds into one,
// which is exactly when the site connections are the bottleneck.
type coalescer struct {
	co     *netsite.Coordinator
	window time.Duration
	newCtx func() (context.Context, context.CancelFunc) // per-round wire deadline

	mu      sync.Mutex
	pending []coalesceWaiter

	// Telemetry for /stats: rounds flushed, queries that travelled through
	// the coalescer, queries that shared a round with at least one other,
	// the largest round, and a small round-size histogram.
	rounds    atomic.Int64
	queries   atomic.Int64
	coalesced atomic.Int64
	maxRound  atomic.Int64
	sizeHist  [4]atomic.Int64 // rounds of size 1, 2, 3-4, 5+
}

type coalesceWaiter struct {
	q    netsite.BatchQuery
	done chan coalesceResult // buffered: the flusher never blocks on a gone waiter
}

type coalesceResult struct {
	ans netsite.BatchAnswer
	st  netsite.WireStats
	err error
}

func newCoalescer(co *netsite.Coordinator, window, timeout time.Duration) *coalescer {
	return &coalescer{
		co:     co,
		window: window,
		newCtx: func() (context.Context, context.CancelFunc) {
			// The round outlives any single waiter's HTTP context (one
			// client hanging up must not cancel its round-mates), so it
			// runs under the gateway's wire deadline alone.
			if timeout <= 0 {
				return context.Background(), func() {}
			}
			return context.WithTimeout(context.Background(), timeout)
		},
	}
}

// reach enqueues one reach query and waits for its round to flush. The
// waiter's own context only abandons the wait — the shared round carries
// on for the other queries in it.
func (cl *coalescer) reach(ctx context.Context, s, t graph.NodeID) (netsite.BatchAnswer, netsite.WireStats, error) {
	w := coalesceWaiter{
		q:    netsite.BatchQuery{Class: netsite.ClassReach, S: s, T: t},
		done: make(chan coalesceResult, 1),
	}
	cl.queries.Add(1)
	cl.mu.Lock()
	cl.pending = append(cl.pending, w)
	first := len(cl.pending) == 1
	full := len(cl.pending) >= maxCoalesce
	cl.mu.Unlock()
	switch {
	case full:
		go cl.flush()
	case first:
		time.AfterFunc(cl.window, cl.flush)
	}
	select {
	case res := <-w.done:
		return res.ans, res.st, res.err
	case <-ctx.Done():
		return netsite.BatchAnswer{}, netsite.WireStats{}, ctx.Err()
	}
}

// flush ships whatever accumulated as one wire batch and fans the answers
// back out. A timer firing after a full-batch flush finds nothing pending
// and is a no-op.
func (cl *coalescer) flush() {
	cl.mu.Lock()
	batch := cl.pending
	cl.pending = nil
	cl.mu.Unlock()
	if len(batch) == 0 {
		return
	}

	n := int64(len(batch))
	cl.rounds.Add(1)
	if n > 1 {
		cl.coalesced.Add(n)
	}
	for cur := cl.maxRound.Load(); n > cur && !cl.maxRound.CompareAndSwap(cur, n); cur = cl.maxRound.Load() {
	}
	switch {
	case n == 1:
		cl.sizeHist[0].Add(1)
	case n == 2:
		cl.sizeHist[1].Add(1)
	case n <= 4:
		cl.sizeHist[2].Add(1)
	default:
		cl.sizeHist[3].Add(1)
	}

	qs := make([]netsite.BatchQuery, len(batch))
	for i, w := range batch {
		qs[i] = w.q
	}
	ctx, cancel := cl.newCtx()
	defer cancel()
	answers, st, err := cl.co.BatchContext(ctx, qs)
	for i, w := range batch {
		if err != nil {
			w.done <- coalesceResult{err: err}
			continue
		}
		w.done <- coalesceResult{ans: answers[i], st: shareOf(st, i, n)}
	}
}

// shareOf is query i's share of a round that served n queries: the
// round's bytes split evenly (the remainder going to the first queries),
// so per-query byte metrics summed over the round's queries count its
// traffic once. Frame counts and timings stay the round's own.
func shareOf(st netsite.WireStats, i int, n int64) netsite.WireStats {
	split := func(total int64) int64 {
		v := total / n
		if int64(i) < total%n {
			v++
		}
		return v
	}
	st.BytesSent = split(st.BytesSent)
	st.BytesReceived = split(st.BytesReceived)
	return st
}

// statsJSON is the /stats "coalesce" section.
func (cl *coalescer) statsJSON() map[string]any {
	return map[string]any{
		"window_us": cl.window.Microseconds(),
		"rounds":    cl.rounds.Load(),
		"queries":   cl.queries.Load(),
		"coalesced": cl.coalesced.Load(),
		"max_round": cl.maxRound.Load(),
		"round_sizes": map[string]int64{
			"1":      cl.sizeHist[0].Load(),
			"2":      cl.sizeHist[1].Load(),
			"3_4":    cl.sizeHist[2].Load(),
			"5_plus": cl.sizeHist[3].Load(),
		},
	}
}
