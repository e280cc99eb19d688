package netsite

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"distreach/internal/automaton"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/obs"
	"distreach/internal/rx"
)

// stragglerDeployment builds the two-component skew topology the anytime
// protocol is designed for: a chain a0→…→a(na-1) alternating between
// fragments 0 and 1 (fast sites), and an isolated chain b0→…→b(nb-1)
// owned entirely by fragment 2 (the straggler). Reachability inside the
// a-chain has its whole certificate on the fast sites, so an anytime round
// can answer without ever hearing from the straggler.
func stragglerDeployment(t *testing.T, na, nb int) (*fragment.Fragmentation, graph.NodeID, graph.NodeID) {
	t.Helper()
	b := graph.NewBuilder(na + nb)
	a0 := b.AddNodes(na, "A")
	b0 := b.AddNodes(nb, "B")
	for i := 0; i < na-1; i++ {
		b.AddEdge(a0+graph.NodeID(i), a0+graph.NodeID(i+1))
	}
	for i := 0; i < nb-1; i++ {
		b.AddEdge(b0+graph.NodeID(i), b0+graph.NodeID(i+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int, na+nb)
	for i := 0; i < na; i++ {
		assign[int(a0)+i] = i % 2
	}
	for i := 0; i < nb; i++ {
		assign[int(b0)+i] = 2
	}
	fr, err := fragment.Build(g, assign, 3)
	if err != nil {
		t.Fatal(err)
	}
	return fr, a0, b0
}

// serveSkewed starts one site per fragment with per-site service delays.
func serveSkewed(t *testing.T, fr *fragment.Fragmentation, delays []time.Duration) ([]*Site, []string) {
	t.Helper()
	rep := fragment.NewReplica(fr)
	sites := make([]*Site, 0, fr.Card())
	addrs := make([]string, 0, fr.Card())
	for i, f := range fr.Fragments() {
		s, err := NewSiteReplica("127.0.0.1:0", rep, f.ID, SiteOptions{Delay: delays[i]})
		if err != nil {
			for _, prev := range sites {
				prev.Close()
			}
			t.Fatal(err)
		}
		sites = append(sites, s)
		addrs = append(addrs, s.Addr())
	}
	return sites, addrs
}

// TestAnytimeEarlyTermination pins the protocol's point: with one site at
// a 10x+ service delay, a reach query whose certificate avoids that site
// answers at fast-site latency (EarlyTerminated, cancel broadcast,
// straggler histogram bumped), while a false answer — which needs every
// site's complete equations — still waits the straggler out.
func TestAnytimeEarlyTermination(t *testing.T) {
	const slow = 250 * time.Millisecond
	fr, a0, b0 := stragglerDeployment(t, 12, 4)
	sites, addrs := serveSkewed(t, fr, []time.Duration{0, 0, slow})
	defer func() {
		for _, s := range sites {
			s.Close()
		}
	}()
	co, err := Dial(addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if !co.Anytime() {
		t.Fatal("anytime must be on by default")
	}

	// True inside the fast chain: decided before the straggler answers.
	ok, st, err := co.Reach(a0, a0+11)
	if err != nil || !ok {
		t.Fatalf("reach(a0,a11) = %v, %v; want true", ok, err)
	}
	if !st.EarlyTerminated {
		t.Fatalf("true answer with a certificate on fast sites must early-terminate: %+v", st)
	}
	if st.FirstAnswer >= slow-50*time.Millisecond {
		t.Fatalf("first answer took %v, straggler delay is %v — no early win", st.FirstAnswer, slow)
	}
	if st.FramesSent != 3 || st.FramesReceived != 2 {
		t.Fatalf("early round must post one frame per site and be decided by the two fast finals: %+v", st)
	}
	if st.CancelFrames < 1 {
		t.Fatalf("early termination must cancel the straggler: %+v", st)
	}

	// False across components: every site's equations are needed, so the
	// full round — straggler included — is waited out.
	ok, st, err = co.Reach(a0+11, a0)
	if err != nil || ok {
		t.Fatalf("reach(a11,a0) = %v, %v; want false", ok, err)
	}
	if st.EarlyTerminated {
		t.Fatalf("a false answer can never early-terminate: %+v", st)
	}
	if st.RoundTrip < slow-50*time.Millisecond {
		t.Fatalf("false answer finished in %v, before the straggler (%v) could answer", st.RoundTrip, slow)
	}

	// All-true reach batch: early, at fast-site latency.
	answers, st, err := co.Batch([]BatchQuery{
		{Class: ClassReach, S: a0, T: a0 + 5},
		{Class: ClassReach, S: a0 + 1, T: a0 + 7},
	})
	if err != nil || !answers[0].Answer || !answers[1].Answer {
		t.Fatalf("all-true batch: %+v, %v", answers, err)
	}
	if !st.EarlyTerminated || st.FirstAnswer >= slow-50*time.Millisecond {
		t.Fatalf("all-true batch must early-terminate fast: %+v", st)
	}

	// A batch with one false query waits the full round.
	answers, st, err = co.Batch([]BatchQuery{
		{Class: ClassReach, S: a0, T: a0 + 5},
		{Class: ClassReach, S: a0, T: b0},
	})
	if err != nil || !answers[0].Answer || answers[1].Answer {
		t.Fatalf("mixed-truth batch: %+v, %v", answers, err)
	}
	if st.EarlyTerminated || st.RoundTrip < slow-50*time.Millisecond {
		t.Fatalf("a batch with a false member cannot early-terminate: %+v", st)
	}

	as := co.AnytimeStats()
	if as.EarlyTerminations < 2 || as.CancelsSent < 1 {
		t.Fatalf("anytime counters not accumulating: %+v", as)
	}
	if len(as.Stragglers) != 3 || as.Stragglers[2] < 1 {
		t.Fatalf("straggler histogram must blame site 2: %+v", as.Stragglers)
	}
	if as.Stragglers[2] <= as.Stragglers[0] && as.Stragglers[2] <= as.Stragglers[1] {
		t.Fatalf("site 2 must dominate the straggler histogram: %+v", as.Stragglers)
	}

	// Off means off: the same query pays the full round again.
	co.SetAnytime(false)
	ok, st, err = co.Reach(a0, a0+11)
	if err != nil || !ok || st.EarlyTerminated {
		t.Fatalf("full round: %v %+v %v", ok, st, err)
	}
	if st.RoundTrip < slow-50*time.Millisecond {
		t.Fatalf("full round finished in %v, before the straggler (%v)", st.RoundTrip, slow)
	}
	if st.FirstAnswer != st.RoundTrip {
		t.Fatalf("full rounds define FirstAnswer = RoundTrip: %+v", st)
	}
}

// TestAnytimeCrossCheck is the anytime acceptance check: 50 random
// fragmented graphs — alternating indexed and direct evaluation — each
// driven through wire edge churn and a live rebalance, with every query
// evaluated both anytime and full-round and both compared to the local
// oracle. A sprinkling of context-cancelled queries exercises mid-query
// cancellation under the same churn. Zero mismatches tolerated.
func TestAnytimeCrossCheck(t *testing.T) {
	labels := []string{"A", "B", "C"}
	rng := gen.NewRNG(411)
	for trial := 0; trial < 50; trial++ {
		n := 12 + rng.Intn(70)
		e := n + rng.Intn(3*n)
		seed := uint64(9100 + trial)
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = gen.Uniform(gen.Config{Nodes: n, Edges: e, Labels: labels, Seed: seed})
		case 1:
			g = gen.PowerLaw(gen.Config{Nodes: n, Edges: e, Labels: labels, Seed: seed})
		case 2:
			g = gen.Layered(2+rng.Intn(4), 3+rng.Intn(8), 0.3, labels, seed)
		}
		nn := g.NumNodes()
		k := 1 + rng.Intn(4)
		fr, err := fragment.Random(g, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		if trial%2 == 1 {
			fr.EnableReachIndex(1 << 20) // indexed trials; even trials run direct
		}
		mirror := g.Clone()
		sites, addrs, err := ServeFragmentation(fr)
		if err != nil {
			t.Fatal(err)
		}
		co, err := Dial(addrs, 2*time.Second)
		if err != nil {
			for _, s := range sites {
				s.Close()
			}
			t.Fatal(err)
		}

		epoch := uint64(0)
		for step := 0; step < 4; step++ {
			// Wire edge churn, mirrored locally for the oracle.
			for i := 0; i < 1+rng.Intn(3); i++ {
				u := graph.NodeID(rng.Intn(nn))
				v := graph.NodeID(rng.Intn(nn))
				if rng.Intn(3) == 0 {
					if _, _, err := co.Update(UpdateDelete, u, v); err != nil {
						t.Fatalf("trial %d: delete(%d,%d): %v", trial, u, v, err)
					}
					mirror.DeleteEdge(u, v)
				} else {
					if _, _, err := co.Update(UpdateInsert, u, v); err != nil {
						t.Fatalf("trial %d: insert(%d,%d): %v", trial, u, v, err)
					}
					mirror.InsertEdge(u, v)
				}
			}
			if step == 2 {
				epoch++
				if _, _, err := co.Rebalance(epoch, "edgecut", seed); err != nil {
					t.Fatalf("trial %d: rebalance: %v", trial, err)
				}
			}
			for q := 0; q < 5; q++ {
				s := graph.NodeID(rng.Intn(nn))
				tt := graph.NodeID(rng.Intn(nn))
				want := mirror.Reachable(s, tt)
				co.SetAnytime(true)
				anyAns, ast, err := co.Reach(s, tt)
				if err != nil {
					t.Fatalf("trial %d step %d: anytime reach(%d,%d): %v", trial, step, s, tt, err)
				}
				co.SetAnytime(false)
				fullAns, _, err := co.Reach(s, tt)
				if err != nil {
					t.Fatalf("trial %d step %d: full reach(%d,%d): %v", trial, step, s, tt, err)
				}
				if anyAns != want || fullAns != want {
					t.Fatalf("trial %d step %d: reach(%d,%d) anytime=%v full=%v oracle=%v (early=%v)",
						trial, step, s, tt, anyAns, fullAns, want, ast.EarlyTerminated)
				}
			}
			// All-reach batch, anytime vs full-round vs oracle.
			qs := make([]BatchQuery, 4)
			for i := range qs {
				qs[i] = BatchQuery{Class: ClassReach, S: graph.NodeID(rng.Intn(nn)), T: graph.NodeID(rng.Intn(nn))}
			}
			co.SetAnytime(true)
			anyAns, _, err := co.Batch(qs)
			if err != nil {
				t.Fatalf("trial %d step %d: anytime batch: %v", trial, step, err)
			}
			co.SetAnytime(false)
			fullAns, _, err := co.Batch(qs)
			if err != nil {
				t.Fatalf("trial %d step %d: full batch: %v", trial, step, err)
			}
			for i, q := range qs {
				want := mirror.Reachable(q.S, q.T)
				if anyAns[i].Answer != want || fullAns[i].Answer != want {
					t.Fatalf("trial %d step %d: batch q%d (%d,%d) anytime=%v full=%v oracle=%v",
						trial, step, i, q.S, q.T, anyAns[i].Answer, fullAns[i].Answer, want)
				}
			}
			// Mid-query cancellation under churn: a context cancelled while
			// the round is in flight must yield either the right answer or a
			// context error — never a wrong answer — and leave no pending
			// entries behind.
			co.SetAnytime(true)
			ctx, cancel := context.WithCancel(context.Background())
			s := graph.NodeID(rng.Intn(nn))
			tt := graph.NodeID(rng.Intn(nn))
			done := make(chan struct{})
			var gotAns bool
			var gotErr error
			go func() {
				gotAns, _, gotErr = co.ReachContext(ctx, s, tt)
				close(done)
			}()
			if rng.Intn(2) == 0 {
				time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
			}
			cancel()
			<-done
			if gotErr == nil && gotAns != mirror.Reachable(s, tt) {
				t.Fatalf("trial %d step %d: cancelled reach(%d,%d) answered wrongly %v", trial, step, s, tt, gotAns)
			}
			if gotErr != nil && !errors.Is(gotErr, context.Canceled) {
				t.Fatalf("trial %d step %d: cancelled reach(%d,%d): %v", trial, step, s, tt, gotErr)
			}
		}
		if n := co.pendingTotal(); n != 0 {
			t.Fatalf("trial %d: %d pending entries leaked", trial, n)
		}
		co.Close()
		for _, s := range sites {
			s.Close()
		}
	}
}

// waitPendingDrained polls until the coordinator's pending tables are
// empty, failing after a deadline.
func waitPendingDrained(t *testing.T, co *Coordinator) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for co.pendingTotal() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d pending entries never drained", co.pendingTotal())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAnytimePendingNoLeak drives anytime rounds through the three ways a
// query can die mid-stream — context timeout, context cancellation, and a
// site dropping — and checks that the pending tables drain, late frames
// are discarded, and no goroutine outlives the shutdown.
func TestAnytimePendingNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	fr, a0, _ := stragglerDeployment(t, 10, 4)
	sites, addrs := serveSkewed(t, fr, []time.Duration{200 * time.Millisecond, 200 * time.Millisecond, 200 * time.Millisecond})
	co, err := Dial(addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: timeouts mid-stream. The unreachable pair needs every final,
	// so the 30ms deadline always fires first.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			if _, _, err := co.ReachContext(ctx, a0+9, a0); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("timed-out query returned %v, want deadline exceeded", err)
			}
		}()
	}
	wg.Wait()
	waitPendingDrained(t, co)

	// Phase 2: explicit cancellation mid-stream.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := co.ReachContext(ctx, a0+9, a0)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query returned %v, want context.Canceled", err)
	}
	waitPendingDrained(t, co)

	// Phase 3: a site drops mid-stream. In-flight rounds must fail
	// promptly, not hang on the dead connection.
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := co.Reach(a0+9, a0)
			done <- err
		}()
	}
	time.Sleep(50 * time.Millisecond) // frames are at the sites, mid-delay
	sites[2].Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("a query spanning a dropped site cannot answer false without it")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("query hung after its site dropped")
		}
	}
	waitPendingDrained(t, co)

	co.Close()
	for _, s := range sites {
		s.Close()
	}
	if n := countGoroutines(t, before+2); n > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after shutdown", before, n)
	}
}

// frameTap relays one coordinator↔site connection at a time and counts,
// per request ID, the query frames the coordinator sent (cancel frames
// apart) and the frames the site answered with — the wire-level view of
// the one-frame-per-site round.
type frameTap struct {
	ln     net.Listener
	target string

	mu       sync.Mutex
	requests map[uint32]int
	cancels  map[uint32]int
	replies  map[uint32]int
}

func newFrameTap(t *testing.T, target string) *frameTap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tp := &frameTap{ln: ln, target: target,
		requests: map[uint32]int{}, cancels: map[uint32]int{}, replies: map[uint32]int{}}
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", target)
			if err != nil {
				in.Close()
				continue
			}
			go tp.relay(in, out, true)
			go tp.relay(out, in, false)
		}
	}()
	return tp
}

// relay copies whole frames from src to dst, counting them by request ID.
func (tp *frameTap) relay(src, dst net.Conn, toSite bool) {
	defer src.Close()
	defer dst.Close()
	for {
		id, kind, payload, _, err := readFrame(src)
		if err != nil {
			return
		}
		tp.mu.Lock()
		switch {
		case !toSite:
			tp.replies[id]++
		case kind == kindCancel:
			tp.cancels[id]++
		default:
			tp.requests[id]++
		}
		tp.mu.Unlock()
		if _, err := writeFrame(dst, id, kind, payload); err != nil {
			return
		}
	}
}

// TestOneFramePerSitePerRound pins the protocol invariant on the wire:
// every query round — early-terminated or full, single or batch, every
// query class, traced or not, anytime on or off — posts exactly one
// request frame to each site and gets at most one frame back from each
// site for its request ID.
func TestOneFramePerSitePerRound(t *testing.T) {
	const slow = 60 * time.Millisecond
	fr, a0, b0 := stragglerDeployment(t, 12, 4)
	sites, addrs := serveSkewed(t, fr, []time.Duration{0, 0, slow})
	defer func() {
		for _, s := range sites {
			s.Close()
		}
	}()
	taps := make([]*frameTap, len(addrs))
	tapAddrs := make([]string, len(addrs))
	for i, a := range addrs {
		taps[i] = newFrameTap(t, a)
		defer taps[i].ln.Close()
		tapAddrs[i] = taps[i].ln.Addr().String()
	}
	co, err := Dial(tapAddrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	aut := automaton.FromRegex(rx.MustParse("A*"))
	early := 0
	for pass := 0; pass < 4; pass++ {
		co.SetAnytime(pass%2 == 0)
		if pass >= 2 {
			co.SetTraceSink(func(*obs.Trace) {})
		}
		check := func(what string, st WireStats, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("pass %d %s: %v", pass, what, err)
			}
			if st.FramesSent != 3 || st.FramesReceived > 3 {
				t.Fatalf("pass %d %s: %d frames sent, %d received for 3 sites", pass, what, st.FramesSent, st.FramesReceived)
			}
			if st.EarlyTerminated {
				early++
			}
		}
		_, st, err := co.Reach(a0, a0+11) // true on the fast sites: early with anytime on
		check("reach true", st, err)
		_, st, err = co.Reach(a0+11, a0) // false: a full round
		check("reach false", st, err)
		_, _, st, err = co.ReachWithin(a0, a0+3, 5)
		check("dist", st, err)
		_, st, err = co.ReachRegex(a0, a0+4, aut)
		check("rpq", st, err)
		_, st, err = co.Batch([]BatchQuery{
			{Class: ClassReach, S: a0, T: a0 + 5},
			{Class: ClassReach, S: a0 + 1, T: a0 + 7},
		})
		check("all-true batch", st, err)
		_, st, err = co.Batch([]BatchQuery{
			{Class: ClassReach, S: a0, T: b0},
			{Class: ClassDist, S: a0, T: a0 + 2, L: 4},
			{Class: ClassRPQ, S: a0, T: a0 + 1, A: aut},
		})
		check("mixed batch", st, err)
	}
	if early == 0 {
		t.Fatal("no round terminated early; the early path went unchecked")
	}

	// Let cancelled stragglers settle: whatever they still send must be
	// relayed before the counts are read.
	time.Sleep(3 * slow)
	waitPendingDrained(t, co)
	for i, tp := range taps {
		tp.mu.Lock()
		if len(tp.requests) != 24 {
			t.Errorf("site %d saw %d query rounds, want 24", i, len(tp.requests))
		}
		for id, n := range tp.requests {
			if n != 1 {
				t.Errorf("site %d: request %d posted %d times", i, id, n)
			}
		}
		for id, n := range tp.replies {
			if n > 1 {
				t.Errorf("site %d: request %d answered with %d frames", i, id, n)
			}
			if tp.requests[id] == 0 {
				t.Errorf("site %d: reply for unknown request %d", i, id)
			}
		}
		tp.mu.Unlock()
	}
}
