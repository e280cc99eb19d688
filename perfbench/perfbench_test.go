package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"distreach/internal/fragment"
	"distreach/internal/graph"
	"distreach/internal/netsite"
)

func encode(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := graph.Write(&b, g); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// smallCommunity is the generator at a test-friendly size, same rates.
func smallCommunity(seed uint64) *graph.Graph {
	return communityGraph(rngFor(seed, rngGraph), blocks, 2000, blockDeg, crossPerMillion)
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		g1, g2 := smallCommunity(seed), smallCommunity(seed)
		if !bytes.Equal(encode(t, g1), encode(t, g2)) {
			t.Fatalf("seed %d: two community graphs differ", seed)
		}
		n := g1.NumNodes()
		if !reflect.DeepEqual(pairs(rngFor(seed, rngPool), n, 300), pairs(rngFor(seed, rngPool), n, 300)) {
			t.Fatalf("seed %d: uniform pools differ", seed)
		}
		if !reflect.DeepEqual(groupedPairs(rngFor(seed, rngPool), n, 20, 8), groupedPairs(rngFor(seed, rngPool), n, 20, 8)) {
			t.Fatalf("seed %d: grouped pools differ", seed)
		}
		block := func(v graph.NodeID) int { return int(v) / 2000 }
		e1, err1 := toggleEdges(rngFor(seed, rngEdges), g1, block, 64)
		e2, err2 := toggleEdges(rngFor(seed, rngEdges), g2, block, 64)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(e1, e2) {
			t.Fatalf("seed %d: update streams differ", seed)
		}
	}
	if bytes.Equal(encode(t, smallCommunity(1)), encode(t, smallCommunity(2))) {
		t.Fatal("seeds 1 and 2 gave the same graph")
	}
}

func TestGroupedPairsShape(t *testing.T) {
	qs := groupedPairs(rngFor(3, rngPool), 500, 10, 16)
	if len(qs) != 160 {
		t.Fatalf("got %d pairs, want 160", len(qs))
	}
	seen := map[[2]graph.NodeID]bool{}
	sources := map[graph.NodeID]bool{}
	for _, q := range qs {
		if q.S == q.T || seen[[2]graph.NodeID{q.S, q.T}] {
			t.Fatalf("pair %v repeated or reflexive", q)
		}
		seen[[2]graph.NodeID{q.S, q.T}] = true
		sources[q.S] = true
	}
	if len(sources) != 10 {
		t.Fatalf("got %d sources, want 10", len(sources))
	}
}

func TestCommunityVfSmallUnderContiguous(t *testing.T) {
	g := smallCommunity(5)
	cont, err := contiguous(g)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := fragment.Partition(g, fragment.RandomPartitioner{Seed: 1}, blocks)
	if err != nil {
		t.Fatal(err)
	}
	// About 0.2% of nodes carry a cross edge; each adds at most two
	// boundary nodes.
	limit := 2 * g.NumNodes() * crossPerMillion / 1_000_000 * 2
	if cont.Vf() > limit {
		t.Fatalf("contiguous |Vf| = %d, want <= %d", cont.Vf(), limit)
	}
	if cont.Vf()*20 > rnd.Vf() {
		t.Fatalf("contiguous |Vf| = %d not far below random's %d", cont.Vf(), rnd.Vf())
	}
}

func TestChurnCycleRestoresFingerprint(t *testing.T) {
	g := smallCommunity(9)
	fr, err := contiguous(g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	edges, err := toggleEdges(rngFor(9, rngEdges), g, fr.Owner, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := fr.Fingerprint()
	for _, st := range newUpdateStreams(edges, clients) {
		for i := 0; i < 2*len(st.edges); i++ {
			res, err := fr.Apply([]fragment.Op{st.at(i).op()})
			if err != nil || !res.Changed {
				t.Fatalf("write %d %+v: changed %v, err %v", i, st.at(i), res.Changed, err)
			}
			if i == 0 && fr.Fingerprint() == want {
				t.Fatal("fingerprint unchanged after a delete")
			}
		}
	}
	if got := fr.Fingerprint(); got != want {
		t.Fatalf("fingerprint %x after a full cycle, want %x", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100) with children [10,30) and [20,50) overlapping, and a
	// child [90,120) running past the root's end; grandchild [12,18).
	spans := []span{
		{ID: 1, Query: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Query: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Query: 1, Name: "a", Start: 20, End: 50},
		{ID: 4, Parent: 1, Query: 1, Name: "b", Start: 90, End: 120},
		{ID: 5, Parent: 2, Query: 1, Name: "c", Start: 12, End: 18},
		{ID: 6, Query: 2, Name: "root", Start: 0, End: 40},
		{ID: 7, Parent: 6, Query: 2, Name: "a", Start: 0, End: 10},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6, 6: 30, 7: 10}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	lt := aggregate(spans, map[int64]bool{1: true, 2: true})
	if got := meanOf(lt.sum["a"], 2); got != (14+30+10)/2 {
		t.Fatalf("mean a sum %v", got)
	}
	if got := meanOf(lt.max["a"], 2); got != (30+10)/2 {
		t.Fatalf("mean a max %v", got)
	}
	if got := meanOf(lt.sum["b"], 2); got != 15 {
		t.Fatalf("mean b %v (a query without the span counts as zero)", got)
	}
	if lt = aggregate(spans, map[int64]bool{2: true}); len(lt.sum["b"]) != 0 {
		t.Fatal("spans of an unselected query were aggregated")
	}
}

// tinyGraph: 4 -> 0 -> 1 -> 2 -> 3, node 5 isolated.
func tinyGraph() *graph.Graph {
	b := graph.NewBuilder(6)
	for i := 0; i < 6; i++ {
		b.AddNode([]string{"L0", "L1", "L2"}[i%3])
	}
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {4, 0}} {
		b.AddEdge(e[0], e[1])
	}
	return b.MustBuild()
}

func TestKnownAnswersAndWrongAnswerFails(t *testing.T) {
	g := tinyGraph()
	pool := []query{{S: 4, T: 3}, {S: 3, T: 4}, {S: 0, T: 5}, {S: 0, T: 2}}
	known := []bool{true, false, false, true}
	want := oracle(g, pool)
	if !reflect.DeepEqual(want, known) {
		t.Fatalf("oracle %v, want %v", want, known)
	}

	d, err := deploy(deployConfig{
		load: func() (*graph.Graph, error) { return g.Clone(), nil },
		partition: func(g *graph.Graph) (*fragment.Fragmentation, error) {
			return fragment.Partition(g, fragment.ContiguousPartitioner{}, 2)
		},
	}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()

	replay := func(read reader) *run {
		r := newRun()
		var reads []sample
		for i := range pool {
			reads = append(reads, timed(i, func(s *sample) { s.OK, s.Wire, s.Err = read(pool[i]) }))
		}
		checkReads(r, pool, want, d.fr.Card(), [][]sample{reads})
		return r
	}
	honest := d.reader()
	if r := replay(honest); !r.result().Correct || r.failed != 0 || r.attempted != int64(len(pool)) {
		t.Fatalf("honest run: %+v, problems %v", r.result(), r.problems)
	}
	liar := func(q query) (bool, netsite.WireStats, error) {
		ok, st, err := honest(q)
		if q.S == 3 {
			ok = !ok
		}
		return ok, st, err
	}
	if r := replay(liar); r.result().Correct || r.failed != 1 {
		t.Fatalf("lying run: %+v, want 1 failure", r.result())
	}
	frameCheat := func(q query) (bool, netsite.WireStats, error) {
		ok, st, err := honest(q)
		st.FramesSent++
		return ok, st, err
	}
	if r := replay(frameCheat); r.result().Correct || r.failed != int64(len(pool)) {
		t.Fatalf("extra request frames not caught: %+v", r.result())
	}
}

func TestWindow(t *testing.T) {
	start := time.Unix(0, 0)
	w := newWindow(rngFor(1, rngReservoir))
	w.open(start, 10*time.Second)
	// Ten reads ending in each of the ten one-second slices, latencies
	// 1..10 ms in each, and one read ending after the window.
	for i := 0; i < 101; i++ {
		lat := time.Duration(i%10+1) * time.Millisecond
		w.add(sample{Start: start.Add(time.Duration(i)*100*time.Millisecond - lat + time.Millisecond), Lat: lat,
			Wire: netsite.WireStats{BytesSent: 3, BytesReceived: 4}})
	}
	for k, n := range w.counts {
		if n != 10 {
			t.Fatalf("slice %d counted %d reads, want 10", k, n)
		}
		if first := time.Duration(k)*time.Second + time.Millisecond; w.first[k] != first || w.last[k] != first+900*time.Millisecond {
			t.Fatalf("slice %d spans %v..%v", k, w.first[k], w.last[k])
		}
	}
	if w.reads != 100 || w.bytes != 700 || len(w.lat) != 100 {
		t.Fatalf("reads %d, bytes %d, latencies %d", w.reads, w.bytes, len(w.lat))
	}
	all := merge([]*window{w, w})
	if all.reads != 200 || all.counts[0] != 20 || all.first[1] != w.first[1] || len(all.lat) != 200 {
		t.Fatalf("merge: reads %d, first slice %d, latencies %d", all.reads, all.counts[0], len(all.lat))
	}
	r := newRun()
	readMetrics(r, w, 10*time.Second)
	if got := r.metrics["qps"].Value; got < 9.99 || got > 10.01 {
		t.Fatalf("qps %v, want 10 (9 reads after the first in 0.9s of each slice)", got)
	}
	if p50, p99 := r.metrics["p50_ms"].Value, r.metrics["p99_ms"].Value; p50 != 5 || p99 != 10 {
		t.Fatalf("p50 %v ms, p99 %v ms, want 5 and 10", p50, p99)
	}
	// Past latKeep reads the reservoir stays at latKeep entries.
	for i := 0; i < latKeep; i++ {
		w.add(sample{Start: start, Lat: 2 * time.Millisecond})
	}
	if len(w.lat) != latKeep || cap(w.lat) != latKeep {
		t.Fatalf("reservoir holds %d of capacity %d, want %d", len(w.lat), cap(w.lat), latKeep)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(append([]float64(nil), xs...), 0.5); got != 3 {
		t.Fatalf("median %v", got)
	}
	if got := quantile(append([]float64(nil), xs...), 0.99); got != 5 {
		t.Fatalf("p99 %v", got)
	}
	if got := quantile(append([]float64(nil), xs...), 0); got != 1 {
		t.Fatalf("p0 %v", got)
	}
}
