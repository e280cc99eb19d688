package main

import (
	"sort"
	"time"

	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/netsite"
	"distreach/internal/obs"
	"distreach/internal/qcache"
)

// Sizes of the traced run.
const (
	splitSample  = 200 // queries replayed for the layer split
	probeEdges   = 10  // delete/re-insert pairs timed by the write probes
	answerCache  = 4096
	tracedPhases = 3 // untraced, benchmark-traced, program-traced
)

// traceDirect is the traced run of a direct workload. It measures three
// equal closed-loop phases (untraced; every read inside benchmark spans;
// the coordinator's own tracing armed), replays a sample of the pool one
// query at a time while timing each layer's public functions on the same
// fragmentation, and times single writes through each write-path layer.
func traceDirect(o options, in *directInputs) (*run, error) {
	r := newRun()
	rec := newRecorder()
	root := rec.newID()
	start := time.Now()
	d, err := deploy(in.cfg, rec, root)
	if err != nil {
		return nil, err
	}
	defer d.close()
	rec.add(root, 0, 0, "setup", start, time.Now())
	want := oracle(in.oracleGraph, in.pool)

	pick := permPicker(o.seed, len(in.pool))
	tr := tracedLoads(r, rec, d.reader(), d.co, in.pool, want, d.fr, pick, o.seconds/tracedPhases)
	tr.report(r)
	r.set("serve.overhead_us", 0, "us") // no gateway in a direct workload's path
	r.set("serve.coalesce_fold", 1, "queries/round")

	layerSplit(r, rec, d, in.pool, want, o.seconds/tracedPhases)
	fp := d.fr.Fingerprint()
	writes := writePhase(d, in.edges, directWrites)
	checkWrites(r, writes)
	r.op(d.fr.Fingerprint() == fp, "fragmentation fingerprint changed after the delete/re-insert writes")
	writeMetrics(r, writes)
	writeProbes(r, rec, d, in.edges, tr.cache)
	setupMetrics(r, rec, d.fr)
	return r, rec.write(spanPath(o))
}

// tracedLoad is what the three traced phases measured.
type tracedLoad struct {
	qps       [tracedPhases]float64
	reads     []sample // the untraced phase
	idxBefore fragment.ReachIndexStats
	idxAfter  fragment.ReachIndexStats
	cache     *qcache.Cache[bool]
	hits      int
}

// tracedLoads runs the warm-up and the three phases against a direct
// deployment, checking every answer. The third phase arms co's own
// tracing.
func tracedLoads(r *run, rec *recorder, read reader, co *netsite.Coordinator, pool []query, want []bool, fr *fragment.Fragmentation,
	pick func(c int) int, phase time.Duration) *tracedLoad {
	plain := readOp(read, pool, pick)
	warm, _ := closedLoop(clients, directWarmup, plain)
	tl := &tracedLoad{idxBefore: fr.ReachIndexStats()}
	a, aEl := closedLoop(clients, phase, plain)
	tl.idxAfter = fr.ReachIndexStats()
	b, bEl := closedLoop(clients, phase, spannedOp(rec, "netsite.round", plain))
	var c [][]sample
	var cEl time.Duration
	if co != nil {
		co.SetTraceSink(func(*obs.Trace) {})
		c, cEl = closedLoop(clients, phase, plain)
		co.SetTraceSink(nil)
	}
	checkReads(r, pool, want, fr.Card(), warm, a, b, c)
	tl.reads = flatten(a)
	tl.qps[0] = float64(len(tl.reads)) / aEl.Seconds()
	tl.qps[1] = float64(len(flatten(b))) / bEl.Seconds()
	if cEl > 0 {
		tl.qps[2] = float64(len(flatten(c))) / cEl.Seconds()
	}
	// The gateway's answer cache on this read stream, in completion order.
	tl.cache = qcache.New[bool](answerCache)
	for _, s := range completionOrder(a) {
		key := qcache.ReachKey(pool[s.Q].S, pool[s.Q].T)
		if _, ok := tl.cache.Get(key); ok {
			tl.hits++
			continue
		}
		tl.cache.PutTagged(key, s.OK, s.Wire.Touched)
	}
	return tl
}

// report sets the metrics of the traced phases.
func (tl *tracedLoad) report(r *run) {
	wireRatios(r, tl.reads)
	r.set("qcache.hit_ratio", float64(tl.hits)/float64(len(tl.reads)), "ratio")
	hits := tl.idxAfter.Hits - tl.idxBefore.Hits
	lookups := hits + tl.idxAfter.Fallbacks - tl.idxBefore.Fallbacks
	indexRatio(r, hits, lookups)
	r.set("bench.trace_overhead_pct", 100*(tl.qps[0]-tl.qps[1])/tl.qps[0], "%")
	r.set("obs.trace_overhead_pct", 100*(tl.qps[0]-tl.qps[2])/tl.qps[0], "%")
	r.note("traced phases: %.1f q/s untraced, %.1f benchmark-traced, %.1f program-traced", tl.qps[0], tl.qps[1], tl.qps[2])
}

// wireRatios reports the anytime protocol's per-read frame counts.
func wireRatios(r *run, reads []sample) {
	var partial, cancels, early int64
	for _, s := range reads {
		partial += s.Wire.PartialFrames
		cancels += s.Wire.CancelFrames
		if s.Wire.EarlyTerminated {
			early++
		}
	}
	n := float64(len(reads))
	r.set("netsite.partial_frames_per_query", float64(partial)/n, "frames")
	r.set("netsite.cancels_per_query", float64(cancels)/n, "frames")
	r.set("netsite.early_term_ratio", float64(early)/n, "ratio")
}

// indexRatio reports the reachindex hit ratio with its base.
func indexRatio(r *run, hits, lookups int64) {
	ratio := 0.0
	if lookups > 0 {
		ratio = float64(hits) / float64(lookups)
	}
	r.set("reachindex.hit_ratio", ratio, "ratio")
	r.set("reachindex.lookups", float64(lookups), "count")
}

// spannedOp wraps a closed-loop op in a root span "client.op" around a
// child span named name, both under a fresh query ID.
func spannedOp(rec *recorder, name string, op func(c int) sample) func(c int) sample {
	return func(c int) sample {
		id := rec.newID()
		start := time.Now()
		var s sample
		rec.time(name, id, id, func() { s = op(c) })
		rec.add(id, 0, id, "client.op", start, time.Now())
		return s
	}
}

// completionOrder merges the clients' samples by completion time.
func completionOrder(per [][]sample) []sample {
	all := flatten(per)
	done := func(s sample) time.Time { return s.Start.Add(s.Lat) }
	sort.SliceStable(all, func(i, j int) bool { return done(all[i]).Before(done(all[j])) })
	return all
}

// layerSplit replays pool queries one at a time, up to splitSample of
// them or until budget has passed. For each it times the real
// coordinator round (span netsite.round), then each layer's public
// functions on the same fragmentation: local evaluation per fragment,
// the partial answers' codec, the dependency closure and the solve. All
// spans of a query share its ID; per-layer numbers are means of self time
// over the replayed queries, and the transport remainder is the round
// minus the slowest fragment's evaluation, codec, closure and solve.
func layerSplit(r *run, rec *recorder, d *deployment, pool []query, want []bool, budget time.Duration) {
	read := d.reader()
	queries := map[int64]bool{}
	eqs := 0
	deadline := time.Now().Add(budget)
	for i, q := range pool {
		if i == splitSample || time.Now().After(deadline) {
			break
		}
		id := rec.newID()
		queries[id] = true
		start := time.Now()
		var got bool
		var err error
		rec.time("netsite.round", id, id, func() { got, _, err = read(q) })
		r.op(err == nil && got == want[i], "split round qr(%d,%d): got %v err %v, oracle %v", q.S, q.T, got, err, want[i])
		d.fr.RLock()
		probe, n := evalLayers(rec, id, d.fr.Fragments(), q)
		d.fr.RUnlock()
		r.op(probe == want[i], "split layers qr(%d,%d): got %v, oracle %v", q.S, q.T, probe, want[i])
		eqs += n
		rec.add(id, 0, id, "query", start, time.Now())
	}
	lt := aggregate(rec.snapshot(), queries)
	n := len(queries)
	round := meanOf(lt.sum["netsite.round"], n)
	evalMax := meanOf(lt.max["core.local_eval"], n)
	codec := meanOf(lt.sum["core.codec"], n)
	closure := meanOf(lt.sum["core.closure"], n)
	solve := meanOf(lt.sum["bes.solve"], n)
	r.set("netsite.round_us", micros(round), "us")
	r.set("core.local_eval_max_us", micros(evalMax), "us")
	r.set("core.local_eval_sum_us", micros(meanOf(lt.sum["core.local_eval"], n)), "us")
	r.set("core.codec_us", micros(codec), "us")
	r.set("core.closure_us", micros(closure), "us")
	r.set("bes.solve_us", micros(solve), "us")
	// The real round contains the slowest site's evaluation, the codec,
	// the closure and the solve; a remainder below zero means the replayed
	// layers do not account for the round, so the split is void.
	transport := round - evalMax - codec - closure - solve
	r.op(transport >= 0, "round %v shorter than its layers: slowest eval %v + codec %v + closure %v + solve %v",
		round, evalMax, codec, closure, solve)
	r.set("netsite.transport_us", micros(transport), "us")
	r.set("core.partial_eqs", float64(eqs)/float64(max(n, 1)), "equations")
	r.note("layer split over %d replayed queries", n)
}

// evalLayers runs the three phases of the paper's reachability
// algorithm on the fragments through core's public functions, one span
// per call, and returns the answer and the number of partial equations.
func evalLayers(rec *recorder, id int64, frags []*fragment.Fragment, q query) (bool, int) {
	eqs := 0
	ps := make([]*core.ReachPartial, len(frags))
	for i, f := range frags {
		rec.time("core.local_eval", id, id, func() { ps[i] = core.LocalEvalReach(f, q.S, q.T, nil) })
		eqs += ps[i].NumEqs()
	}
	rec.time("core.codec", id, id, func() {
		for i, p := range ps {
			b, _ := p.MarshalBinary()
			ps[i] = new(core.ReachPartial)
			ps[i].UnmarshalBinary(b)
		}
	})
	rec.time("core.closure", id, id, func() { core.TouchedReach(ps, q.S) })
	var got bool
	rec.time("bes.solve", id, id, func() { got = core.SolveReach(ps, q.S) })
	return got, eqs
}

// writeProbes times single writes through each write-path layer:
// Fragmentation.Apply on the fragmentation, the index rebuild it starts
// (WaitReachIndexes), and a whole Coordinator.Apply round (sequencer
// included), each as a delete followed by the re-insert. The answer
// cache filled by the untraced phase is evicted by each round's dirty
// fragments, when one is given. The fragmentation's fingerprint must be
// unchanged after.
func writeProbes(r *run, rec *recorder, d *deployment, edges []edge, cache *qcache.Cache[bool]) {
	fp := d.fr.Fingerprint()
	var apply, rebuild, round []time.Duration
	evicted, updates := 0, 0
	for _, e := range edges[:probeEdges] {
		for _, del := range []bool{true, false} {
			w := write{Delete: del, E: e}
			var res fragment.ApplyResult
			var err error
			apply = append(apply, rec.time("fragment.apply", 0, 0, func() { res, err = d.fr.Apply([]fragment.Op{w.op()}) }))
			r.op(err == nil && res.Changed, "Fragmentation.Apply %+v: changed %v, err %v", w, res.Changed, err)
			rebuild = append(rebuild, rec.time("reachindex.rebuild", 0, 0, d.fr.WaitReachIndexes))
		}
	}
	for _, e := range edges[probeEdges : 2*probeEdges] {
		for _, del := range []bool{true, false} {
			var res changedDirty
			var err error
			round = append(round, rec.time("netsite.update_round", 0, 0, func() { res, err = d.apply(write{Delete: del, E: e}) }))
			r.op(err == nil && res.changed, "Coordinator.Apply: changed %v, err %v", res.changed, err)
			if cache != nil {
				evicted += cache.EvictFragments(res.dirty)
			}
			updates++
			d.fr.WaitReachIndexes()
		}
	}
	r.op(d.fr.Fingerprint() == fp, "fragmentation fingerprint changed after the write probes")
	r.set("fragment.apply_us", micros(meanDur(apply)), "us")
	r.set("reachindex.rebuild_ms", meanDur(rebuild).Seconds()*1e3, "ms")
	r.set("netsite.update_round_us", micros(meanDur(round)), "us")
	if cache != nil {
		r.set("qcache.evictions_per_update", float64(evicted)/float64(updates), "entries")
	}
}

// p50ms is the median latency of samples in milliseconds.
func p50ms(ss []sample) float64 {
	ds := make([]time.Duration, len(ss))
	for i, s := range ss {
		ds[i] = s.Lat
	}
	return quantile(millis(ds), 0.5)
}

func meanDur(ds []time.Duration) time.Duration { return meanOf(ds, len(ds)) }

// setupMetrics reports the set-up spans and the fragmentation's |Vf|.
func setupMetrics(r *run, rec *recorder, fr *fragment.Fragmentation) {
	by := map[string]time.Duration{}
	for _, s := range rec.snapshot() {
		switch s.Name {
		case "graph.load", "fragment.partition", "reachindex.build":
			by[s.Name] += s.dur()
		}
	}
	r.set("graph.load_ms", by["graph.load"].Seconds()*1e3, "ms")
	r.set("fragment.partition_ms", by["fragment.partition"].Seconds()*1e3, "ms")
	r.set("reachindex.build_ms", by["reachindex.build"].Seconds()*1e3, "ms")
	r.set("fragment.vf", float64(fr.Vf()), "nodes")
}

// traceGateway is gateway-churn's traced run. Against the default
// gateway it measures an untraced phase (reading the cache, coalescer and
// index counters from /stats) and a benchmark-traced phase, then verifies
// the gateway; a second gateway with -trace=false gives the program's
// tracing overhead. An in-process deployment of the same graph and
// partition then gives the direct read latency the gateway adds to, the
// layer split and the write probes.
func traceGateway(o options, in *gwInputs) (*run, error) {
	r := newRun()
	rec := newRecorder()
	phase := o.seconds / tracedPhases
	want := oracle(in.g, in.pool)

	gw, _, err := startGateway(o.serve, gatewayArgs(in.path)...)
	if err != nil {
		return nil, err
	}
	cc := newChurnClients(o, gw, in)
	warmR, warmW := split(samplesOf(closedLoop(clients, gwWarmup, cc.op)))
	st0, err := gw.stats()
	if err != nil {
		gw.stop()
		return nil, err
	}
	a, aEl := closedLoop(clients, phase, cc.op)
	st1, err := gw.stats()
	if err != nil {
		gw.stop()
		return nil, err
	}
	b, bEl := closedLoop(clients, phase, spannedOp(rec, "serve.http", cc.op))
	aR, aW := split(a)
	bR, bW := split(b)
	checkChurn(r, append(append(warmR, aR...), bR...), append(append(warmW, aW...), bW...))
	checkWrites(r, cc.restore())
	verifyGateway(r, gw, in, want)
	gw.stop()
	qpsA := float64(len(aR)) / aEl.Seconds()
	qpsB := float64(len(bR)) / bEl.Seconds()
	writeMetrics(r, append(aW, bW...))

	hits, misses := st1.Cache.Hits-st0.Cache.Hits, st1.Cache.Misses-st0.Cache.Misses
	r.set("qcache.hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	r.set("qcache.evictions_per_update", float64(st1.Cache.Evictions-st0.Cache.Evictions)/float64(max(st1.Updates-st0.Updates, 1)), "entries")
	r.set("serve.coalesce_fold", float64(st1.Coalesce.Queries-st0.Coalesce.Queries)/float64(max(st1.Coalesce.Rounds-st0.Coalesce.Rounds, 1)), "queries/round")
	idxHits := st1.ReachIndex.Hits - st0.ReachIndex.Hits
	indexRatio(r, idxHits, idxHits+st1.ReachIndex.Fallbacks-st0.ReachIndex.Fallbacks)
	r.set("bench.trace_overhead_pct", 100*(qpsA-qpsB)/qpsA, "%")

	// The same load against a gateway with the program's tracing off.
	plain, _, err := startGateway(o.serve, gatewayArgs(in.path, "-trace=false")...)
	if err != nil {
		return nil, err
	}
	pc := newChurnClients(o, plain, in)
	closedLoop(clients, gwWarmup, pc.op)
	c, cEl := closedLoop(clients, phase, pc.op)
	cR, cW := split(c)
	checkChurn(r, cR, cW)
	checkWrites(r, pc.restore())
	plain.stop()
	qpsC := float64(len(cR)) / cEl.Seconds()
	r.set("obs.trace_overhead_pct", 100*(qpsC-qpsA)/qpsC, "%")
	r.note("traced phases: %.1f q/s default gateway, %.1f benchmark-traced, %.1f with -trace=false", qpsA, qpsB, qpsC)

	// The same graph, partition and read stream, straight to a coordinator.
	root := rec.newID()
	start := time.Now()
	d, err := deploy(deployConfig{load: func() (*graph.Graph, error) { return readGraph(in.path) }, partition: contiguous}, rec, root)
	if err != nil {
		return nil, err
	}
	defer d.close()
	rec.add(root, 0, 0, "setup", start, time.Now())
	zipfs := make([]*gen.Zipf, clients)
	for i := range zipfs {
		zipfs[i] = gen.NewZipf(rngFor(o.seed, rngClients+uint64(i)), len(in.pool), gwZipfSkew)
	}
	direct := readOp(d.reader(), in.pool, func(c int) int { return zipfs[c].Next() })
	warm, _ := closedLoop(clients, directWarmup, direct)
	dm, _ := closedLoop(clients, phase, direct)
	checkReads(r, in.pool, want, d.fr.Card(), warm, dm)
	r.set("serve.overhead_us", 1e3*(p50ms(aR)-p50ms(flatten(dm))), "us")
	wireRatios(r, flatten(dm))

	layerSplit(r, rec, d, in.pool, want, phase)
	writeProbes(r, rec, d, in.edges, nil)
	setupMetrics(r, rec, d.fr)
	return r, rec.write(spanPath(o))
}
