package main

import (
	"runtime/debug"
	"strconv"
	"time"

	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// Sizes of the direct workloads.
const (
	p2pFragments = 4
	p2pPartSeed  = 1 // random partitioner seed: the same fragmentation on every run
	p2pPoolSize  = 4096
	toggledEdges = 128
	directWrites = 100 // even: every delete is followed by its re-insert
	directWarmup = time.Second
)

// directInputs are a direct workload's generated inputs.
type directInputs struct {
	oracleGraph *graph.Graph // the benchmark's own copy, never mutated
	pool        []query
	edges       []edge // the delete/re-insert stream's edges
	cfg         deployConfig
}

// p2pSpec is reach-p2p (delay 0) or straggler-p2p (delay on one site):
// uniformly random qr pairs on the checked-in SNAP sample, random
// partition, k=4.
func p2pSpec(delay time.Duration) func(options) (*directInputs, error) {
	return func(o options) (*directInputs, error) {
		load := func() (*graph.Graph, error) { return graph.OpenSNAP(snapSample, nil) }
		part := func(g *graph.Graph) (*fragment.Fragmentation, error) {
			return fragment.Partition(g, fragment.RandomPartitioner{Seed: p2pPartSeed}, p2pFragments)
		}
		g, err := load()
		if err != nil {
			return nil, err
		}
		fr, err := part(g.Clone())
		if err != nil {
			return nil, err
		}
		edges, err := toggleEdges(rngFor(o.seed, rngEdges), g, fr.Owner, toggledEdges)
		if err != nil {
			return nil, err
		}
		return &directInputs{
			oracleGraph: g,
			pool:        pairs(rngFor(o.seed, rngPool), g.NumNodes(), p2pPoolSize),
			edges:       edges,
			cfg:         deployConfig{load: load, partition: part, slowSite: delay},
		}, nil
	}
}

// permPicker walks each client through its own seeded permutation of the
// pool, round after round, so every pool entry is read about equally
// often.
func permPicker(seed uint64, n int) func(c int) int {
	perms := make([][]int, clients)
	next := make([]int, clients)
	for c := range perms {
		perms[c] = rngFor(seed, rngClients+uint64(c)).Perm(n)
	}
	return func(c int) int {
		i := perms[c][next[c]%n]
		next[c]++
		return i
	}
}

// Set-up repetitions: at least setupMinReps and at least setupMinTime in
// total, so a set-up of milliseconds is repeated a few hundred times and
// one of half a second a few times, each for a steady median.
const (
	setupMinReps = 7
	setupMinTime = 1500 * time.Millisecond
)

// setUp deploys repeatedly and keeps the last deployment; the median of
// the set-up times is setup_s.
func setUp(deployOnce func() (time.Duration, error)) (float64, error) {
	var ts []float64
	var total time.Duration
	for len(ts) < setupMinReps || total < setupMinTime {
		d, err := deployOnce()
		if err != nil {
			return 0, err
		}
		ts = append(ts, seconds(d))
		total += d
	}
	return median(ts), nil
}

// runDirect runs a direct workload: set-up (repeated, median reported),
// oracle, a warm-up, then the measured closed-loop read window. Reads are
// checked and folded into fixed-size windows as they complete, so the
// benchmark's own memory does not grow with the read rate while the
// process's peak memory is sampled.
func runDirect(o options, spec func(options) (*directInputs, error)) (*run, error) {
	in, err := spec(o)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceDirect(o, in)
	}
	r := newRun()
	var d *deployment
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	setupS, err := setUp(func() (time.Duration, error) {
		if d != nil {
			d.close()
		}
		start := time.Now()
		d, err = deploy(in.cfg, nil, 0)
		return time.Since(start), err
	})
	if err != nil {
		return nil, err
	}
	want := oracle(in.oracleGraph, in.pool)

	read := readOp(d.reader(), in.pool, permPicker(o.seed, len(in.pool)))
	checks := make([]*run, clients)
	for c := range checks {
		checks[c] = newRun()
	}
	check := func(c int, s sample) { checkRead(checks[c], in.pool, want, d.fr.Card(), s) }
	streamLoop(clients, directWarmup, read, check)
	ws := make([]*window, clients)
	for c := range ws {
		ws[c] = newWindow(rngFor(o.seed, rngReservoir+uint64(c)))
	}
	// Return the set-up garbage to the OS, so the peak below is the
	// memory of serving, not of the discarded set-up repetitions.
	debug.FreeOSMemory()
	sampler := sampleRSS("self")
	start := time.Now()
	for _, w := range ws {
		w.open(start, o.seconds)
	}
	elapsed := streamLoop(clients, o.seconds, read, func(c int, s sample) {
		check(c, s)
		ws[c].add(s)
	})
	rss, err := sampler.stop()
	if err != nil {
		return nil, err
	}
	for _, c := range checks {
		r.absorb(c)
	}
	all := merge(ws)
	readMetrics(r, all, elapsed)
	r.set("bytes_per_query", float64(all.bytes)/float64(all.reads), "bytes")
	r.set("setup_s", setupS, "s")
	r.set("peak_rss_mb", rss, "MiB")
	return r, nil
}

func flatten(per [][]sample) []sample {
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// checkRead counts one read as an operation: it fails on an error, an
// answer that differs from the oracle, or a round that did not post
// exactly one request frame per site (the paper's guarantee (1)).
func checkRead(r *run, pool []query, want []bool, sites int, s sample) {
	q := pool[s.Q]
	switch {
	case s.Err != nil:
		r.op(false, "qr(%d,%d): %v", q.S, q.T, s.Err)
	case s.OK != want[s.Q]:
		r.op(false, "qr(%d,%d): got %v, oracle %v", q.S, q.T, s.OK, want[s.Q])
	default:
		r.op(s.Wire.FramesSent == int64(sites), "qr(%d,%d): %d request frames for %d sites",
			q.S, q.T, s.Wire.FramesSent, sites)
	}
}

// checkReads is checkRead on every read of the batches.
func checkReads(r *run, pool []query, want []bool, sites int, batches ...[][]sample) {
	for _, b := range batches {
		for _, s := range flatten(b) {
			checkRead(r, pool, want, sites, s)
		}
	}
}

// qpsSlices is how many equal slices of the measured window the read
// rate is taken over; qps is their median, so a stall confined to one
// slice does not move it. A slice's rate is its reads between its first
// and last completion over the time between them.
const qpsSlices = 10

// latKeep is how many read latencies a window keeps: every read up to
// that many, a uniform sample of the reads past it.
const latKeep = 1 << 16

// window accumulates the reads that complete within a measured window:
// the count and the first and last completion of the reads in each slice
// of the window, their wire bytes, and a reservoir of their latencies.
// Its storage is allocated and written when it is made, so it does not
// grow during the window.
type window struct {
	start       time.Time
	slice       time.Duration
	counts      [qpsSlices]int64
	first, last [qpsSlices]time.Duration // completions, since start
	reads       int64
	bytes       int64
	lat         []float64 // milliseconds
	rng         *gen.RNG
}

func newWindow(rng *gen.RNG) *window {
	lat := make([]float64, latKeep)
	for i := range lat {
		lat[i] = 1 // fault the pages in now, not during the window
	}
	return &window{lat: lat[:0], rng: rng}
}

// open starts the window's clock: a window of dur from start.
func (w *window) open(start time.Time, dur time.Duration) {
	w.start, w.slice = start, dur/qpsSlices
}

// add folds one read into the window, if it completed within it.
func (w *window) add(s sample) {
	end := s.Start.Add(s.Lat).Sub(w.start)
	k := int(end / w.slice)
	if end < 0 || k >= qpsSlices {
		return
	}
	if w.counts[k] == 0 || end < w.first[k] {
		w.first[k] = end
	}
	w.last[k] = max(w.last[k], end)
	w.counts[k]++
	w.reads++
	w.bytes += s.Wire.BytesSent + s.Wire.BytesReceived
	ms := float64(s.Lat.Nanoseconds()) / 1e6
	if len(w.lat) < cap(w.lat) {
		w.lat = append(w.lat, ms)
	} else if j := w.rng.Intn(int(w.reads)); j < len(w.lat) {
		w.lat[j] = ms
	}
}

// merge adds up the clients' windows of one measured window.
func merge(ws []*window) *window {
	all := &window{slice: ws[0].slice}
	for _, w := range ws {
		for k, n := range w.counts {
			if n == 0 {
				continue
			}
			if all.counts[k] == 0 || w.first[k] < all.first[k] {
				all.first[k] = w.first[k]
			}
			all.last[k] = max(all.last[k], w.last[k])
			all.counts[k] += n
		}
		all.reads += w.reads
		all.bytes += w.bytes
		all.lat = append(all.lat, w.lat...)
	}
	return all
}

// readMetrics reports read throughput and latency of a measured window
// that lasted elapsed.
func readMetrics(r *run, w *window, elapsed time.Duration) {
	var rates []float64
	for k, n := range w.counts {
		if span := w.last[k] - w.first[k]; n > 1 && span > 0 {
			rates = append(rates, float64(n-1)/span.Seconds())
		}
	}
	r.set("qps", median(rates), "1/s")
	r.set("p50_ms", quantile(w.lat, 0.50), "ms")
	r.set("p99_ms", quantile(w.lat, 0.99), "ms")
	r.note("reads: %d in %.3fs, latency quantiles over %d of them (p99 has %d beyond it)",
		w.reads, elapsed.Seconds(), len(w.lat), len(w.lat)/100)
}

// writeMetrics reports write latency: the median and p90, the highest
// percentile with at least ten samples beyond it at a hundred or more
// writes.
func writeMetrics(r *run, writes []sample) {
	lat := make([]time.Duration, len(writes))
	for i, s := range writes {
		lat[i] = s.Lat
	}
	ms := millis(lat)
	r.set("update_p50_ms", quantile(ms, 0.50), "ms")
	r.set("update_p90_ms", quantile(ms, 0.90), "ms")
	r.note("writes: %d samples (p90 has %d beyond it)", len(writes), len(writes)/10)
}

// writePhase sends n writes of one client's stream through the
// coordinator, one at a time. Each write is timed alone: the index
// rebuild it starts is waited for, untimed, before the next write, so a
// write never queues behind the previous write's rebuild.
func writePhase(d *deployment, edges []edge, n int) []sample {
	st := newUpdateStreams(edges, 1)[0]
	out := make([]sample, 0, n)
	for i := 0; i < n; i++ {
		w := st.at(i)
		out = append(out, timed(-1, func(s *sample) {
			var res changedDirty
			res, s.Err = d.apply(w)
			s.OK = res.changed
		}))
		d.fr.WaitReachIndexes()
	}
	return out
}

// changedDirty is what the benchmark reads from an update's reply.
type changedDirty struct {
	changed bool
	dirty   []int
}

// checkWrites counts every write as an operation: deleting an existing
// edge or re-inserting a deleted one must change the graph.
func checkWrites(r *run, writes []sample) {
	for _, s := range writes {
		switch {
		case s.Err != nil:
			r.op(false, "write: %v", s.Err)
		default:
			r.op(s.OK, "write reported no change")
		}
	}
}

// spanPath is the span dump of a traced run.
func spanPath(o options) string {
	return o.work + "/spans-" + o.workload + "-" + strconv.FormatUint(o.seed, 10) + ".json"
}
