package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	neturl "net/url"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"distreach/internal/automaton"
	"distreach/internal/core"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/netsite"
	"distreach/internal/reachindex"
)

// loadConfig drives the load generator: N concurrent clients against
// either an in-process TCP deployment (the default) or a running
// cmd/serve gateway (-url), in one of two loop disciplines:
//
//   - closed loop (rate == 0): each client issues its next query as soon
//     as the previous one answers. Measures peak sustainable throughput;
//     latency self-limits to the service time.
//   - open loop (-rate R): arrivals follow a fixed schedule (Poisson or
//     uniform gaps) independent of completions, the way real traffic
//     does. Latency is measured from the SCHEDULED arrival, so queue
//     delay under overload shows up instead of being coordinated away,
//     and the dequeue delay is reported separately as lateness.
type loadConfig struct {
	clients   int
	duration  time.Duration
	class     string        // qr | qbr | qrr | mixed
	url       string        // non-empty: drive an HTTP gateway instead
	batch     int           // queries per wire batch; 1 = single-query API
	churn     float64       // updates per second mixed into the stream; 0 = none
	nodechurn bool          // mix node inserts/deletes into the churn stream
	rebalance time.Duration // force a live re-fragmentation at this interval; 0 = never
	siteDelay string        // comma-separated per-site service delays, cycled over sites
	delays    []time.Duration
	rate      float64 // offered arrivals per second; 0 = closed loop
	arrival   string  // open loop schedule: poisson | uniform
	jsonPath  string  // non-empty: write a schema-versioned report here
	snap      string  // non-empty: load the in-process graph from this SNAP file
	index     bool    // enable the per-fragment reachability index (in-process mode)
	indexBgt  int64   // with index: per-fragment label budget in bytes
	indexPol  string  // with index: budget policy, postorder | hits
	nodes     int
	edges     int
	k         int
	seed      uint64
}

// clientStats is one client's tally.
type clientStats struct {
	lats []time.Duration
	late []time.Duration // open loop: dequeue time - scheduled arrival
	errs int
}

// faRecorder accumulates per-round first-answer latencies
// (WireStats.FirstAnswer) across all clients of a wire-mode run.
type faRecorder struct {
	mu   sync.Mutex
	lats []time.Duration
}

func (r *faRecorder) add(d time.Duration) {
	if d <= 0 {
		return
	}
	r.mu.Lock()
	r.lats = append(r.lats, d)
	r.mu.Unlock()
}

// parseSiteDelays parses the -sitedelay value: one duration, or a
// comma-separated list assigned per site (cycling when the deployment has
// more sites than entries) to emulate delay skew — the straggler shape
// exp N10 measures the anytime protocol against.
func parseSiteDelays(s string) ([]time.Duration, error) {
	if strings.TrimSpace(s) == "" {
		return []time.Duration{0}, nil
	}
	parts := strings.Split(s, ",")
	ds := make([]time.Duration, len(parts))
	for i, p := range parts {
		d, err := time.ParseDuration(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad -sitedelay entry %q: %w", p, err)
		}
		if d < 0 {
			return nil, fmt.Errorf("negative -sitedelay entry %q", p)
		}
		ds[i] = d
	}
	return ds, nil
}

func runLoad(cfg loadConfig) error {
	switch cfg.class {
	case "qr", "qbr", "qrr", "mixed":
	default:
		return fmt.Errorf("unknown query class %q (want qr, qbr, qrr or mixed)", cfg.class)
	}
	switch cfg.arrival {
	case "poisson", "uniform":
	default:
		return fmt.Errorf("unknown arrival schedule %q (want poisson or uniform)", cfg.arrival)
	}
	if cfg.batch < 1 {
		cfg.batch = 1
	}
	delays, err := parseSiteDelays(cfg.siteDelay)
	if err != nil {
		return err
	}
	cfg.delays = delays
	var issue, update func(rng *gen.RNG, q int) error
	var rebalance func(epoch uint64) error
	var idxRep func() *indexReport
	var anyRep func(rounds int) *anytimeReport
	var maxLag atomic.Uint64   // worst replica lag observed (wire mode; batches)
	var wireBytes atomic.Int64 // sent+received across all wire rounds
	var fa faRecorder          // wire mode: per-round first-answer latencies
	wireMode := cfg.url == ""
	target := cfg.url
	if cfg.url != "" {
		issue, update, rebalance = httpIssuer(cfg)
	} else {
		var cleanup func()
		var err error
		issue, update, rebalance, cleanup, idxRep, anyRep, err = wireIssuer(&cfg, &maxLag, &wireBytes, &fa)
		if err != nil {
			return err
		}
		defer cleanup()
		src := "synthetic"
		if cfg.snap != "" {
			src = cfg.snap
		}
		target = fmt.Sprintf("in-process deployment (%d sites, |V|=%d, |E|=%d, %s)", cfg.k, cfg.nodes, cfg.edges, src)
	}

	mode := "closed"
	if cfg.rate > 0 {
		mode = fmt.Sprintf("open %.0f/s %s", cfg.rate, cfg.arrival)
	}
	fmt.Fprintf(os.Stderr, "load: %d clients, %v, %s loop, class %s, batch %d, churn %.1f/s (node ops %v), rebalance %v, target %s\n",
		cfg.clients, cfg.duration, mode, cfg.class, cfg.batch, cfg.churn, cfg.nodechurn, cfg.rebalance, target)
	stats := make([]clientStats, cfg.clients)
	deadline := time.Now().Add(cfg.duration)
	start := time.Now()
	var wg sync.WaitGroup
	if cfg.rate > 0 {
		driveOpen(cfg, &wg, stats, issue, start, deadline)
	} else {
		driveClosed(cfg, &wg, stats, issue, deadline)
	}
	// The churn loop: a dedicated updater mixing edge inserts/deletes into
	// the query stream at the requested rate, paced by a fixed interval.
	var updates, uerrs int
	if cfg.churn > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := gen.NewRNG(cfg.seed*31337 + 7)
			interval := time.Duration(float64(time.Second) / cfg.churn)
			for i := 0; time.Now().Before(deadline); i++ {
				t0 := time.Now()
				if err := update(rng, i); err != nil {
					uerrs++
				} else {
					updates++
				}
				if d := interval - time.Since(t0); d > 0 {
					time.Sleep(d)
				}
			}
		}()
	}
	// Forced rebalances: a dedicated loop re-fragments the deployment at
	// the requested interval while queries and churn keep flowing — the
	// smoke form of the zero-downtime epoch switch.
	var rebalances, rerrs int
	if cfg.rebalance > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for epoch := uint64(1); time.Now().Before(deadline); epoch++ {
				time.Sleep(cfg.rebalance)
				if !time.Now().Before(deadline) {
					return
				}
				if err := rebalance(epoch); err != nil {
					rerrs++
				} else {
					rebalances++
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all, late []time.Duration
	errs := 0
	for _, s := range stats {
		all = append(all, s.lats...)
		late = append(late, s.late...)
		errs += s.errs
	}
	if len(all) == 0 {
		return fmt.Errorf("load: no queries completed (%d errors)", errs)
	}
	lat := summarize(all)
	// With -batch N every issue ships N queries in one wire round, so
	// throughput counts queries while the latency columns describe whole
	// batches (what one caller waits for).
	queries := len(all) * cfg.batch
	fmt.Printf("queries     %d in %d rounds (%d errors)\n", queries, len(all), errs)
	if cfg.churn > 0 {
		fmt.Printf("updates     %d applied (%d errors)\n", updates, uerrs)
		if wireMode {
			fmt.Printf("replica lag max %d batches behind the sequencer\n", maxLag.Load())
		}
	}
	if cfg.rebalance > 0 {
		fmt.Printf("rebalances  %d applied (%d errors)\n", rebalances, rerrs)
	}
	fmt.Printf("elapsed     %v\n", elapsed.Round(time.Millisecond))
	if cfg.rate > 0 {
		fmt.Printf("offered     %.0f q/s (%s arrivals)\n", cfg.rate, cfg.arrival)
	}
	fmt.Printf("throughput  %.0f q/s\n", float64(queries)/elapsed.Seconds())
	unit := "query"
	if cfg.batch > 1 {
		unit = fmt.Sprintf("batch of %d", cfg.batch)
	}
	fmt.Printf("latency     per %s: mean %s  p50 %s  p90 %s  p99 %s  max %s\n", unit,
		fmtDurationUS(lat.MeanUS), fmtDurationUS(lat.P50US), fmtDurationUS(lat.P90US),
		fmtDurationUS(lat.P99US), fmtDurationUS(lat.MaxUS))
	var firstAnswer *latencySummary
	if len(fa.lats) > 0 {
		f := summarize(fa.lats)
		firstAnswer = &f
		fmt.Printf("first ans   p50 %s  p90 %s  p99 %s  max %s\n",
			fmtDurationUS(f.P50US), fmtDurationUS(f.P90US), fmtDurationUS(f.P99US), fmtDurationUS(f.MaxUS))
	}
	var lateness *latencySummary
	if cfg.rate > 0 {
		l := summarize(late)
		lateness = &l
		fmt.Printf("lateness    dequeue - schedule: p50 %s  p99 %s  max %s\n",
			fmtDurationUS(l.P50US), fmtDurationUS(l.P99US), fmtDurationUS(l.MaxUS))
	}
	if wireMode {
		fmt.Printf("wire        %.0f bytes/query\n", float64(wireBytes.Load())/float64(queries))
	}
	var anyr *anytimeReport
	if anyRep != nil {
		anyr = anyRep(len(all))
		fmt.Printf("anytime     enabled %v: %d early terminations (%.0f%% of rounds), %d cancels\n",
			anyr.Enabled, anyr.EarlyTerminations, 100*anyr.EarlyTermRate, anyr.CancelsSent)
	}
	var idxr *indexReport
	if idxRep != nil {
		idxr = idxRep()
		fmt.Printf("reachindex  hit rate %.2f (%d hits, %d fallbacks), %d label bytes, %d rebuilds (%s policy, last %dus)\n",
			idxr.HitRate, idxr.Hits, idxr.Fallbacks, idxr.LabelBytes, idxr.Rebuilds, idxr.Policy, idxr.LastRebuildUS)
		fmt.Printf("local eval  direct %.0fus -> indexed %.0fus per query (%.1fx)\n",
			idxr.DirectUSPerQuery, idxr.IndexedUSPerQuery, idxr.LocalEvalSpeedup)
		fmt.Printf("index build serial %.0fus -> parallel %.0fus (%.1fx across %d cores)\n",
			idxr.BuildSerialUS, idxr.BuildParallelUS, idxr.BuildSpeedup, runtime.GOMAXPROCS(0))
	}

	if cfg.jsonPath != "" {
		rep := benchReport{
			Schema: benchSchema,
			Meta:   collectRunMeta(),
			Mode:   map[bool]string{true: "open", false: "closed"}[cfg.rate > 0],
			Config: benchReportConfig{
				Clients:     cfg.clients,
				DurationSec: cfg.duration.Seconds(),
				Class:       cfg.class,
				Batch:       cfg.batch,
				ChurnPerSec: cfg.churn,
				NodeChurn:   cfg.nodechurn,
				RebalanceMS: cfg.rebalance.Milliseconds(),
				RatePerSec:  cfg.rate,
				Arrival:     cfg.arrival,
				SiteDelay:   cfg.siteDelay,
				Snap:        cfg.snap,
				URL:         cfg.url,
				Nodes:       cfg.nodes,
				Edges:       cfg.edges,
				K:           cfg.k,
				Seed:        cfg.seed,
			},
			Queries:      queries,
			Rounds:       len(all),
			Errors:       errs,
			ElapsedSec:   elapsed.Seconds(),
			QPS:          float64(queries) / elapsed.Seconds(),
			Latency:      lat,
			FirstAnswer:  firstAnswer,
			Lateness:     lateness,
			Updates:      updates,
			UpdateErrors: uerrs,
			Rebalances:   rebalances,
			MaxLag:       maxLag.Load(),
			RSSBytes:     rssBytes(),
			ReachIndex:   idxr,
			Anytime:      anyr,
		}
		if cfg.rate > 0 {
			rep.OfferedQPS = cfg.rate
		}
		if wireMode {
			rep.BytesPerQuery = float64(wireBytes.Load()) / float64(queries)
		}
		if err := writeReport(cfg.jsonPath, rep); err != nil {
			return fmt.Errorf("load: writing %s: %w", cfg.jsonPath, err)
		}
		fmt.Fprintf(os.Stderr, "load: wrote %s\n", cfg.jsonPath)
	}
	if errs > 0 {
		return fmt.Errorf("load: %d queries failed", errs)
	}
	if uerrs > 0 {
		return fmt.Errorf("load: %d updates failed", uerrs)
	}
	if rerrs > 0 {
		return fmt.Errorf("load: %d rebalances failed", rerrs)
	}
	return nil
}

// driveClosed starts the closed-loop clients: each issues back-to-back.
func driveClosed(cfg loadConfig, wg *sync.WaitGroup, stats []clientStats, issue func(*gen.RNG, int) error, deadline time.Time) {
	for w := 0; w < cfg.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := gen.NewRNG(cfg.seed + uint64(w)*7919)
			for q := 0; time.Now().Before(deadline); q++ {
				t0 := time.Now()
				if err := issue(rng, q); err != nil {
					stats[w].errs++ // failed queries don't count as served work
					continue
				}
				stats[w].lats = append(stats[w].lats, time.Since(t0))
			}
		}(w)
	}
}

// driveOpen starts the open-loop machinery: one generator emitting
// scheduled arrival times (Poisson or uniform gaps at cfg.rate), and
// cfg.clients workers draining them. Latency is charged from the
// scheduled arrival; the dequeue delay is tracked as lateness.
func driveOpen(cfg loadConfig, wg *sync.WaitGroup, stats []clientStats, issue func(*gen.RNG, int) error, start, deadline time.Time) {
	arrivals := make(chan time.Time, 1<<14)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(arrivals)
		rng := gen.NewRNG(cfg.seed ^ 0xA5A5A5A5)
		next := start
		for {
			gap := time.Duration(float64(time.Second) / cfg.rate)
			if cfg.arrival == "poisson" {
				// Exponential inter-arrival: -ln(1-U)/rate.
				gap = time.Duration(-math.Log(1-rng.Float64()) * float64(time.Second) / cfg.rate)
			}
			next = next.Add(gap)
			if next.After(deadline) {
				return
			}
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			arrivals <- next
		}
	}()
	for w := 0; w < cfg.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := gen.NewRNG(cfg.seed + uint64(w)*7919)
			for q := 0; ; q++ {
				sched, ok := <-arrivals
				if !ok {
					return
				}
				stats[w].late = append(stats[w].late, time.Since(sched))
				if err := issue(rng, q); err != nil {
					stats[w].errs++
					continue
				}
				stats[w].lats = append(stats[w].lats, time.Since(sched))
			}
		}(w)
	}
}

var loadLabels = []string{"A", "B", "C"}

// pickQuery draws one query of the configured class mix.
func pickQuery(class string, rng *gen.RNG, q, n int) (cls string, s, t graph.NodeID, l int) {
	if class == "mixed" {
		cls = []string{"qr", "qbr", "qrr"}[q%3]
	} else {
		cls = class
	}
	s = graph.NodeID(rng.Intn(n))
	t = graph.NodeID(rng.Intn(n))
	l = 1 + rng.Intn(8)
	return cls, s, t, l
}

// wireIssuer deploys loopback sites in-process and drives them over the
// multiplexed TCP protocol through a single shared coordinator. The graph
// is synthetic by default, or loaded from cfg.snap (a SNAP edge list,
// plain or gzipped; cfg.nodes/cfg.edges are overwritten with the real
// counts). Sites get their service delays from cfg.delays, cycled — a
// multi-entry -sitedelay emulates per-site skew. Wire traffic accumulates
// into wireBytes; fa records each query round's first-answer latency;
// maxLag samples the worst replica lag observed — how many sequenced
// batches the slowest site trails the sequencer by.
func wireIssuer(cfg *loadConfig, maxLag *atomic.Uint64, wireBytes *atomic.Int64, fa *faRecorder) (func(*gen.RNG, int) error, func(*gen.RNG, int) error, func(uint64) error, func(), func() *indexReport, func(int) *anytimeReport, error) {
	var g *graph.Graph
	if cfg.snap != "" {
		var err error
		g, err = graph.OpenSNAP(cfg.snap, loadLabels)
		if err != nil {
			return nil, nil, nil, nil, nil, nil, err
		}
		cfg.nodes, cfg.edges = g.NumNodes(), g.NumEdges()
	} else {
		g = gen.PowerLaw(gen.Config{Nodes: cfg.nodes, Edges: cfg.edges, Labels: loadLabels, Seed: cfg.seed})
	}
	fr, err := fragment.Random(g, cfg.k, cfg.seed)
	if err != nil {
		return nil, nil, nil, nil, nil, nil, err
	}
	if cfg.index {
		if cfg.indexBgt <= 0 {
			cfg.indexBgt = reachindex.DefaultBudget
		}
		pol, err := reachindex.ParsePolicy(cfg.indexPol)
		if err != nil {
			return nil, nil, nil, nil, nil, nil, err
		}
		fr.SetReachIndexPolicy(pol)
		fr.EnableReachIndex(cfg.indexBgt)
	}
	rep := fragment.NewReplica(fr)
	sites := make([]*netsite.Site, 0, fr.Card())
	addrs := make([]string, 0, fr.Card())
	for i, f := range fr.Fragments() {
		s, err := netsite.NewSiteReplica("127.0.0.1:0", rep, f.ID, netsite.SiteOptions{Delay: cfg.delays[i%len(cfg.delays)]})
		if err != nil {
			for _, prev := range sites {
				prev.Close()
			}
			return nil, nil, nil, nil, nil, nil, err
		}
		sites = append(sites, s)
		addrs = append(addrs, s.Addr())
	}
	co, err := netsite.Dial(addrs, 3*time.Second)
	if err != nil {
		for _, s := range sites {
			s.Close()
		}
		return nil, nil, nil, nil, nil, nil, err
	}
	var idxRep func() *indexReport
	if cfg.index {
		// Invoked once after the load completes: snapshot the counters the
		// serving traffic produced, then calibrate direct vs indexed local
		// evaluation on the final graph for the apples-to-apples speedup.
		idxRep = func() *indexReport {
			cur, _ := rep.Current()
			cur.WaitReachIndexes()
			st := cur.ReachIndexStats()
			r := &indexReport{
				Enabled:        st.Enabled,
				BudgetBytes:    st.BudgetBytes,
				Policy:         st.Policy,
				LabelBytes:     st.LabelBytes,
				Fragments:      st.Fragments,
				Hits:           st.Hits,
				Fallbacks:      st.Fallbacks,
				HitRate:        st.HitRate(),
				Rebuilds:       st.Rebuilds,
				LastRebuildUS:  st.LastBuild.Microseconds(),
				TotalRebuildUS: st.TotalBuild.Microseconds(),
			}
			r.DirectUSPerQuery, r.IndexedUSPerQuery = calibrateLocalEval(cur, 200, cfg.seed)
			if r.IndexedUSPerQuery > 0 {
				r.LocalEvalSpeedup = r.DirectUSPerQuery / r.IndexedUSPerQuery
			}
			r.BuildSerialUS, r.BuildParallelUS = calibrateBuildTimes(cur, cfg.indexBgt)
			if r.BuildParallelUS > 0 {
				r.BuildSpeedup = r.BuildSerialUS / r.BuildParallelUS
			}
			return r
		}
	}
	cleanup := func() {
		co.Close()
		for _, s := range sites {
			s.Close()
		}
	}
	account := func(st netsite.WireStats) {
		wireBytes.Add(st.BytesSent + st.BytesReceived)
	}
	nodes := cfg.nodes
	issue := func(rng *gen.RNG, q int) error {
		if cfg.batch > 1 {
			qs := make([]netsite.BatchQuery, cfg.batch)
			for i := range qs {
				qs[i] = pickBatchQuery(cfg.class, nodes, rng, q*cfg.batch+i)
			}
			_, st, err := co.Batch(qs)
			account(st)
			if err == nil {
				fa.add(st.FirstAnswer)
			}
			return err
		}
		cls, s, t, l := pickQuery(cfg.class, rng, q, nodes)
		var st netsite.WireStats
		var err error
		switch cls {
		case "qr":
			_, st, err = co.Reach(s, t)
		case "qbr":
			_, _, st, err = co.ReachWithin(s, t, l)
		case "qrr":
			a := automaton.Random(rng, 2+rng.Intn(4), 4+rng.Intn(8), loadLabels)
			_, st, err = co.ReachRegex(s, t, a)
		}
		account(st)
		if err == nil {
			fa.add(st.FirstAnswer)
		}
		return err
	}
	anyRep := func(rounds int) *anytimeReport {
		st := co.AnytimeStats()
		r := &anytimeReport{
			Enabled:           co.Anytime(),
			EarlyTerminations: st.EarlyTerminations,
			CancelsSent:       st.CancelsSent,
			Stragglers:        st.Stragglers,
		}
		if rounds > 0 {
			r.EarlyTermRate = float64(st.EarlyTerminations) / float64(rounds)
		}
		return r
	}
	update := func(rng *gen.RNG, i int) error {
		_, st, err := co.Apply([]netsite.Op{pickUpdate(cfg.nodechurn, nodes, rng, i)})
		account(st)
		// Sample the worst replica lag: how far the slowest site trails the
		// sequencer's total order right now (CAS max — concurrent samplers
		// must not overwrite a larger observation).
		seq := co.Sequencer().LSN()
		for _, l := range co.ReplicaLSNs() {
			if l >= seq {
				continue
			}
			lag := seq - l
			for {
				cur := maxLag.Load()
				if lag <= cur || maxLag.CompareAndSwap(cur, lag) {
					break
				}
			}
		}
		if err != nil && strings.Contains(err.Error(), "not a live node") {
			// Random churn aimed an edge op at a node a previous op
			// deleted; the deployment rightly rejected the batch. That is
			// organic no-op churn, not a serving failure.
			return nil
		}
		return err
	}
	rebalance := func(epoch uint64) error {
		_, st, err := co.Rebalance(epoch, "edgecut", cfg.seed+epoch)
		account(st)
		return err
	}
	return issue, update, rebalance, cleanup, idxRep, anyRep, nil
}

// calibrateLocalEval times the per-query site CPU — the summed local
// evaluation across every fragment, which is exactly the work the index
// replaces — over `rounds` random queries, once forced direct
// (NoFragmentIndex) and once through the installed index. The
// coordinator's equation solve is excluded: it is byte-identical on both
// paths, and including it would dilute the site-CPU ratio the index is
// judged on (exp N8 reports both views).
func calibrateLocalEval(fr *fragment.Fragmentation, rounds int, seed uint64) (directUS, indexedUS float64) {
	rng := gen.NewRNG(seed ^ 0xC0FFEE)
	n := fr.Graph().NumNodes()
	type pair struct{ s, t graph.NodeID }
	qs := make([]pair, rounds)
	for i := range qs {
		qs[i] = pair{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
	}
	run := func(opt *core.Options) float64 {
		t0 := time.Now()
		for _, q := range qs {
			for _, f := range fr.Fragments() {
				core.LocalEvalReach(f, q.s, q.t, opt)
			}
		}
		return float64(time.Since(t0).Microseconds()) / float64(len(qs))
	}
	directUS = run(&core.Options{NoFragmentIndex: true})
	indexedUS = run(nil)
	return directUS, indexedUS
}

// calibrateBuildTimes measures the full index build over every fragment
// of the final graph, single-threaded vs all cores — the async rebuild
// window a mutation or rebalance opens, which the parallel builder
// exists to shrink. A throwaway warm-up pass first populates the lazily
// cached AsGraph/LocalSCC views so both timed passes measure only the
// build itself.
func calibrateBuildTimes(fr *fragment.Fragmentation, budget int64) (serialUS, parallelUS float64) {
	run := func(workers int) float64 {
		fr.RLock()
		defer fr.RUnlock()
		t0 := time.Now()
		for _, f := range fr.Fragments() {
			comp := f.LocalSCC()
			nc := 0
			for _, c := range comp {
				if int(c)+1 > nc {
					nc = int(c) + 1
				}
			}
			reachindex.Build(reachindex.Spec{
				Graph:    f.AsGraph(),
				Comp:     comp,
				NC:       nc,
				Boundary: f.IsBoundary,
				Sources:  f.InNodes(),
				Budget:   budget,
				Workers:  workers,
			})
		}
		return float64(time.Since(t0).Microseconds())
	}
	run(1) // warm the cached views
	serialUS = run(1)
	parallelUS = run(0)
	return serialUS, parallelUS
}

// pickUpdate draws one mutation. Edge inserts and deletes alternate so the
// graph's size stays roughly stable under sustained churn; with -nodechurn
// every fourth op is a node insert or delete instead, exercising the
// live node set (deletes aim at random IDs, so some are no-ops — exactly
// the shape of organic churn).
func pickUpdate(nodechurn bool, nodes int, rng *gen.RNG, i int) netsite.Op {
	if nodechurn && i%4 == 3 {
		if i%8 == 3 {
			return netsite.Op{Kind: netsite.OpInsertNode, Label: loadLabels[rng.Intn(len(loadLabels))], Frag: -1}
		}
		return netsite.Op{Kind: netsite.OpDeleteNode, U: graph.NodeID(rng.Intn(nodes))}
	}
	kind := netsite.OpInsertEdge
	if i%2 == 1 {
		kind = netsite.OpDeleteEdge
	}
	return netsite.Op{Kind: kind, U: graph.NodeID(rng.Intn(nodes)), V: graph.NodeID(rng.Intn(nodes))}
}

// pickBatchQuery draws one wire batch query of the configured class mix.
func pickBatchQuery(class string, nodes int, rng *gen.RNG, q int) netsite.BatchQuery {
	cls, s, t, l := pickQuery(class, rng, q, nodes)
	switch cls {
	case "qbr":
		return netsite.BatchQuery{Class: netsite.ClassDist, S: s, T: t, L: l}
	case "qrr":
		a := automaton.Random(rng, 2+rng.Intn(4), 4+rng.Intn(8), loadLabels)
		return netsite.BatchQuery{Class: netsite.ClassRPQ, S: s, T: t, A: a}
	default:
		return netsite.BatchQuery{Class: netsite.ClassReach, S: s, T: t}
	}
}

// httpIssuer drives a running cmd/serve gateway. Node IDs are drawn from
// [0, nodes); point -nodes at the deployed graph's size. With -batch N the
// issuer posts N queries per POST /batch call instead of one GET each.
// The second function posts one POST /update per call (the -churn loop);
// the third posts POST /rebalance (the forced-rebalance loop).
func httpIssuer(cfg loadConfig) (func(*gen.RNG, int) error, func(*gen.RNG, int) error, func(uint64) error) {
	client := &http.Client{Timeout: 10 * time.Second}
	exprs := []string{"A(A|B)*", "(A|B|C)+", "AB*C?"}
	update := func(rng *gen.RNG, i int) error {
		op := pickUpdate(cfg.nodechurn, cfg.nodes, rng, i)
		m := map[string]any{}
		switch op.Kind {
		case netsite.OpInsertEdge:
			m = map[string]any{"op": "insert", "u": uint32(op.U), "v": uint32(op.V)}
		case netsite.OpDeleteEdge:
			m = map[string]any{"op": "delete", "u": uint32(op.U), "v": uint32(op.V)}
		case netsite.OpInsertNode:
			m = map[string]any{"op": "insertnode", "label": op.Label}
		case netsite.OpDeleteNode:
			m = map[string]any{"op": "deletenode", "u": uint32(op.U)}
		}
		body, err := json.Marshal(m)
		if err != nil {
			return err
		}
		resp, err := client.Post(cfg.url+"/update", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			if strings.Contains(string(msg), "not a live node") {
				return nil // churn aimed at a tombstone; expected no-op
			}
			return fmt.Errorf("POST /update: status %s", resp.Status)
		}
		return nil
	}
	rebalance := func(uint64) error {
		resp, err := client.Post(cfg.url+"/rebalance", "application/json", strings.NewReader("{}"))
		if err != nil {
			return err
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return nil
		case http.StatusConflict:
			return nil // a round is already in flight: the intent is served
		default:
			return fmt.Errorf("POST /rebalance: status %s", resp.Status)
		}
	}
	if cfg.batch > 1 {
		type batchQuery struct {
			Class string `json:"class"`
			S     uint32 `json:"s"`
			T     uint32 `json:"t"`
			L     *int   `json:"l,omitempty"`
			R     string `json:"r,omitempty"`
		}
		issue := func(rng *gen.RNG, q int) error {
			qs := make([]batchQuery, cfg.batch)
			for i := range qs {
				n := q*cfg.batch + i
				cls, s, t, l := pickQuery(cfg.class, rng, n, cfg.nodes)
				bq := batchQuery{S: uint32(s), T: uint32(t)}
				switch cls {
				case "qr":
					bq.Class = "reach"
				case "qbr":
					bq.Class = "reachwithin"
					bound := l
					bq.L = &bound
				case "qrr":
					bq.Class = "reachregex"
					bq.R = exprs[n%len(exprs)]
				}
				qs[i] = bq
			}
			body, err := json.Marshal(map[string]any{"queries": qs})
			if err != nil {
				return err
			}
			resp, err := client.Post(cfg.url+"/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("POST /batch: status %s", resp.Status)
			}
			return nil
		}
		return issue, update, rebalance
	}
	issue := func(rng *gen.RNG, q int) error {
		cls, s, t, l := pickQuery(cfg.class, rng, q, cfg.nodes)
		var url string
		switch cls {
		case "qr":
			url = fmt.Sprintf("%s/reach?s=%d&t=%d", cfg.url, s, t)
		case "qbr":
			url = fmt.Sprintf("%s/reachwithin?s=%d&t=%d&l=%d", cfg.url, s, t, l)
		case "qrr":
			url = fmt.Sprintf("%s/reachregex?s=%d&t=%d&r=%s",
				cfg.url, s, t, neturl.QueryEscape(exprs[q%len(exprs)]))
		}
		resp, err := client.Get(url)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %s", url, resp.Status)
		}
		return nil
	}
	return issue, update, rebalance
}
