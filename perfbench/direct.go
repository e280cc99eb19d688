package main

import (
	"fmt"
	"sync"
	"time"

	"distreach/internal/fragment"
	"distreach/internal/graph"
	"distreach/internal/netsite"
	"distreach/internal/reachindex"
)

// deployment is the program as a direct workload runs it: one netsite
// site per fragment on loopback TCP, plus a dialed coordinator.
type deployment struct {
	fr    *fragment.Fragmentation
	sites []*netsite.Site
	co    *netsite.Coordinator
}

// deployConfig says how to set up a direct deployment.
type deployConfig struct {
	load      func() (*graph.Graph, error)
	partition func(*graph.Graph) (*fragment.Fragmentation, error)
	slowSite  time.Duration // SiteOptions.Delay of the last site (0: none)
}

// deploy runs the program's set-up calls: load, partition, index build
// (waited for), sites listening and coordinator dialed. With a recorder,
// each step is a span under parent.
func deploy(cfg deployConfig, rec *recorder, parent int64) (*deployment, error) {
	var (
		g   *graph.Graph
		fr  *fragment.Fragmentation
		err error
	)
	rec.time("graph.load", parent, 0, func() { g, err = cfg.load() })
	if err != nil {
		return nil, fmt.Errorf("load graph: %w", err)
	}
	rec.time("fragment.partition", parent, 0, func() { fr, err = cfg.partition(g) })
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	rec.time("reachindex.build", parent, 0, func() {
		fr.EnableReachIndex(reachindex.DefaultBudget)
		fr.WaitReachIndexes()
	})
	d := &deployment{fr: fr}
	rec.time("netsite.listen", parent, 0, func() { err = d.listen(cfg.slowSite) })
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) listen(slow time.Duration) error {
	rep := fragment.NewReplica(d.fr)
	addrs := make([]string, 0, d.fr.Card())
	for i := 0; i < d.fr.Card(); i++ {
		var o netsite.SiteOptions
		if i == d.fr.Card()-1 {
			o.Delay = slow
		}
		s, err := netsite.NewSiteReplica("127.0.0.1:0", rep, i, o)
		if err != nil {
			return fmt.Errorf("start site %d: %w", i, err)
		}
		d.sites = append(d.sites, s)
		addrs = append(addrs, s.Addr())
	}
	co, err := netsite.Dial(addrs, 3*time.Second)
	if err != nil {
		return fmt.Errorf("dial sites: %w", err)
	}
	co.SetAnytime(true)
	d.co = co
	return nil
}

func (d *deployment) close() {
	if d.co != nil {
		d.co.Close()
	}
	for _, s := range d.sites {
		s.Close()
	}
}

// reader answers one read of a pool.
type reader func(q query) (bool, netsite.WireStats, error)

// reader sends reads to the deployment's coordinator.
func (d *deployment) reader() reader {
	return func(q query) (bool, netsite.WireStats, error) { return d.co.Reach(q.S, q.T) }
}

// apply sends one write through the coordinator (sequencer included).
func (d *deployment) apply(w write) (changedDirty, error) {
	res, _, err := d.co.Apply([]netsite.Op{w.op()})
	return changedDirty{res.Changed, res.Dirty}, err
}

// sample is one operation of a closed loop.
type sample struct {
	Q     int // pool index of a read; -1 for a write
	Start time.Time
	Lat   time.Duration
	OK    bool // a read's answer; whether a write changed the graph
	Wire  netsite.WireStats
	Err   error
}

// streamLoop runs one goroutine per client; each issues op back to
// back, starting the next only when the previous returned, until dur has
// passed, and hands every sample to sink as it completes (sink(c, ...) is
// only called from client c's goroutine). It returns the wall time from
// start until the last operation ended.
func streamLoop(clients int, dur time.Duration, op func(c int) sample, sink func(c int, s sample)) time.Duration {
	start := time.Now()
	deadline := start.Add(dur)
	ends := make([]time.Time, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				sink(c, op(c))
			}
			ends[c] = time.Now()
		}(c)
	}
	wg.Wait()
	last := start
	for _, e := range ends {
		if e.After(last) {
			last = e
		}
	}
	return last.Sub(start)
}

// closedLoop is streamLoop keeping every client's samples in issue order.
func closedLoop(clients int, dur time.Duration, op func(c int) sample) ([][]sample, time.Duration) {
	out := make([][]sample, clients)
	elapsed := streamLoop(clients, dur, op, func(c int, s sample) { out[c] = append(out[c], s) })
	return out, elapsed
}

// timed runs fn and fills the sample's start and latency.
func timed(q int, fn func(s *sample)) sample {
	s := sample{Q: q, Start: time.Now()}
	fn(&s)
	s.Lat = time.Since(s.Start)
	return s
}

// readOp returns a closed-loop op that reads the pool entries pick draws.
func readOp(read reader, pool []query, pick func(c int) int) func(c int) sample {
	return func(c int) sample {
		q := pick(c)
		return timed(q, func(s *sample) { s.OK, s.Wire, s.Err = read(pool[q]) })
	}
}
