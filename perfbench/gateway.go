package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"distreach/internal/gen"
	"distreach/internal/graph"
)

// gatewayProc is one cmd/serve child process in self-deployed mode.
type gatewayProc struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
	err    error // Wait's result, set before exited closes
}

// startGateway launches the gateway and waits until it answers /stats.
// The returned duration runs from the launch until that first answer:
// load, partition, index build, loopback sites and dial, all inside the
// child.
func startGateway(bin string, args ...string) (*gatewayProc, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, append([]string{"-listen", addr}, args...)...)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	// The child must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	g := &gatewayProc{
		cmd:    cmd,
		base:   "http://" + addr,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}},
		exited: make(chan struct{}),
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start gateway: %w", err)
	}
	go func() {
		g.err = cmd.Wait()
		close(g.exited)
	}()
	for {
		resp, err := g.client.Get(g.base + "/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return g, time.Since(start), nil
			}
		}
		select {
		case <-g.exited:
			return nil, 0, fmt.Errorf("gateway exited during start-up: %v", g.err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > 2*time.Minute {
			g.stop()
			return nil, 0, errors.New("gateway did not answer /stats within 2m")
		}
	}
}

// stop kills the gateway and waits for it to exit.
func (g *gatewayProc) stop() {
	g.cmd.Process.Kill()
	<-g.exited
	g.client.CloseIdleConnections()
}

func (g *gatewayProc) pid() string { return strconv.Itoa(g.cmd.Process.Pid) }

// getJSON decodes a GET reply into v.
func (g *gatewayProc) getJSON(path string, v any) error {
	resp, err := g.client.Get(g.base + path)
	if err != nil {
		return err
	}
	return decodeReply(resp, v)
}

// postJSON posts body and decodes the reply into v.
func (g *gatewayProc) postJSON(path string, body, v any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := g.client.Post(g.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	return decodeReply(resp, v)
}

func decodeReply(resp *http.Response, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", resp.Request.URL.Path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, v)
}

// queryReply is the part of a gateway query reply the benchmark reads.
type queryReply struct {
	Answer bool   `json:"answer"`
	Dist   *int64 `json:"dist"`
}

// reach is GET /reach.
func (g *gatewayProc) reach(s, t graph.NodeID) (queryReply, error) {
	var rep queryReply
	err := g.getJSON(fmt.Sprintf("/reach?s=%d&t=%d", s, t), &rep)
	return rep, err
}

// hasEdge asks the gateway whether edge (u, v) exists: qbr(u, v, 1) holds
// at distance 1 exactly when it does (u != v).
func (g *gatewayProc) hasEdge(e edge) (bool, error) {
	var rep queryReply
	if err := g.getJSON(fmt.Sprintf("/reachwithin?s=%d&t=%d&l=1", e.U, e.V), &rep); err != nil {
		return false, err
	}
	return rep.Answer && rep.Dist != nil && *rep.Dist == 1, nil
}

// update is POST /update of one edge write.
func (g *gatewayProc) update(w write) (changedDirty, error) {
	op := "insert"
	if w.Delete {
		op = "delete"
	}
	var rep struct {
		Changed bool  `json:"changed"`
		Dirty   []int `json:"dirty"`
	}
	err := g.postJSON("/update", map[string]any{"op": op, "u": w.E.U, "v": w.E.V}, &rep)
	return changedDirty{rep.Changed, rep.Dirty}, err
}

// batch is POST /batch of qr queries; cached answers are included.
func (g *gatewayProc) batch(qs []query) ([]bool, error) {
	type bq struct {
		Class string       `json:"class"`
		S     graph.NodeID `json:"s"`
		T     graph.NodeID `json:"t"`
	}
	req := struct {
		Queries []bq `json:"queries"`
	}{}
	for _, q := range qs {
		req.Queries = append(req.Queries, bq{"reach", q.S, q.T})
	}
	var rep struct {
		Answers []queryReply `json:"answers"`
	}
	if err := g.postJSON("/batch", req, &rep); err != nil {
		return nil, err
	}
	if len(rep.Answers) != len(qs) {
		return nil, fmt.Errorf("batch of %d answered %d", len(qs), len(rep.Answers))
	}
	out := make([]bool, len(qs))
	for i, a := range rep.Answers {
		out[i] = a.Answer
	}
	return out, nil
}

// gwStats is the part of /stats the benchmark reads.
type gwStats struct {
	Updates int64 `json:"updates"`
	Cache   struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	Coalesce struct {
		Rounds  int64 `json:"rounds"`
		Queries int64 `json:"queries"`
	} `json:"coalesce"`
	ReachIndex struct {
		Hits      int64 `json:"hits"`
		Fallbacks int64 `json:"fallbacks"`
	} `json:"reachindex"`
}

func (g *gatewayProc) stats() (gwStats, error) {
	var st gwStats
	err := g.getJSON("/stats", &st)
	return st, err
}

// wireBytes reads the gateway's wire byte totals (sent plus received,
// since dial) from /metrics.
func (g *gatewayProc) wireBytes() (float64, error) {
	resp, err := g.client.Get(g.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	total, found := 0.0, 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || (name != "gateway_wire_sent_bytes_total" && name != "gateway_wire_received_bytes_total") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return 0, fmt.Errorf("metrics %s: %w", name, err)
		}
		total += v
		found++
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if found != 2 {
		return 0, errors.New("metrics: gateway wire byte totals missing")
	}
	return total, nil
}

// Gateway-churn sizes.
const (
	gwSources     = 200
	gwPerSource   = 32 // pool of 6,400 pairs, over the gateway's 4,096-entry cache
	gwZipfSkew    = 0.6
	gwWriteShare  = 0.05
	gwWarmup      = 2 * time.Second
	gwReplayBatch = 1000
)

// gwInputs are gateway-churn's generated inputs.
type gwInputs struct {
	g     *graph.Graph // the benchmark's copy, never mutated
	path  string       // the same graph, in the program's file format
	pool  []query
	edges []edge
}

func gatewayInputs(o options) (*gwInputs, error) {
	g, path, err := sbmGraph(o)
	if err != nil {
		return nil, err
	}
	block := func(v graph.NodeID) int { return int(v) / blockSize }
	edges, err := toggleEdges(rngFor(o.seed, rngEdges), g, block, toggledEdges)
	if err != nil {
		return nil, err
	}
	return &gwInputs{g: g, path: path, pool: groupedPairs(rngFor(o.seed, rngPool), g.NumNodes(), gwSources, gwPerSource), edges: edges}, nil
}

// gatewayArgs are the gateway's flags: defaults, except the contiguous
// partition that aligns fragments with the graph's blocks.
func gatewayArgs(path string, extra ...string) []string {
	return append([]string{"-graph", path, "-k", strconv.Itoa(blocks), "-partition", "contiguous"}, extra...)
}

// churnClients is the gateway-churn load: each client draws Zipf-skewed
// reads from the pool and, with probability gwWriteShare, sends its next
// write instead. The per-client write position carries over between
// calls, so a later loop continues the stream.
type churnClients struct {
	gw      *gatewayProc
	pool    []query
	rngs    []*gen.RNG
	zipfs   []*gen.Zipf
	streams []*updateStream
	pos     []int
}

func newChurnClients(o options, gw *gatewayProc, in *gwInputs) *churnClients {
	cc := &churnClients{gw: gw, pool: in.pool, streams: newUpdateStreams(in.edges, clients), pos: make([]int, clients)}
	for c := 0; c < clients; c++ {
		rng := rngFor(o.seed, rngClients+uint64(c))
		cc.rngs = append(cc.rngs, rng)
		cc.zipfs = append(cc.zipfs, gen.NewZipf(rng, len(in.pool), gwZipfSkew))
	}
	return cc
}

func (cc *churnClients) op(c int) sample {
	if cc.rngs[c].Float64() < gwWriteShare {
		w := cc.streams[c].at(cc.pos[c])
		cc.pos[c]++
		return timed(-1, func(s *sample) {
			var res changedDirty
			res, s.Err = cc.gw.update(w)
			s.OK = res.changed
		})
	}
	q := cc.zipfs[c].Next()
	return timed(q, func(s *sample) {
		var rep queryReply
		rep, s.Err = cc.gw.reach(cc.pool[q].S, cc.pool[q].T)
		s.OK = rep.Answer
	})
}

// restore re-inserts the edge of every client whose last write was a
// delete, so the graph is back to the generated one.
func (cc *churnClients) restore() []sample {
	var out []sample
	for c, st := range cc.streams {
		if cc.pos[c]%2 == 1 {
			w := st.at(cc.pos[c])
			cc.pos[c]++
			out = append(out, timed(-1, func(s *sample) {
				var res changedDirty
				res, s.Err = cc.gw.update(w)
				s.OK = res.changed
			}))
		}
	}
	return out
}

// split separates a loop's samples into reads and writes.
func split(per [][]sample) (reads, writes []sample) {
	for _, s := range flatten(per) {
		if s.Q < 0 {
			writes = append(writes, s)
		} else {
			reads = append(reads, s)
		}
	}
	return reads, writes
}

// verifyGateway checks the gateway after the load: every toggled edge is
// back, and the whole pool, replayed through /batch with cached answers
// included, equals the oracle.
func verifyGateway(r *run, gw *gatewayProc, in *gwInputs, want []bool) {
	for _, e := range in.edges {
		ok, err := gw.hasEdge(e)
		r.op(err == nil && ok, "edge %d->%d not restored (err %v)", e.U, e.V, err)
	}
	for lo := 0; lo < len(in.pool); lo += gwReplayBatch {
		hi := min(lo+gwReplayBatch, len(in.pool))
		got, err := gw.batch(in.pool[lo:hi])
		if err != nil {
			r.op(false, "replay batch: %v", err)
			continue
		}
		for i, a := range got {
			q := in.pool[lo+i]
			r.op(a == want[lo+i], "replayed qr(%d,%d): got %v, oracle %v", q.S, q.T, a, want[lo+i])
		}
	}
}

// checkChurn counts the load's operations: reads and writes must not
// fail, and writes must change the graph. Reads under churn are checked
// against the oracle by the replay once writes stop.
func checkChurn(r *run, reads, writes []sample) {
	for _, s := range reads {
		r.op(s.Err == nil, "read: %v", s.Err)
	}
	checkWrites(r, writes)
}

// runGateway runs gateway-churn: the cmd/serve binary, self-deployed on
// the community graph, under 95% Zipf-skewed GET /reach and 5% POST
// /update from two closed-loop clients.
func runGateway(o options) (*run, error) {
	if o.serve == "" {
		return nil, errors.New("gateway-churn needs -serve (the cmd/serve binary)")
	}
	in, err := gatewayInputs(o)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceGateway(o, in)
	}
	r := newRun()
	var gw *gatewayProc
	defer func() {
		if gw != nil {
			gw.stop()
		}
	}()
	setupS, err := setUp(func() (time.Duration, error) {
		if gw != nil {
			gw.stop()
		}
		var d time.Duration
		gw, d, err = startGateway(o.serve, gatewayArgs(in.path)...)
		return d, err
	})
	if err != nil {
		return nil, err
	}
	want := oracle(in.g, in.pool)

	cc := newChurnClients(o, gw, in)
	warmR, warmW := split(samplesOf(closedLoop(clients, gwWarmup, cc.op)))
	bytes0, err := gw.wireBytes()
	if err != nil {
		return nil, err
	}
	st0, err := gw.stats()
	if err != nil {
		return nil, err
	}
	sampler := sampleRSS(gw.pid())
	start := time.Now()
	meas, elapsed := closedLoop(clients, o.seconds, cc.op)
	rss, err := sampler.stop()
	if err != nil {
		return nil, err
	}
	bytes1, err := gw.wireBytes()
	if err != nil {
		return nil, err
	}
	st1, err := gw.stats()
	if err != nil {
		return nil, err
	}
	reads, writes := split(meas)
	checkChurn(r, append(warmR, reads...), append(warmW, writes...))
	checkWrites(r, cc.restore())
	verifyGateway(r, gw, in, want)

	w := newWindow(rngFor(o.seed, rngReservoir))
	w.open(start, o.seconds)
	for _, s := range reads {
		w.add(s)
	}
	readMetrics(r, w, elapsed)
	r.note("writes: %d in the window", len(writes))
	// Wire bytes per read that went to the sites (a cache miss); the few
	// update frames of the window are included. The gateway_query_wire_bytes
	// histogram is not used: it counts a coalesced round's bytes once per
	// query in the round.
	misses := st1.Cache.Misses - st0.Cache.Misses
	if misses <= 0 {
		return nil, errors.New("no uncached read in the measured window")
	}
	r.set("bytes_per_query", (bytes1-bytes0)/float64(misses), "bytes")
	r.note("bytes_per_query over %d uncached reads", misses)
	r.set("setup_s", setupS, "s")
	r.set("peak_rss_mb", rss, "MiB")
	return r, nil
}

// samplesOf drops closedLoop's elapsed time.
func samplesOf(per [][]sample, _ time.Duration) [][]sample { return per }
