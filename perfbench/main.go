// Command perfbench is the repository benchmark: closed-loop workloads
// against the real serving code (netsite sites over loopback TCP, and the
// cmd/serve gateway binary), every answer checked against a single-site
// oracle. It prints one JSON result line last:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run times calls into each layer's public functions from
// the benchmark's own code and reports per-layer numbers. Run it from the
// repository root through perfbench/run.sh, which builds it first.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// The load: 2 closed-loop clients (the reference host has 2 cores).
const clients = 2

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run accumulates one benchmark run's checks and metrics.
type run struct {
	attempted, failed int64
	problems          []string
	metrics           map[string]metric
	notes             []string // sample counts and other context, printed before the result
}

func newRun() *run { return &run{metrics: map[string]metric{}} }

// op counts one operation (or invariant check) and whether it succeeded.
func (r *run) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

// absorb adds the operations checked in another run, such as one
// client's, to r.
func (r *run) absorb(o *run) {
	r.attempted += o.attempted
	r.failed += o.failed
	for _, p := range o.problems {
		if len(r.problems) < 20 {
			r.problems = append(r.problems, p)
		}
	}
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *run) result() result {
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	serve    string // cmd/serve binary (gateway-churn)
	work     string // directory for generated files
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(options) (*run, error){
	"reach-p2p":     func(o options) (*run, error) { return runDirect(o, p2pSpec(0)) },
	"straggler-p2p": func(o options) (*run, error) { return runDirect(o, p2pSpec(20*time.Millisecond)) },
	"gateway-churn": runGateway,
}

func main() {
	var o options
	var seed int64
	var secs, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: reach-p2p | straggler-p2p | gateway-churn")
	flag.Int64Var(&seed, "seed", 1, "workload seed: the same seed gives the same graph, query pool and update stream")
	flag.IntVar(&secs, "seconds", 10, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.serve, "serve", "", "cmd/serve binary for gateway-churn")
	flag.StringVar(&o.work, "work", ".bench_build/perfbench", "directory for generated files and the span dump")
	flag.Parse()
	if secs < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		os.Exit(2)
	}
	o.seconds = time.Duration(secs) * time.Second
	o.seed, o.trace = uint64(seed), trace == 1
	runner, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r, err := runner(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", p)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	line, err := json.Marshal(r.result())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if r.failed > 0 {
		os.Exit(1)
	}
}

// rngFor derives an independent deterministic stream from the workload
// seed, one per purpose.
func rngFor(seed uint64, purpose uint64) *gen.RNG {
	return gen.NewRNG(seed*0x9e3779b97f4a7c15 ^ purpose*0xbf58476d1ce4e5b9)
}

// RNG purposes.
const (
	rngGraph = iota + 1
	rngPool
	rngEdges
	rngClients        // + client index
	rngReservoir = 64 // + client index
)

// The checked-in SNAP sample, relative to the repository root.
const snapSample = "internal/graph/testdata/p2p-sample.txt"

// rssMB reads a process's resident set (VmRSS) in MiB.
func rssMB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// rssSampler samples a process's resident set every 50ms until stop:
// the peak memory of the process while it serves the measured load.
type rssSampler struct {
	pid  string
	done chan struct{}
	wg   sync.WaitGroup
	peak float64
	err  error
}

func sampleRSS(pid string) *rssSampler {
	s := &rssSampler{pid: pid, done: make(chan struct{})}
	s.wg.Add(1)
	go s.loop()
	return s
}

func (s *rssSampler) loop() {
	defer s.wg.Done()
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		mb, err := rssMB(s.pid)
		if err != nil {
			s.err = err
			return
		}
		s.peak = max(s.peak, mb)
		select {
		case <-s.done:
			return
		case <-t.C:
		}
	}
}

// stop ends the sampling and returns the largest sample.
func (s *rssSampler) stop() (float64, error) {
	close(s.done)
	s.wg.Wait()
	return s.peak, s.err
}

// writeGraph stores g in the program's graph format (cmd/gengraph's).
func writeGraph(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.Write(f, g); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// readGraph is the program's graph.Read on a file.
func readGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Read(f)
}

// sbmGraphSeed fixes the community graph: like the checked-in SNAP
// sample, every run uses one graph instance, and the workload seed draws
// the query pool and the update stream on it. Per-graph differences in
// |Vf| and partial-answer sizes would otherwise swamp the run-to-run
// comparison.
const sbmGraphSeed = 1

// sbmGraph generates gateway-churn's community graph and writes it to the work
// directory, so the program loads it through graph.Read.
func sbmGraph(o options) (*graph.Graph, string, error) {
	g := communityGraph(rngFor(sbmGraphSeed, rngGraph), blocks, blockSize, blockDeg, crossPerMillion)
	path := filepath.Join(o.work, "sbm.txt")
	return g, path, writeGraph(path, g)
}

func contiguous(g *graph.Graph) (*fragment.Fragmentation, error) {
	return fragment.Partition(g, fragment.ContiguousPartitioner{}, blocks)
}
