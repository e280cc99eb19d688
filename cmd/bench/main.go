// Command bench regenerates the paper's evaluation: Table 2, every panel of
// Fig. 11, the in-text visit/traffic claims, and the DESIGN.md ablations.
// It doubles as a closed-loop load generator for the serving runtime.
//
// Usage:
//
//	bench -exp T2              # one experiment
//	bench -all                 # the whole suite
//	bench -all -md -out EXPERIMENTS.raw.md
//	bench -exp F11a -queries 100 -scale 1.0 -v
//
// Load generation. Closed loop (default): each client issues its next query
// as soon as the previous answers — measures peak sustainable throughput.
// Open loop (-rate): arrivals follow a fixed Poisson or uniform schedule
// independent of completions, latency is charged from the scheduled arrival
// (no coordinated omission), and dequeue delay is reported as lateness.
//
//	bench -load -clients 8 -duration 3s                   # in-process TCP deployment
//	bench -load -clients 16 -class mixed -nodes 5000
//	bench -load -url http://127.0.0.1:8080 -clients 32    # against a cmd/serve gateway
//	bench -load -batch 8 -class mixed                     # 8 queries per wire batch frame
//	bench -load -rate 500 -arrival poisson -duration 5s   # open loop at 500 q/s offered
//	bench -load -snap p2p-Gnutella08.txt.gz -rate 200     # drive a real SNAP graph
//	bench -load -rate 200 -json BENCH.json                # machine-checkable report
//
// Output rows mirror the series the paper plots; absolute numbers differ
// (simulated sites, scaled datasets) but the shapes — who wins, by what
// factor, where crossovers fall — are the reproduction target.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"distreach/internal/exp"
	"distreach/internal/reachindex"
)

func main() {
	var (
		expID   = flag.String("exp", "", "experiment ID to run (see -list)")
		all     = flag.Bool("all", false, "run every experiment")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		queries = flag.Int("queries", 0, "queries per measurement point (0 = per-experiment default)")
		scale   = flag.Float64("scale", 1.0, "dataset scale factor (1.0 = repo defaults, ~1/100 of the paper)")
		md      = flag.Bool("md", false, "emit GitHub-flavored markdown tables")
		out     = flag.String("out", "", "write output to a file instead of stdout")
		verbose = flag.Bool("v", false, "log progress to stderr")

		load      = flag.Bool("load", false, "run the load generator instead of experiments")
		clients   = flag.Int("clients", 8, "load: concurrent clients (closed loop) or workers (open loop)")
		duration  = flag.Duration("duration", 3*time.Second, "load: how long to drive traffic")
		class     = flag.String("class", "qr", "load: query class: qr | qbr | qrr | mixed")
		batch     = flag.Int("batch", 1, "load: queries per wire batch (1 = single-query API)")
		churn     = flag.Float64("churn", 0, "load: updates per second mixed into the query stream (0 = none)")
		nodechurn = flag.Bool("nodechurn", false, "load: mix node inserts/deletes into the churn stream")
		rebalance = flag.Duration("rebalance", 0, "load: force a live re-fragmentation at this interval (0 = never)")
		rate      = flag.Float64("rate", 0, "load: open-loop offered arrivals per second (0 = closed loop)")
		arrival   = flag.String("arrival", "poisson", "load: open-loop arrival schedule: poisson | uniform")
		jsonOut   = flag.String("json", "", "load: write a schema-versioned JSON report to this path")
		snap      = flag.String("snap", "", "load: build the in-process deployment from this SNAP edge-list file")
		sdelay    = flag.String("sitedelay", "0", "load: emulated per-frame site service time (in-process mode; the N3 workload uses 5ms). A comma-separated list assigns delays per site, cycling — e.g. 0,0,0,50ms puts one straggler in a 4-site deployment")
		url       = flag.String("url", "", "load: drive a cmd/serve gateway at this base URL instead of an in-process deployment")
		index     = flag.Bool("index", false, "load: enable the per-fragment reachability index (in-process mode)")
		indexBgt  = flag.Int64("indexbudget", reachindex.DefaultBudget, "load: with -index, per-fragment label budget in bytes")
		indexPol  = flag.String("indexpolicy", "postorder", "load: with -index, budget policy: postorder | hits")
		nodes     = flag.Int("nodes", 2000, "load: graph nodes (in-process mode; node-ID range in -url mode)")
		edges     = flag.Int("edges", 8000, "load: graph edges (in-process mode)")
		k         = flag.Int("k", 4, "load: fragment count (in-process mode)")
		seed      = flag.Uint64("seed", 1, "load: workload seed")
	)
	flag.Parse()

	if *load {
		err := runLoad(loadConfig{
			clients:   *clients,
			duration:  *duration,
			class:     *class,
			batch:     *batch,
			churn:     *churn,
			nodechurn: *nodechurn,
			rebalance: *rebalance,
			rate:      *rate,
			arrival:   *arrival,
			jsonPath:  *jsonOut,
			snap:      *snap,
			siteDelay: *sdelay,
			index:     *index,
			indexBgt:  *indexBgt,
			indexPol:  *indexPol,
			url:       *url,
			nodes:     *nodes,
			edges:     *edges,
			k:         *k,
			seed:      *seed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, id := range exp.IDs() {
			fmt.Println(id)
		}
		return
	}
	var ids []string
	switch {
	case *all:
		ids = exp.IDs()
	case *expID != "":
		ids = strings.Split(*expID, ",")
	default:
		fmt.Fprintln(os.Stderr, "bench: need -exp <id> or -all (use -list to see IDs)")
		os.Exit(2)
	}

	cfg := exp.Config{Queries: *queries, Scale: *scale}
	if *verbose {
		cfg.Log = os.Stderr
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	for _, id := range ids {
		start := time.Now()
		tab, err := exp.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: experiment %s: %v\n", id, err)
			os.Exit(1)
		}
		if *md {
			renderMarkdown(w, tab, time.Since(start))
		} else {
			renderPlain(w, tab, time.Since(start))
		}
	}
}

func renderPlain(w *os.File, t exp.Table, took time.Duration) {
	fmt.Fprintf(w, "\n== %s — %s (ran in %v)\n", t.ID, t.Title, took.Round(time.Millisecond))
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		for i, c := range cols {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "note: %s\n", t.Notes)
	}
}

func renderMarkdown(w *os.File, t exp.Table, took time.Duration) {
	fmt.Fprintf(w, "\n### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "\n*%s*\n", t.Notes)
	}
	fmt.Fprintf(w, "\n(ran in %v)\n", took.Round(time.Millisecond))
}
