package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Machine-checkable bench reports. A -json run writes one BENCH_*.json
// whose schema is versioned, so CI can compare runs across PRs (see
// cmd/benchcheck) without scraping the human-readable output. Schema v3
// (v2 plus the "meta" run-provenance section; everything v1 and v2
// carried is unchanged, so old baselines stay comparable):
//
//	{
//	  "schema": "distreach-bench/v3",
//	  "meta": { "git_commit":.., "go_version":.., "hostname":..,
//	            "gomaxprocs":.., "num_cpu":.. },  // which build, which box
//	  "mode": "open" | "closed",
//	  "config": { ... the knobs that shaped the run ... },
//	  "queries": N, "rounds": N, "errors": N, "elapsed_sec": S,
//	  "qps": Q,                          // achieved throughput
//	  "offered_qps": R,                  // open loop only: the schedule
//	  "latency_us":  {"mean":..,"p50":..,"p90":..,"p95":..,"p99":..,"max":..},
//	  "first_answer_us": {...},          // wire mode: per-round WireStats.FirstAnswer
//	  "lateness_us": {...},              // open loop only: start - scheduled
//	  "updates": N, "update_errors": N, "rebalances": N,
//	  "max_replica_lag_batches": N,      // wire mode with churn
//	  "bytes_per_query": B,              // wire mode: sent+received
//	  "rss_bytes": B,                    // generator process VmRSS
//	  "anytime": { ... protocol counters; wire mode ... }
//	}
//
// Latency percentiles are measured from the SCHEDULED arrival in open
// loop (so queue delay under overload is charged to the system, not
// silently dropped — no coordinated omission) and from issue time in
// closed loop. First-answer percentiles come from the coordinator's own
// clock (WireStats.FirstAnswer): the instant the finals received so far
// proved the round, before the straggler sites' finals.
const benchSchema = "distreach-bench/v3"

// benchRunMeta records where a report came from, so a regression hunt can
// tell a code change from a machine change. Every field is best-effort:
// a missing git binary or a detached checkout leaves git_commit empty
// rather than failing the run.
type benchRunMeta struct {
	GitCommit  string `json:"git_commit,omitempty"`
	GoVersion  string `json:"go_version"`
	Hostname   string `json:"hostname,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// collectRunMeta samples the run's provenance. The commit comes from the
// build info stamped into the binary (vcs.revision) when present, falling
// back to asking git — `go run ./cmd/bench` builds without VCS stamping.
func collectRunMeta() *benchRunMeta {
	m := &benchRunMeta{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if h, err := os.Hostname(); err == nil {
		m.Hostname = h
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.GitCommit = s.Value
			}
		}
	}
	if m.GitCommit == "" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			m.GitCommit = strings.TrimSpace(string(out))
		}
	}
	return m
}

type latencySummary struct {
	MeanUS int64 `json:"mean"`
	P50US  int64 `json:"p50"`
	P90US  int64 `json:"p90"`
	P95US  int64 `json:"p95"`
	P99US  int64 `json:"p99"`
	MaxUS  int64 `json:"max"`
}

// summarize sorts lats in place and reduces it to microsecond percentiles.
func summarize(lats []time.Duration) latencySummary {
	if len(lats) == 0 {
		return latencySummary{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, d := range lats {
		sum += d
	}
	pct := func(p float64) int64 {
		return lats[int(p*float64(len(lats)-1))].Microseconds()
	}
	return latencySummary{
		MeanUS: (sum / time.Duration(len(lats))).Microseconds(),
		P50US:  pct(0.50),
		P90US:  pct(0.90),
		P95US:  pct(0.95),
		P99US:  pct(0.99),
		MaxUS:  pct(1.0),
	}
}

type benchReportConfig struct {
	Clients     int     `json:"clients"`
	DurationSec float64 `json:"duration_sec"`
	Class       string  `json:"class"`
	Batch       int     `json:"batch"`
	ChurnPerSec float64 `json:"churn_per_sec"`
	NodeChurn   bool    `json:"node_churn"`
	RebalanceMS int64   `json:"rebalance_ms"`
	RatePerSec  float64 `json:"rate_per_sec"` // 0 = closed loop
	Arrival     string  `json:"arrival,omitempty"`
	SiteDelay   string  `json:"site_delay,omitempty"` // comma-separated per-site service delays
	Snap        string  `json:"snap,omitempty"`
	URL         string  `json:"url,omitempty"`
	Nodes       int     `json:"nodes"`
	Edges       int     `json:"edges"`
	K           int     `json:"k"`
	Seed        uint64  `json:"seed"`
}

type benchReport struct {
	Schema  string            `json:"schema"`
	Meta    *benchRunMeta     `json:"meta,omitempty"`
	Mode    string            `json:"mode"`
	Config  benchReportConfig `json:"config"`
	Queries int               `json:"queries"`
	Rounds  int               `json:"rounds"`
	Errors  int               `json:"errors"`

	ElapsedSec float64 `json:"elapsed_sec"`
	QPS        float64 `json:"qps"`
	OfferedQPS float64 `json:"offered_qps,omitempty"`

	Latency     latencySummary  `json:"latency_us"`
	FirstAnswer *latencySummary `json:"first_answer_us,omitempty"`
	Lateness    *latencySummary `json:"lateness_us,omitempty"`

	Updates      int    `json:"updates"`
	UpdateErrors int    `json:"update_errors"`
	Rebalances   int    `json:"rebalances"`
	MaxLag       uint64 `json:"max_replica_lag_batches"`

	BytesPerQuery float64 `json:"bytes_per_query"`
	RSSBytes      int64   `json:"rss_bytes"`

	ReachIndex *indexReport   `json:"reachindex,omitempty"`
	Anytime    *anytimeReport `json:"anytime,omitempty"`
}

// anytimeReport is the anytime-protocol section of a wire-mode report:
// the coordinator's counters after the load drained.
type anytimeReport struct {
	Enabled           bool    `json:"enabled"`
	EarlyTerminations int64   `json:"early_terminations"`
	EarlyTermRate     float64 `json:"early_term_rate"` // early terminations / rounds
	CancelsSent       int64   `json:"cancels_sent"`
	Stragglers        []int64 `json:"stragglers"` // per site: rounds decided before its final
}

// indexReport is the -index section of the JSON report: the counters the
// serving traffic produced plus a post-run direct-vs-indexed local
// evaluation calibration on the final graph.
type indexReport struct {
	Enabled           bool    `json:"enabled"`
	BudgetBytes       int64   `json:"budget_bytes"`
	Policy            string  `json:"policy"`
	LabelBytes        int64   `json:"label_bytes"`
	Fragments         int     `json:"fragments_indexed"`
	Hits              int64   `json:"hits"`
	Fallbacks         int64   `json:"fallbacks"`
	HitRate           float64 `json:"hit_rate"`
	Rebuilds          int64   `json:"rebuilds"`
	LastRebuildUS     int64   `json:"last_rebuild_us"`
	TotalRebuildUS    int64   `json:"total_rebuild_us"`
	DirectUSPerQuery  float64 `json:"direct_us_per_query"`
	IndexedUSPerQuery float64 `json:"indexed_us_per_query"`
	LocalEvalSpeedup  float64 `json:"local_eval_speedup"`
	// Post-run build calibration on the final fragments: full index build
	// wall time single-threaded vs all cores (the async rebuild window
	// mutations and rebalances open).
	BuildSerialUS   float64 `json:"build_serial_us"`
	BuildParallelUS float64 `json:"build_parallel_us"`
	BuildSpeedup    float64 `json:"build_speedup"`
}

// writeReport serializes rep to path (pretty-printed, trailing newline,
// stable key order via struct fields — byte-reproducible for a pinned
// seed and deterministic counters).
func writeReport(path string, rep benchReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// rssBytes reports the process's resident set (VmRSS) in bytes; 0 when
// /proc is unavailable (non-Linux).
func rssBytes() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// fmtDurationUS renders a microsecond count the way the plain output
// formats durations.
func fmtDurationUS(us int64) string {
	return fmt.Sprint(time.Duration(us) * time.Microsecond)
}
