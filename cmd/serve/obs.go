package main

// Gateway observability: the metrics registry behind GET /metrics, the
// trace store behind GET /trace/<id>, and the guarantee auditor behind
// GET /guarantees. One registry is the single source of truth — the
// request counters /stats reports are the same obs.Counter instances the
// Prometheus exposition renders, and everything sampled (cache, oplog,
// anytime, balance, index) is bridged in as gauge functions rather than
// counted twice.

import (
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"distreach/internal/fragment"
	"distreach/internal/netsite"
	"distreach/internal/obs"
)

// traceRingCap bounds how many finished traces /trace and /traces can
// look up. Old traces fall out; the slow-query log keeps the outliers.
const traceRingCap = 512

// gwObs bundles the gateway's observability state.
type gwObs struct {
	reg     *obs.Registry
	traces  *obs.TraceStore
	auditor *obs.Auditor

	queryDur   *obs.HistogramVec // seconds per query, by class
	queryBytes *obs.HistogramVec // wire bytes per query, by class
}

// newGwObs builds the registry, counters and auditor for one gateway and
// attaches them to its coordinator. Tracing itself (the sink that makes
// queries travel in 'T' envelopes) is armed separately by armTracing —
// metrics and auditing work with tracing off, they just lose the
// site-measured eval times.
func newGwObs(co *netsite.Coordinator) *gwObs {
	reg := obs.NewRegistry()
	ob := &gwObs{
		reg:     reg,
		traces:  obs.NewTraceStore(traceRingCap),
		auditor: obs.NewAuditor(),
		queryDur: reg.HistogramVec("gateway_query_seconds",
			"End-to-end query latency by class (cache hits included).", "class", nil),
		queryBytes: reg.HistogramVec("gateway_query_wire_bytes",
			"Wire bytes (sent+received) per uncached query by class.", "class", obs.ByteBuckets),
	}
	ob.auditor.Register(reg)
	co.SetAuditor(ob.auditor)
	reg.GaugeFunc("gateway_wire_sent_bytes_total",
		"Bytes written to site connections since dial, frames and cancels included.",
		func() float64 { s, _ := co.WireTotals(); return float64(s) })
	reg.GaugeFunc("gateway_wire_received_bytes_total",
		"Bytes read from site connections since dial, late drained frames included.",
		func() float64 { _, r := co.WireTotals(); return float64(r) })
	reg.GaugeFunc("gateway_anytime_early_terminations_total",
		"Anytime rounds answered before every site finished.",
		func() float64 { return float64(co.AnytimeStats().EarlyTerminations) })
	reg.GaugeFunc("gateway_anytime_cancels_total",
		"Cancel ('C') frames sent to straggler sites.",
		func() float64 { return float64(co.AnytimeStats().CancelsSent) })
	for i := 0; i < co.NumSites(); i++ {
		i := i
		reg.GaugeFuncVec("gateway_site_straggler_rounds",
			"Rounds decided before this site's final answer arrived — the per-site lag histogram.",
			"site", strconv.Itoa(i),
			func() float64 { return float64(co.AnytimeStats().Stragglers[i]) })
	}
	return ob
}

// bindGateway registers the gauge bridges that need the gateway itself
// (cache, backpressure, durability, coalescer, index); called once from
// newGateway after the struct exists.
func (ob *gwObs) bindGateway(g *gateway) {
	reg := ob.reg
	reg.GaugeFunc("gateway_epoch", "Highest deployment epoch observed.",
		func() float64 { return float64(g.epoch.Load()) })
	reg.GaugeFunc("gateway_inflight", "Query/update requests currently holding a backpressure slot.",
		func() float64 { return float64(len(g.sem)) })
	reg.GaugeFunc("gateway_cache_hits_total", "Answer-cache hits.",
		func() float64 { h, _ := g.cache.Stats(); return float64(h) })
	reg.GaugeFunc("gateway_cache_misses_total", "Answer-cache misses.",
		func() float64 { _, m := g.cache.Stats(); return float64(m) })
	reg.GaugeFunc("gateway_cache_entries", "Answer-cache resident entries.",
		func() float64 { return float64(g.cache.Len()) })
	reg.GaugeFunc("gateway_cache_evictions_total", "Answer-cache evictions (capacity and invalidation).",
		func() float64 { return float64(g.cache.Evictions()) })
	reg.GaugeFunc("gateway_oplog_lsn", "Update-log position of the gateway's sequencer.",
		func() float64 { return float64(g.co.Sequencer().LSN()) })
	reg.GaugeFunc("gateway_oplog_max_lag", "Largest LSN distance any replica trails the sequencer by.",
		func() float64 {
			lsn := g.co.Sequencer().LSN()
			var max uint64
			for _, l := range g.co.ReplicaLSNs() {
				if l < lsn && lsn-l > max {
					max = lsn - l
				}
			}
			return float64(max)
		})
	if g.coal != nil {
		reg.GaugeFunc("gateway_coalesce_fold_factor",
			"Queries per coalesced wire round: how many GET /reach misses shared one batch on average.",
			func() float64 {
				r := g.coal.rounds.Load()
				if r == 0 {
					return 0
				}
				return float64(g.coal.queries.Load()) / float64(r)
			})
	}
	if g.opts.idxStats != nil {
		reg.GaugeFunc("gateway_reachindex_hit_rate", "Fragment reachability-index hit rate.",
			func() float64 { return g.opts.idxStats().HitRate() })
		reg.GaugeFunc("gateway_reachindex_rebuilds_total", "Fragment reachability-index rebuilds.",
			func() float64 { return float64(g.opts.idxStats().Rebuilds) })
		reg.GaugeFunc("gateway_reachindex_last_rebuild_seconds", "Duration of the latest index rebuild.",
			func() float64 { return g.opts.idxStats().LastBuild.Seconds() })
		reg.GaugeFunc("gateway_reachindex_total_rebuild_seconds", "Cumulative index rebuild time.",
			func() float64 { return g.opts.idxStats().TotalBuild.Seconds() })
	}
}

// armTracing turns distributed tracing on: queries travel in 'T'
// envelopes, finished trace trees land in the ring buffer, and trees
// slower than slow (0 disables) are dumped to stderr in full.
func (ob *gwObs) armTracing(co *netsite.Coordinator, slow time.Duration) {
	if slow > 0 {
		ob.traces.SetSlow(slow, func(tr *obs.Trace) {
			fmt.Fprintf(os.Stderr, "serve: slow query\n%s", tr.Format())
		})
	}
	co.SetTraceSink(ob.traces.Put)
}

// setDeployment refreshes the auditor's size parameters from the latest
// balance stats: |Vf| scales the paper's response bound, and total graph
// size is the x-axis of the eval-time independence check.
func (ob *gwObs) setDeployment(bs fragment.BalanceStats) {
	if bs.Fragments == 0 {
		return
	}
	ob.auditor.SetDeployment(int64(bs.Vf), int64(bs.MeanSize()*float64(bs.Fragments)+0.5))
}

// observeQuery feeds one finished HTTP query into the latency and
// bytes-per-query histograms.
func (ob *gwObs) observeQuery(class string, start time.Time, cached bool, st netsite.WireStats) {
	ob.queryDur.With(class).Observe(time.Since(start).Seconds())
	if !cached {
		ob.queryBytes.With(class).Observe(float64(st.BytesSent + st.BytesReceived))
	}
}

// handleTrace serves GET /trace/{id}: the assembled trace tree of one
// recent query, JSON by default, indented text with ?format=text. IDs
// are the hex trace_id query responses carry.
func (g *gateway) handleTrace(w http.ResponseWriter, r *http.Request) {
	idStr := r.PathValue("id")
	id, err := strconv.ParseUint(idStr, 16, 64)
	if err != nil {
		if id, err = strconv.ParseUint(idStr, 10, 64); err != nil {
			badRequest(w, "trace: malformed ID "+strconv.Quote(idStr))
			return
		}
	}
	tr := g.ob.traces.Get(id)
	if tr == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "trace not found (evicted from the ring, or tracing is off)"})
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, tr.Format())
		return
	}
	b, err := tr.Tree()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
	w.Write([]byte("\n"))
}

// traceSummaryJSON is one row of GET /traces.
type traceSummaryJSON struct {
	TraceID string `json:"trace_id"`
	Name    string `json:"name"`
	Start   string `json:"start"`
	DurUs   int64  `json:"dur_us"`
	Spans   int    `json:"spans"`
}

// handleTraces serves GET /traces: the most recent traced queries,
// newest first (?n= bounds the count, default 32).
func (g *gateway) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 32
	if v := r.URL.Query().Get("n"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p <= 0 {
			badRequest(w, "traces: n must be a positive integer")
			return
		}
		n = p
	}
	recent := g.ob.traces.Recent(n)
	out := make([]traceSummaryJSON, 0, len(recent))
	for _, tr := range recent {
		out = append(out, traceSummaryJSON{
			TraceID: strconv.FormatUint(tr.ID, 16),
			Name:    tr.Name,
			Start:   tr.Start.Format(time.RFC3339Nano),
			DurUs:   tr.Dur.Microseconds(),
			Spans:   len(tr.Spans),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": out})
}

// handleGuarantees serves GET /guarantees: the auditor's running verdict
// on the paper's performance guarantees — frames per site per round,
// response volume against the c·(|Vf|+1)² bound, and whether evaluation
// time correlates with graph size.
func (g *gateway) handleGuarantees(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.ob.auditor.Summary())
}
