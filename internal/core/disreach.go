package core

import (
	"distreach/internal/bes"
	"distreach/internal/cluster"
	"distreach/internal/fragment"
	"distreach/internal/graph"
	"distreach/internal/reachindex"
)

// querySize is the wire size of a posted (bounded) reachability query: two
// node IDs plus a kind/bound word. The paper treats |qr(s,t)| as negligible.
const querySize = 12

// Result is the outcome of one distributed evaluation.
type Result struct {
	Answer bool
	Report cluster.Report
}

// reachEq is one Boolean equation Xv = constTrue ∨ (∨ Xv') produced by
// local evaluation: v is an in-node (or the source s), and the variables on
// the right-hand side are the virtual nodes of the fragment that v reaches
// locally.
type reachEq struct {
	node      graph.NodeID
	constTrue bool
	vars      []graph.NodeID
}

// ReachPartial is Fi.rvset: the partial answer of one fragment to a
// reachability query. It is produced by LocalEvalReach at a site (or a
// mapper) and consumed by SolveReach at the coordinator (or the reducer).
type ReachPartial struct {
	eqs []reachEq
}

// LocalEvalReach is the exported form of procedure localEval, used by the
// MapReduce adaptation, the incremental session and the wire sites. Pass
// s = graph.None to compute the in-node equations only (no source
// equation). A nil opt means defaults; it used to be silently replaced by
// a fresh &Options{}, which dropped every caller-supplied option
// (LocalIndex, NoFragmentIndex) on the MapReduce and session paths.
//
// When opt.Cancel fires mid-evaluation the partial is abandoned and nil is
// returned; callers running under cooperative cancellation must treat nil
// as "no reply owed".
func LocalEvalReach(f *fragment.Fragment, s, t graph.NodeID, opt *Options) *ReachPartial {
	return localEval(f, s, t, opt)
}

// WireSize reports the reply size of the partial answer for a fragment
// with the given number of boundary variables (|Fi.O| + |Fi.I|).
func (rv *ReachPartial) WireSize(boundaryVars int) int { return rv.wireSize(boundaryVars) }

// NumEqs reports the number of equations in the partial.
func (rv *ReachPartial) NumEqs() int { return len(rv.eqs) }

// AddToSystem feeds the partial's equations into an incremental equation
// system. It is the incremental counterpart of SolveReach: the coordinator
// calls it per site answer as it arrives and polls sys.Decide(s) instead
// of re-solving from scratch.
func (rv *ReachPartial) AddToSystem(sys *bes.System[graph.NodeID]) {
	if rv == nil {
		return
	}
	for _, eq := range rv.eqs {
		sys.Add(eq.node, eq.constTrue, eq.vars...)
	}
}

// SolveReach is procedure evalDG: it assembles partial answers from all
// fragments and reports whether Xs holds.
func SolveReach(partials []*ReachPartial, s graph.NodeID) bool {
	sys := bes.New[graph.NodeID]()
	for _, rv := range partials {
		if rv == nil {
			continue
		}
		for _, eq := range rv.eqs {
			sys.Add(eq.node, eq.constTrue, eq.vars...)
		}
	}
	sol := sys.Solve()
	return sol[s]
}

// wireSize accounts the reply size. Each equation carries the in-node ID
// plus its disjuncts, encoded as whichever is smaller: a presence bitmap
// over the fragment's boundary variables (the paper's "|Fi.O| bits"
// accounting) or an explicit variable list. Either way the total stays
// within the O(|Vf|²) guarantee.
func (rv *ReachPartial) wireSize(boundaryVars int) int {
	dense := (boundaryVars + 1 + 7) / 8
	n := 0
	for _, eq := range rv.eqs {
		sparse := 4 * len(eq.vars)
		if sparse < dense {
			n += 5 + sparse
		} else {
			n += 5 + dense
		}
	}
	return n
}

// DisReach evaluates the reachability query qr(s, t) over the fragmentation
// fr deployed on cl (algorithm disReach, Fig. 3). It visits each site
// exactly once, ships O(|Vf|²) bits in total, and runs local evaluation on
// all fragments in parallel.
func DisReach(cl *cluster.Cluster, fr *fragment.Fragmentation, s, t graph.NodeID, opt *Options) Result {
	if opt == nil {
		opt = &Options{}
	}
	run := cl.NewRun()
	if s == t {
		// dist(s, s) = 0; no communication needed.
		return Result{Answer: true, Report: run.Finish()}
	}
	frags := fr.Fragments()

	// Phase 1: post qr(s, t) to every site, as is.
	for i := range frags {
		run.Post(i, querySize)
	}
	run.NetPhase(querySize)

	// Phase 2: local evaluation, in parallel at each site.
	partial := make([]*ReachPartial, len(frags))
	run.Parallel(func(site int) {
		partial[site] = localEval(frags[site], s, t, opt)
	})
	maxReply := 0
	for i, rv := range partial {
		b := rv.wireSize(frags[i].NumVirtual() + len(frags[i].InNodes()))
		run.Reply(i, b)
		if b > maxReply {
			maxReply = b
		}
	}
	run.NetPhase(maxReply)

	// Phase 3: assemble at the coordinator — solve the Boolean equation
	// system with evalDG.
	var ans bool
	run.Sequential(func() {
		sys := bes.New[graph.NodeID]()
		for _, rv := range partial {
			for _, eq := range rv.eqs {
				sys.Add(eq.node, eq.constTrue, eq.vars...)
			}
		}
		sol := sys.Solve()
		ans = sol[s]
	})
	return Result{Answer: ans, Report: run.Finish()}
}

// localEval is the per-site partial evaluation of Fig. 3: for every in-node
// v of the fragment (plus s, if s is stored here) it determines which
// boundary nodes v can reach locally, yielding the Boolean equation
// Xv = (t reached locally) ∨ (∨ Xv' over reached boundary nodes v').
// A boundary node equal to t contributes `true` rather than a variable
// (lines 4-5 of the procedure).
//
// The BFS applies a frontier cut: besides virtual nodes, it also stops
// expanding at the fragment's other in-nodes, emitting their variables
// instead. This is sound because every in-node has its own equation in the
// same rvset and the coordinator's equation system composes transitively;
// it keeps both the local work and the reply size near-linear in the
// fragment's boundary structure instead of |Fi.I|·|Fi| in the worst case
// (the paper's O(|Vf||Fm|) bound still applies).
//
// opt.Cancel is polled at cooperative checkpoints; a cancelled evaluation
// is abandoned and returns nil.
func localEval(f *fragment.Fragment, s, t graph.NodeID, opt *Options) *ReachPartial {
	if opt == nil {
		opt = &Options{}
	}
	iset := isetOf(f, s)
	rv := &ReachPartial{eqs: make([]reachEq, 0, len(iset))}
	if len(iset) == 0 {
		return rv
	}
	met := opt.Metrics
	if opt.LocalIndex != nil {
		idx := opt.LocalIndex(f)
		tLocal, hasT := f.Local(t)
		for _, v := range iset {
			if opt.cancelled() {
				return nil
			}
			eq := reachEq{node: f.Global(v)}
			if eq.node == t {
				// Xt is trivially true (t reaches itself); aliases and
				// other equations may reference it as a variable.
				eq.constTrue = true
				rv.eqs = append(rv.eqs, eq)
				if met != nil {
					met.ConstEqs++
				}
				continue
			}
			if met != nil {
				met.IndexedEqs++
			}
			if hasT && idx.Reaches(graph.NodeID(v), graph.NodeID(tLocal)) {
				eq.constTrue = true
			}
			for _, o := range f.VirtualNodes() {
				if !idx.Reaches(graph.NodeID(v), graph.NodeID(o)) {
					continue
				}
				if g := f.Global(o); g == t {
					eq.constTrue = true
				} else {
					eq.vars = append(eq.vars, f.Global(o))
				}
			}
			rv.eqs = append(rv.eqs, eq)
		}
		return rv
	}
	// Equation aliasing: in-nodes in the same local SCC reach exactly the
	// same boundary nodes, so only one representative per SCC needs a full
	// equation; the rest ship the two-word alias Xv = Xrep. This keeps the
	// reply size near the size of the fragment's condensed boundary
	// structure on dense fragmentations.
	comp := f.LocalSCC()
	// repOf maps SCC -> representative in-node, +1-encoded so the zeroed
	// slice means "none yet" (a map here dominates the indexed hot path).
	repOf := make([]int32, f.NumTotal())
	// Fragment reachability index: when one is installed (and not opted
	// out of), a representative's whole equation comes from two lookups —
	// the precomputed frontier-cut variable list and the interval-label
	// "reaches t locally" bit — instead of a BFS. Stale/undecided/over-
	// budget entries answer !ok and drop to the BFS below, so an index
	// mid-rebuild only costs speed, never correctness.
	var idx *reachindex.Index
	var tLocal int32
	var hasT bool
	if !opt.NoFragmentIndex && opt.LocalIndex == nil {
		if idx = f.ReachIndex(); idx != nil {
			tLocal, hasT = f.Local(t)
		}
	}
	// Fallback strategy: one frontier-cut BFS per representative over the
	// fragment-local adjacency. A stamped seen buffer avoids reallocation
	// across in-nodes; it is allocated lazily since a fully indexed
	// evaluation never needs it.
	var seen []int32
	var queue []int32
	for stamp, v := range iset {
		if opt.cancelled() {
			return nil
		}
		if f.Global(v) == t {
			// Xt is trivially true (t reaches itself). This must precede
			// aliasing: if t shares an SCC with other in-nodes, they may
			// alias to Xt, and Xt itself must never be an alias.
			rv.eqs = append(rv.eqs, reachEq{node: t, constTrue: true})
			if met != nil {
				met.ConstEqs++
			}
			continue
		}
		if rep := repOf[comp[v]]; rep != 0 {
			rv.eqs = append(rv.eqs, reachEq{node: f.Global(v), vars: []graph.NodeID{f.Global(rep - 1)}})
			if met != nil {
				met.AliasEqs++
			}
			continue
		}
		repOf[comp[v]] = v + 1
		if idx != nil {
			if gvars, reachesT, ok := idx.EquationGlobal(v, tLocal, hasT); ok {
				eq := reachEq{node: f.Global(v), constTrue: reachesT}
				if hasT {
					// t appearing as a variable must contribute `true`
					// instead (lines 4-5 of localEval). The list holds each
					// boundary node at most once, so splice it out.
					for i, gv := range gvars {
						if gv == t {
							eq.constTrue = true
							spliced := make([]graph.NodeID, 0, len(gvars)-1)
							spliced = append(spliced, gvars[:i]...)
							spliced = append(spliced, gvars[i+1:]...)
							gvars = spliced
							break
						}
					}
				}
				// Shared read-only slice: bes.Add and the wire codec only
				// read equation bodies, so no per-query copy is needed.
				eq.vars = gvars
				rv.eqs = append(rv.eqs, eq)
				if met != nil {
					met.IndexedEqs++
				}
				continue
			}
			if met != nil {
				switch idx.Outcome(v) {
				case reachindex.OutcomeStale:
					met.StaleEqs++
				case reachindex.OutcomeOverBudget:
					met.OverBudgetEqs++
				}
			}
		}
		if met != nil {
			met.BFSEqs++
		}
		eq := reachEq{node: f.Global(v)}
		if seen == nil {
			seen = make([]int32, f.NumTotal())
			for i := range seen {
				seen[i] = -1
			}
			queue = make([]int32, 0, f.NumTotal())
		}
		queue = append(queue[:0], v)
		seen[v] = int32(stamp)
		// The fallback BFS is the one potentially long-running stretch of a
		// local evaluation (the reachindex fast path above is two lookups),
		// so it polls the cancel hook every few hundred dequeues.
		pops := 0
		for len(queue) > 0 {
			if pops++; pops&0xff == 0 && opt.cancelled() {
				return nil
			}
			x := queue[0]
			queue = queue[1:]
			if x != v { // v itself is never a disjunct of its own equation
				if g := f.Global(x); g == t {
					eq.constTrue = true
					continue // reaching t locally closes this branch
				} else if f.IsBoundary(x) && comp[x] != comp[v] {
					// Stop at boundary nodes outside v's SCC: their own
					// equations continue the search. In-nodes inside v's
					// SCC are aliased to v's equation, so the BFS must
					// expand through them itself.
					eq.vars = append(eq.vars, g)
					continue
				}
			}
			for _, w := range f.Out(x) {
				if seen[w] != int32(stamp) {
					seen[w] = int32(stamp)
					queue = append(queue, w)
				}
			}
		}
		rv.eqs = append(rv.eqs, eq)
	}
	return rv
}

// isetOf returns the fragment's in-nodes plus the source s when s is stored
// locally (lines 1-2 of localEval).
func isetOf(f *fragment.Fragment, s graph.NodeID) []int32 {
	iset := f.InNodes()
	if ls, ok := f.Local(s); ok && !f.IsVirtual(ls) {
		found := false
		for _, v := range iset {
			if v == ls {
				found = true
				break
			}
		}
		if !found {
			iset = append(append([]int32(nil), iset...), ls)
		}
	}
	return iset
}
