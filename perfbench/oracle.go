package main

import "distreach/internal/graph"

// oracle answers every query of a pool by graph.Reachable on the
// unfragmented graph, the single-site reference every distributed answer
// must equal. Pairs that share a source (groupedPairs) are answered from
// one search.
func oracle(g *graph.Graph, pool []query) []bool {
	want := make([]bool, len(pool))
	bySource := map[graph.NodeID][]int{}
	for i, q := range pool {
		bySource[q.S] = append(bySource[q.S], i)
	}
	for s, idx := range bySource {
		if len(idx) == 1 {
			want[idx[0]] = g.Reachable(s, pool[idx[0]].T)
			continue
		}
		des := g.Descendants(s)
		for _, i := range idx {
			want[i] = des[pool[i].T]
		}
	}
	return want
}
