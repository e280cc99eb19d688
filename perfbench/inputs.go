package main

import (
	"fmt"

	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
)

// query is one reachability read (qr) of a workload's pool.
type query struct {
	S, T graph.NodeID
}

// Community graph shape: blocks of blockSize nodes, blockDeg random
// out-edges inside the block per node, and a random cross-block edge on
// crossPerMillion/1e6 of the nodes.
const (
	blocks          = 4
	blockSize       = 25000
	blockDeg        = 3
	crossPerMillion = 2000
	numLabels       = 3
)

// communityGraph generates the stochastic-block-model graph of the
// gateway-churn workload. Node IDs are block ordered
// (block b holds [b·size, (b+1)·size)), so a contiguous partition into
// nb fragments aligns fragments with blocks and keeps |Vf| small.
func communityGraph(rng *gen.RNG, nb, size, deg int, crossPPM int) *graph.Graph {
	labels := gen.LabelAlphabet(numLabels)
	n := nb * size
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddNode(labels[rng.Intn(len(labels))])
	}
	for u := 0; u < n; u++ {
		base := u / size * size
		for d := 0; d < deg; d++ {
			b.AddEdge(graph.NodeID(u), graph.NodeID(base+rng.Intn(size)))
		}
		if nb > 1 && rng.Intn(1_000_000) < crossPPM {
			other := (u/size + 1 + rng.Intn(nb-1)) % nb
			b.AddEdge(graph.NodeID(u), graph.NodeID(other*size+rng.Intn(size)))
		}
	}
	return b.MustBuild()
}

// pairs draws n (s, t) pairs with s != t uniformly at random.
func pairs(rng *gen.RNG, nodes, n int) []query {
	qs := make([]query, 0, n)
	for len(qs) < n {
		s, t := rng.Intn(nodes), rng.Intn(nodes)
		if s != t {
			qs = append(qs, query{S: graph.NodeID(s), T: graph.NodeID(t)})
		}
	}
	return qs
}

// groupedPairs draws sources × perSource distinct pairs, perSource
// targets per source, so the oracle needs one search per source. The
// pool is shuffled, so pool position (the Zipf rank of the gateway
// stream) is unrelated to the source.
func groupedPairs(rng *gen.RNG, nodes, sources, perSource int) []query {
	seen := make(map[[2]graph.NodeID]bool, sources*perSource)
	qs := make([]query, 0, sources*perSource)
	srcSeen := make(map[graph.NodeID]bool, sources)
	for len(srcSeen) < sources {
		s := graph.NodeID(rng.Intn(nodes))
		if srcSeen[s] {
			continue
		}
		srcSeen[s] = true
		for k := 0; k < perSource; {
			t := graph.NodeID(rng.Intn(nodes))
			if t == s || seen[[2]graph.NodeID{s, t}] {
				continue
			}
			seen[[2]graph.NodeID{s, t}] = true
			qs = append(qs, query{S: s, T: t})
			k++
		}
	}
	out := make([]query, len(qs))
	for i, p := range rng.Perm(len(qs)) {
		out[i] = qs[p]
	}
	return out
}

// edge is a directed edge of the graph.
type edge struct{ U, V graph.NodeID }

// toggleEdges picks n distinct existing edges whose endpoints share an
// owner (an intra-fragment edge), for the delete/re-insert update stream.
func toggleEdges(rng *gen.RNG, g *graph.Graph, owner func(graph.NodeID) int, n int) ([]edge, error) {
	seen := make(map[edge]bool, n)
	out := make([]edge, 0, n)
	for tries := 0; len(out) < n; tries++ {
		if tries > 100*n+1000 {
			return nil, fmt.Errorf("found only %d of %d intra-fragment edges", len(out), n)
		}
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		outs := g.Out(u)
		if len(outs) == 0 {
			continue
		}
		e := edge{u, outs[rng.Intn(len(outs))]}
		if e.U == e.V || owner(e.U) != owner(e.V) || seen[e] {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	return out, nil
}

// write is one update of a client's stream.
type write struct {
	Delete bool
	E      edge
}

// op is the write as a fragment update operation.
func (w write) op() fragment.Op {
	if w.Delete {
		return fragment.Op{Kind: fragment.OpDeleteEdge, U: w.E.U, V: w.E.V}
	}
	return fragment.Op{Kind: fragment.OpInsertEdge, U: w.E.U, V: w.E.V}
}

// updateStream is one client's writes: its i-th write deletes edge i/2 of
// its share of edges when i is even and re-inserts it when i is odd, so
// every completed pair leaves the graph as it was. Clients own disjoint
// edges (client c gets edges c, c+clients, ...), so concurrent clients
// never toggle the same edge.
type updateStream struct {
	edges []edge
}

func newUpdateStreams(edges []edge, clients int) []*updateStream {
	out := make([]*updateStream, clients)
	for c := range out {
		out[c] = &updateStream{}
	}
	for i, e := range edges {
		out[i%clients].edges = append(out[i%clients].edges, e)
	}
	return out
}

// at returns the i-th write of the stream.
func (u *updateStream) at(i int) write {
	return write{Delete: i%2 == 0, E: u.edges[(i/2)%len(u.edges)]}
}
