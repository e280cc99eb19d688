// Package bes implements the (disjunctive) Boolean equation systems [14]
// assembled by the coordinator site, and their weighted counterpart used for
// bounded reachability.
//
// A system holds equations of the form
//
//	X = true | false | Xv1 ∨ Xv2 ∨ ... ∨ Xvn
//
// possibly recursively defined (graphs may be cyclic). Variables without an
// equation are false: they stand for virtual nodes whose owner fragment
// found no path onward. Solving is by the paper's evalDG strategy: build the
// dependency graph Gd, merge the true constants into a single node, and
// decide reachability; a variable is true iff it can reach a true constant.
package bes

import "fmt"

// System is a disjunctive Boolean equation system over variables of
// comparable type K. The zero value is not usable; call New.
//
// The system is solved incrementally: every Add maintains the least
// solution of the equations seen so far, so Decide is O(1) at any point
// while the total propagation work over any Add sequence is O(|Vd|+|Ed|)
// — the same bound as one batch Solve. This is what lets the coordinator
// answer a reach query the instant the sites' answers received so far
// close a certificate.
type System[K comparable] struct {
	idx   map[K]int // variable -> dense index
	vars  []K
	truth []bool    // equation has a `true` disjunct
	deps  [][]int   // equation -> variable indices on its right-hand side
	rev   [][]int32 // reverse dependency edges, maintained by Add
	val   []bool    // least solution of the equations added so far
	edges int
}

// New returns an empty system.
func New[K comparable]() *System[K] {
	return &System[K]{idx: make(map[K]int)}
}

func (s *System[K]) intern(x K) int {
	if i, ok := s.idx[x]; ok {
		return i
	}
	i := len(s.vars)
	s.idx[x] = i
	s.vars = append(s.vars, x)
	s.truth = append(s.truth, false)
	s.deps = append(s.deps, nil)
	s.rev = append(s.rev, nil)
	s.val = append(s.val, false)
	return i
}

// propagate marks i true and floods truth along the reverse dependency
// edges accumulated so far. Each variable is enqueued at most once over
// the lifetime of the system (val is monotone), so the aggregate cost of
// all propagations is linear in the dependency graph.
func (s *System[K]) propagate(i int) {
	s.val[i] = true
	queue := []int32{int32(i)}
	for len(queue) > 0 {
		y := queue[0]
		queue = queue[1:]
		for _, x := range s.rev[y] {
			if !s.val[x] {
				s.val[x] = true
				queue = append(queue, x)
			}
		}
	}
}

// Add records the equation x = constTrue ∨ (∨ vars). Adding x twice merges
// the right-hand sides (disjunction is idempotent and commutative). The
// least solution is updated in place: after Add returns, Decide reflects
// every equation added so far.
func (s *System[K]) Add(x K, constTrue bool, vars ...K) {
	i := s.intern(x)
	if constTrue {
		s.truth[i] = true
		if !s.val[i] {
			s.propagate(i)
		}
	}
	for _, v := range vars {
		j := s.intern(v)
		s.deps[i] = append(s.deps[i], j)
		s.rev[j] = append(s.rev[j], int32(i))
		s.edges++
		if s.val[j] && !s.val[i] {
			s.propagate(i)
		}
	}
}

// Decide reports whether x is true under the least solution of the
// equations added so far. The solution is monotone in the equation set:
// a true verdict is definitive no matter what is added later (each
// equation is a sound implication), while false only becomes definitive
// once every contributing site's equations have been added — exactly the
// anytime-answer contract used by the coordinator.
func (s *System[K]) Decide(x K) bool {
	i, ok := s.idx[x]
	return ok && s.val[i]
}

// NumVars reports the number of distinct variables mentioned.
func (s *System[K]) NumVars() int { return len(s.vars) }

// NumEdges reports the number of dependency edges (|Ed| of Gd).
func (s *System[K]) NumEdges() int { return s.edges }

// Solve returns the set of true variables under the least solution. It is
// the paper's evalDG: reverse reachability from the merged true node over
// the dependency graph. The reachability itself is maintained by Add, so
// Solve only materializes the answer map; total cost over the system's
// lifetime stays O(|Vd| + |Ed|).
func (s *System[K]) Solve() map[K]bool {
	out := make(map[K]bool)
	for i, v := range s.val {
		if v {
			out[s.vars[i]] = true
		}
	}
	return out
}

// SolveFixpoint computes the same least solution by naive Kleene iteration
// (repeatedly re-evaluating every equation until no change). It exists as
// the ablation baseline A2 of DESIGN.md and as an oracle for tests; it runs
// in O(|Vd| · |Ed|) in the worst case.
func (s *System[K]) SolveFixpoint() map[K]bool {
	val := make([]bool, len(s.vars))
	copy(val, s.truth)
	for changed := true; changed; {
		changed = false
		for x, ds := range s.deps {
			if val[x] {
				continue
			}
			for _, y := range ds {
				if val[y] {
					val[x] = true
					changed = true
					break
				}
			}
		}
	}
	out := make(map[K]bool)
	for i, v := range val {
		if v {
			out[s.vars[i]] = true
		}
	}
	return out
}

// Value reports the solved value of x given a solution map from Solve.
func Value[K comparable](sol map[K]bool, x K) bool { return sol[x] }

// String summarizes the system.
func (s *System[K]) String() string {
	return fmt.Sprintf("bes{|Vd|=%d, |Ed|=%d}", s.NumVars(), s.NumEdges())
}
