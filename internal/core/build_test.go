package core

import (
	"reflect"
	"testing"
)

// ringTrace collects ringRounds' rounds over one k-position ring whose
// ranks are positions and whose pieces are chunk ids. ringRounds reuses
// its buffer, so each round is copied.
func ringTrace(k int, chunk func(pos, r, k int) int) [][]move {
	var rounds [][]move
	ringRounds([]ring{{k: k, step: 1, piece: block}}, chunk, func(m []move) {
		rounds = append(rounds, append([]move(nil), m...))
	})
	return rounds
}

// TestRingRoundsArePermutations: every round of a ring schedule has
// each position acting exactly once on its left neighbour, so each is
// also a peer exactly once.
func TestRingRoundsArePermutations(t *testing.T) {
	for k := 2; k <= 17; k++ {
		for _, chunk := range []func(int, int, int) int{ringChunk, ringOwned} {
			rounds := ringTrace(k, chunk)
			if len(rounds) != k-1 {
				t.Fatalf("k=%d: %d rounds, want %d", k, len(rounds), k-1)
			}
			for r, moves := range rounds {
				acted, served := make([]int, k), make([]int, k)
				for _, m := range moves {
					if m.peer != (m.actor+k-1)%k {
						t.Fatalf("k=%d round %d: %d pulls from %d, not its left neighbour", k, r, m.actor, m.peer)
					}
					acted[m.actor]++
					served[m.peer]++
				}
				for pos := 0; pos < k; pos++ {
					if acted[pos] != 1 || served[pos] != 1 {
						t.Fatalf("k=%d round %d: position %d acts %d times, serves %d", k, r, pos, acted[pos], served[pos])
					}
				}
			}
		}
	}
}

// TestRingChunkTravels: the chunk a position folds in round r is the
// one its left neighbour folded in round r−1 (the partial moves one
// position per round), and after k−1 rounds chunk i has been folded at
// every position but its first holder, ending at position i.
func TestRingChunkTravels(t *testing.T) {
	for k := 2; k <= 17; k++ {
		rounds := ringTrace(k, ringChunk)
		visits := make([][]int, k) // visits[chunk] = positions that folded it, in round order
		for r, moves := range rounds {
			for _, m := range moves {
				c := m.what.v
				if r > 0 {
					if prev := rounds[r-1][m.peer].what.v; prev != c {
						t.Fatalf("k=%d round %d: position %d folds chunk %d, its neighbour folded %d the round before", k, r, m.actor, c, prev)
					}
				}
				visits[c] = append(visits[c], m.actor)
			}
		}
		for c, at := range visits {
			seen := map[int]bool{}
			for _, pos := range at {
				seen[pos] = true
			}
			if len(at) != k-1 || len(seen) != k-1 || at[len(at)-1] != c {
				t.Fatalf("k=%d: chunk %d folded at %v; want %d distinct positions ending at %d", k, c, at, k-1, c)
			}
		}
	}
}

// TestTimeReversedMirrorsPAT: the PAT reduce-scatter schedule is the
// allgather schedule with the rounds reversed and every edge reversed —
// same pieces, the two halves of a wrapped run included and in the same
// order — and reversing twice restores it.
func TestTimeReversedMirrorsPAT(t *testing.T) {
	for n := 2; n <= 33; n++ {
		fwd, rev := patRounds(n), timeReversed(patRounds(n))
		if len(fwd) != CeilLog2(n) || len(rev) != len(fwd) {
			t.Fatalf("n=%d: %d forward and %d reversed rounds, want %d", n, len(fwd), len(rev), CeilLog2(n))
		}
		wraps := false
		for r, moves := range fwd {
			mirror := rev[len(rev)-1-r]
			for i, m := range moves {
				if i > 0 && moves[i-1].actor == m.actor {
					wraps = true // second half of a wrapped run
					if m.what.v != 0 || moves[i-1].what.v+moves[i-1].what.cb != n {
						t.Fatalf("n=%d round %d: run split %+v | %+v does not wrap at block %d", n, r, moves[i-1].what, m.what, n)
					}
				}
				if w := (move{actor: m.peer, peer: m.actor, what: m.what}); mirror[i] != w {
					t.Fatalf("n=%d round %d: reversed edge %+v, want %+v", n, r, mirror[i], w)
				}
			}
		}
		if n >= 4 && !wraps {
			t.Errorf("n=%d: no run wraps; the split path went unexercised", n)
		}
		if !reflect.DeepEqual(timeReversed(rev), fwd) {
			t.Errorf("n=%d: reversing twice does not restore the schedule", n)
		}
	}
}

// TestGroupTreesStayInsideNodes: on uneven groups the per-node trees
// align to the deepest node's level count, cover every non-leader
// exactly once, and never cross a node boundary.
func TestGroupTreesStayInsideNodes(t *testing.T) {
	const n, P = 13, 4
	for name, gen := range map[string]func(int) [][]treeEdge{"put": putTreeEdges, "get": getTreeEdges} {
		levels := groupTrees(n, P, gen)
		if len(levels) != CeilLog2(P) {
			t.Fatalf("%s: %d levels, want %d", name, len(levels), CeilLog2(P))
		}
		reached := map[int]int{}
		for j, level := range levels {
			for _, e := range level {
				if e.from/P != e.to/P || e.to >= n {
					t.Errorf("%s level %d: edge %d-%d leaves its node", name, j, e.from, e.to)
				}
				reached[e.to]++
			}
		}
		for v := 0; v < n; v++ {
			want := 1
			if v%P == 0 {
				want = 0 // node leaders are roots
			}
			if reached[v] != want {
				t.Errorf("%s: rank %d is a child %d times, want %d", name, v, reached[v], want)
			}
		}
	}
}
