package core

import (
	"sync"
	"testing"

	"xbgas/internal/xbrtime"
)

// TestScatterMessageSizesShrinkDownTree checks Algorithm 3's defining
// property: each round forwards a block covering the partner and its
// children, so observed message sizes halve down the tree.
func TestScatterMessageSizesShrinkDownTree(t *testing.T) {
	const nPEs, root = 8, 0
	msgs := []int{1, 1, 1, 1, 1, 1, 1, 1}
	disp := []int{0, 1, 2, 3, 4, 5, 6, 7}
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: nPEs})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	sizes := map[[2]int]int{} // {from,to} -> nelems
	err = rt.Run(func(pe *xbrtime.PE) error {
		me := pe.MyPE()
		pe.SetCommTrace(func(ev xbrtime.TraceEvent) {
			mu.Lock()
			sizes[[2]int{me, ev.Target}] = ev.Nelems
			mu.Unlock()
		})
		dest, err := pe.Malloc(8 * 8)
		if err != nil {
			return err
		}
		src, err := pe.PrivateAlloc(8 * 8)
		if err != nil {
			return err
		}
		return Scatter(pe, xbrtime.TypeInt64, dest, src, msgs, disp, 8, root)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]int]int{
		{0, 4}: 4, // root forwards half the data to the opposite subtree
		{0, 2}: 2, {4, 6}: 2,
		{0, 1}: 1, {2, 3}: 1, {4, 5}: 1, {6, 7}: 1,
	}
	if len(sizes) != len(want) {
		t.Fatalf("transfers = %v", sizes)
	}
	for k, v := range want {
		if sizes[k] != v {
			t.Errorf("put %v: %d elems, want %d", k, sizes[k], v)
		}
	}
}
