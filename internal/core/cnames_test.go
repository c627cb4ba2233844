package core

import (
	"testing"

	"xbgas/internal/xbrtime"
)

// TestCSurface pins the computed name table to the paper's surface:
// its size, the per-entry-point counts in docs/API_SURFACE.md order,
// and the C spellings.
func TestCSurface(t *testing.T) {
	surface := CSurface()
	if len(surface) != 693 {
		t.Fatalf("CSurface has %d entries, want 693", len(surface))
	}

	// 24 types per plain entry point; per reduction 24 × 4 arithmetic
	// operators + 21 integer types × 3 bitwise ones.
	wantOrder := []string{"Put", "PutNB", "Get", "GetNB", "Broadcast", "AllReduce",
		"ReduceScatter", "AllGather", "Alltoall", "Gather", "Reduce", "Scatter"}
	wantCount := []int{24, 24, 24, 24, 24, 159, 159, 24, 24, 24, 159, 24}
	var order []string
	var count []int
	for _, e := range surface {
		if len(order) == 0 || order[len(order)-1] != e.Entry {
			order = append(order, e.Entry)
			count = append(count, 0)
		}
		count[len(count)-1]++
	}
	if len(order) != len(wantOrder) {
		t.Fatalf("entry points %v, want %v", order, wantOrder)
	}
	for i := range wantOrder {
		if order[i] != wantOrder[i] || count[i] != wantCount[i] {
			t.Errorf("entry point %d: %s × %d, want %s × %d",
				i, order[i], count[i], wantOrder[i], wantCount[i])
		}
	}

	// A C name identifies one cell, except that the non-blocking
	// transfers share the blocking spelling.
	byName := map[string]CEntry{}
	int32Name := map[string]string{} // entry point → its int32 (sum) spelling
	for _, e := range surface {
		if prev, dup := byName[e.Name]; dup && prev.Entry+"NB" != e.Entry {
			t.Errorf("%s names both %s and %s", e.Name, prev.Entry, e.Entry)
		}
		byName[e.Name] = e
		if _, ok := xbrtime.TypeByName(e.Type.Name); !ok {
			t.Errorf("%s: %q is not a Table 1 TYPENAME", e.Name, e.Type.Name)
		}
		if e.Type == xbrtime.TypeInt32 && (!e.HasOp || e.Op == OpSum) {
			int32Name[e.Entry] = e.Name
		}
	}
	for _, c := range []struct{ entry, name string }{
		{"Put", "xbrtime_int32_put"},
		{"PutNB", "xbrtime_int32_put"},
		{"Broadcast", "xbrtime_int32_broadcast"},
		{"Reduce", "xbrtime_int32_reduce_sum"},
		{"AllReduce", "xbrtime_int32_allreduce_sum"},
		{"ReduceScatter", "xbrtime_int32_reduce_scatter_sum"},
		{"AllGather", "xbrtime_int32_allgather"},
		{"Alltoall", "xbrtime_int32_alltoall"},
	} {
		if got := int32Name[c.entry]; got != c.name {
			t.Errorf("%s over int32 is spelled %q, want %q", c.entry, got, c.name)
		}
	}
	if e := byName["xbrtime_ulonglong_reduce_scatter_xor"]; e.Entry != "ReduceScatter" ||
		e.Type != xbrtime.TypeULongLong || e.Op != OpBxor || e.Pkg != "core" {
		t.Errorf("xbrtime_ulonglong_reduce_scatter_xor resolves to %+v", e)
	}
}
