package xbrtime

import (
	"math/rand"
	"testing"
)

// TestElemKernelsMatchScalarCanon pins the generic bulk kernels to the
// scalar definitions: for every Table 1 type, canonElems must equal
// element-wise Canon and maskElems element-wise width masking.
func TestElemKernelsMatchScalarCanon(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	for _, dt := range Types {
		raw := make([]uint64, 64)
		for i := range raw {
			raw[i] = rng.Uint64()
		}

		canon := append([]uint64(nil), raw...)
		dt.canonElems(canon)
		for i, r := range raw {
			if want := dt.Canon(r); canon[i] != want {
				t.Fatalf("%s canonElems[%d]: %#x, want Canon(%#x) = %#x",
					dt, i, canon[i], r, want)
			}
		}

		// canonElems is idempotent: canonical values re-canonicalise to
		// themselves.
		again := append([]uint64(nil), canon...)
		dt.canonElems(again)
		for i := range again {
			if again[i] != canon[i] {
				t.Fatalf("%s canonElems not idempotent at %d", dt, i)
			}
		}

		masked := make([]uint64, len(canon))
		dt.maskElems(masked, canon)
		for i, v := range canon {
			if want := v & dt.mask(); masked[i] != want {
				t.Fatalf("%s maskElems[%d]: %#x, want %#x", dt, i, masked[i], want)
			}
			// mask ∘ canon round-trips: canonicalising the masked image
			// recovers the canonical value.
			if got := dt.Canon(masked[i]); got != v {
				t.Fatalf("%s mask/canon round trip[%d]: %#x, want %#x", dt, i, got, v)
			}
		}

		// maskElems supports aliased dst == src.
		aliased := append([]uint64(nil), canon...)
		dt.maskElems(aliased, aliased)
		for i := range aliased {
			if aliased[i] != masked[i] {
				t.Fatalf("%s maskElems aliased[%d]: %#x, want %#x",
					dt, i, aliased[i], masked[i])
			}
		}
	}
}

// TestTypedTransferCostParity pins that the type argument is free: a
// transfer's virtual cost depends on the element width alone, so the
// Table 1 rows that share a width (long, long long, int64_t, size_t,
// double, …) cost the same cycles through Put and through Get, and a
// steady-state Put allocates nothing.
func TestTypedTransferCostParity(t *testing.T) {
	const nelems = 8

	// measure runs one remote transfer on a fresh deterministic runtime
	// and returns PE 0's virtual-clock delta.
	measure := func(call func(pe *PE, remote, local uint64) error) uint64 {
		var delta uint64
		rt := MustNew(Config{NumPEs: 2, Deterministic: true})
		defer rt.Close()
		err := rt.Run(func(pe *PE) error {
			buf, err := pe.Malloc(8 * nelems)
			if err != nil {
				return err
			}
			if err := pe.Barrier(); err != nil {
				return err
			}
			if pe.MyPE() != 0 {
				return nil
			}
			priv, err := pe.PrivateAlloc(8 * nelems)
			if err != nil {
				return err
			}
			start := pe.Now()
			if err := call(pe, buf, priv); err != nil {
				return err
			}
			delta = pe.Now() - start
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return delta
	}

	type cost struct{ put, get uint64 }
	byWidth := map[int]cost{}
	first := map[int]DType{}
	for _, dt := range Types {
		c := cost{
			put: measure(func(pe *PE, remote, local uint64) error {
				return pe.Put(dt, remote, local, nelems, 1, 1)
			}),
			get: measure(func(pe *PE, remote, local uint64) error {
				return pe.Get(dt, local, remote, nelems, 1, 1)
			}),
		}
		if want, seen := byWidth[dt.Width]; !seen {
			byWidth[dt.Width], first[dt.Width] = c, dt
		} else if c != want {
			t.Errorf("%s costs put=%d get=%d cycles, %s of the same width put=%d get=%d",
				dt, c.put, c.get, first[dt.Width], want.put, want.get)
		}
	}

	// Transfers to self on a single-PE runtime run on one goroutine, so
	// AllocsPerRun can drive them.
	rt := MustNew(Config{NumPEs: 1})
	defer rt.Close()
	err := rt.Run(func(pe *PE) error {
		buf, err := pe.Malloc(8 * nelems)
		if err != nil {
			return err
		}
		src, err := pe.PrivateAlloc(8 * nelems)
		if err != nil {
			return err
		}
		put := func() {
			if err := pe.Put(TypeInt64, buf, src, nelems, 1, 0); err != nil {
				t.Error(err)
			}
		}
		put()
		if allocs := testing.AllocsPerRun(50, put); allocs != 0 {
			t.Errorf("put allocates %v/op in steady state, want 0", allocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
