package xbrtime

import "testing"

// TestMailbox walks the table through the orders a keyed wait meets:
// post before take, take before post (the poster learns whom to wake),
// two posts pending on one key, and a drained key being dropped.
func TestMailbox(t *testing.T) {
	type key struct{ rank, word int }
	m := NewMailbox[key](4)
	k := key{1, 0}

	// A post before the take: nobody to wake, the take finds it.
	if m.Post(1, k, 100, 0) {
		t.Error("post with no sleeper reported a wake")
	}
	if at, by, ok := m.Take(k); !ok || at != 100 || by != 0 {
		t.Errorf("take after post = (%d, %d, %v), want (100, 0, true)", at, by, ok)
	}
	if _, _, ok := m.Take(k); ok {
		t.Error("second take of a single post succeeded")
	}

	// A take before the post: the owner sleeps, a post on another key
	// leaves it asleep, the post on its key reports it and clears it.
	m.Sleep(1, k)
	if got, ok := m.Sleeper(1); !ok || got != k {
		t.Errorf("Sleeper(1) = (%v, %v), want (%v, true)", got, ok, k)
	}
	if m.Post(1, key{1, 1}, 40, 3) {
		t.Error("post on another key woke the sleeper")
	}
	if !m.Post(1, k, 50, 2) {
		t.Error("post on the sleeper's key did not report the wake")
	}
	if _, ok := m.Sleeper(1); ok {
		t.Error("woken PE still recorded as asleep")
	}
	if at, by, ok := m.Take(k); !ok || at != 50 || by != 2 {
		t.Errorf("take after wake = (%d, %d, %v), want (50, 2, true)", at, by, ok)
	}
	m.Take(key{1, 1})

	// Two posts pending: each take gets the latest arrival and the
	// latest poster.
	m.Post(1, k, 300, 0)
	m.Post(1, k, 200, 3)
	for i := 0; i < 2; i++ {
		if at, by, ok := m.Take(k); !ok || at != 300 || by != 3 {
			t.Errorf("take %d of two pending = (%d, %d, %v), want (300, 3, true)", i, at, by, ok)
		}
	}

	// Drained: the key is gone, and a later post starts afresh.
	if len(m.cells) != 0 {
		t.Errorf("%d cells left after every post was taken, want 0", len(m.cells))
	}
	m.Post(1, k, 10, 0)
	if at, _, _ := m.Take(k); at != 10 {
		t.Errorf("post after drain taken at %d, want 10 (not an earlier arrival)", at)
	}

	m.Post(2, key{2, 0}, 1, 0)
	m.Sleep(3, key{3, 0})
	m.Reset()
	if _, ok := m.Sleeper(3); ok || len(m.cells) != 0 {
		t.Error("Reset left a post or a sleep behind")
	}
}

// TestRendezvousTablesDrain runs a thousand dissemination barriers and
// a thousand flag round trips per pair on 8 PEs, free-running and in
// lockstep: afterwards neither table holds a post or a sleeper.
func TestRendezvousTablesDrain(t *testing.T) {
	for _, det := range []bool{false, true} {
		rt := MustNew(Config{NumPEs: 8, Barrier: BarrierDissemination, Deterministic: det})
		err := rt.Run(func(pe *PE) error {
			flags, err := pe.Malloc(16)
			if err != nil {
				return err
			}
			me := pe.MyPE()
			for i := 0; i < 1000; i++ {
				if err := pe.Barrier(); err != nil {
					return err
				}
			}
			for i := 0; i < 1000; i++ {
				if me%2 == 0 {
					if err := pe.SignalAfter(Handle{}, flags, me+1); err != nil {
						return err
					}
					if err := pe.WaitFlag(flags + 8); err != nil {
						return err
					}
					continue
				}
				if err := pe.WaitFlag(flags); err != nil {
					return err
				}
				if err := pe.SignalAfter(Handle{}, flags+8, me-1); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("deterministic=%v: %v", det, err)
		}
		if n := len(rt.flags.box.cells); n != 0 {
			t.Errorf("deterministic=%v: %d flag cells left", det, n)
		}
		if n := len(rt.dissem.box.cells); n != 0 {
			t.Errorf("deterministic=%v: %d dissemination slots left", det, n)
		}
		for r := 0; r < 8; r++ {
			if _, ok := rt.flags.sleeper(r); ok {
				t.Errorf("deterministic=%v: PE %d still asleep on a flag", det, r)
			}
			if _, ok := rt.dissem.sleeper(r); ok {
				t.Errorf("deterministic=%v: PE %d still asleep on a dissemination slot", det, r)
			}
		}
	}
}
