package bench

import (
	"fmt"
	"sync"

	"xbgas/internal/core"
	"xbgas/internal/xbrtime"
)

// GUPSParams configures the GUPS (Giga-Updates Per Second /
// RandomAccess) benchmark: random read-xor-write updates to a table
// distributed evenly across the PEs.
type GUPSParams struct {
	// TableWords is the total table size in 64-bit words across all
	// PEs; it must be a power of two and divisible by the PE count.
	TableWords uint64
	// UpdatesPerPE is the number of updates each PE issues.
	UpdatesPerPE int
	// Lookahead is the update batching depth (HPCC permits batching up
	// to 1024 updates); remote updates within a batch overlap through
	// the non-blocking put/get forms.
	Lookahead int
	// Verify re-runs the update stream (xor is an involution) and
	// counts residual mismatches, "run with the verification features
	// enabled to guarantee correct execution" (paper §5.2). Like HPCC,
	// up to 1% of updates may be lost to racing read-modify-writes.
	Verify bool
	// Weak switches to weak scaling: TableWords is interpreted as the
	// per-PE table size, so the global table grows with the PE count
	// (the paper's sweep is strong scaling: a fixed global problem).
	Weak bool
	// Algo forces the collective algorithm for the kernel's broadcast
	// and reduce calls (the bench driver's -algo flag); the zero value
	// keeps the binomial tree the kernel has always used.
	Algo core.Algorithm
	// Runtime overrides the runtime configuration (NumPEs is set by
	// RunGUPS).
	Runtime xbrtime.Config
}

// DefaultGUPSParams returns the scaled-down evaluation configuration:
// a 16 MiB table (2^21 words) — double the paper's 8 MB L2, so the
// single-PE run is capacity-bound exactly as the full-size run is —
// with 2048 updates per PE, batched 64 deep.
func DefaultGUPSParams() GUPSParams {
	return GUPSParams{
		TableWords:   1 << 21,
		UpdatesPerPE: 2048,
		Lookahead:    64,
		Verify:       true,
	}
}

// gupsLCG advances the HPCC-style pseudo-random update stream.
func gupsLCG(x uint64) uint64 {
	return x*6364136223846793005 + 1442695040888963407
}

// gupsMix finalises an LCG state into a well-mixed index value
// (Murmur3-style). A power-of-two-modulus LCG has short-period low
// bits — and they never feel high-bit seed differences, so masking raw
// states would make every PE walk the same word sequence and collide on
// every update. Mixing folds the high bits down first.
func gupsMix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

// RunGUPS executes the benchmark on nPEs processing elements and
// reports updates as operations (Figure 4's metric, scaled to MOPS).
func RunGUPS(p GUPSParams, nPEs int) (Result, error) {
	if nPEs <= 0 {
		return Result{}, fmt.Errorf("bench: need at least one PE")
	}
	if p.Weak {
		// Per-PE size fixed: scale the global table with the PE count.
		// The power-of-two index mask requires a power-of-two PE count.
		if nPEs&(nPEs-1) != 0 {
			return Result{}, fmt.Errorf("bench: weak scaling needs a power-of-two PE count, got %d", nPEs)
		}
		p.TableWords *= uint64(nPEs)
	}
	if p.TableWords == 0 || p.TableWords&(p.TableWords-1) != 0 {
		return Result{}, fmt.Errorf("bench: table words %d must be a power of two", p.TableWords)
	}
	if p.TableWords%uint64(nPEs) != 0 {
		return Result{}, fmt.Errorf("bench: table of %d words not divisible by %d PEs",
			p.TableWords, nPEs)
	}
	if p.Lookahead <= 0 {
		return Result{}, fmt.Errorf("bench: lookahead must be positive")
	}
	cfg := p.Runtime
	cfg.NumPEs = nPEs
	rt, err := xbrtime.New(cfg)
	if err != nil {
		return Result{}, err
	}
	defer rt.Close()

	perPE := p.TableWords / uint64(nPEs)
	dt := xbrtime.TypeUint64
	algo := p.Algo
	if algo == "" {
		algo = core.AlgoBinomial // the kernel's historical algorithm
	}

	var mu sync.Mutex
	var spans []uint64 // per-PE timed cycles
	var totalErrors uint64
	verified := true

	err = rt.Run(func(pe *xbrtime.PE) error {
		me := pe.MyPE()
		table, err := pe.Malloc(perPE * 8)
		if err != nil {
			return err
		}
		// Untimed initialisation: table[i] = global index (the HPCC
		// initial condition), outside the timed section.
		base := uint64(me) * perPE
		chunk := make([]uint64, perPE)
		for i := range chunk {
			chunk[i] = base + uint64(i)
		}
		pe.PokeElems(dt, table, chunk)

		// Broadcast the run parameters from PE 0 (the benchmark's
		// startup uses the broadcast collective, §5.2).
		param, err := pe.Malloc(8)
		if err != nil {
			return err
		}
		seedSrc, err := pe.PrivateAlloc(8)
		if err != nil {
			return err
		}
		if me == 0 {
			pe.Poke(dt, seedSrc, 0x2545F4914F6CDD1D)
		}
		if err := core.BroadcastWith(algo, pe, dt, param, seedSrc, 1, 1, 0); err != nil {
			return err
		}
		seed := pe.Peek(dt, param)

		scratch, err := pe.PrivateAlloc(uint64(p.Lookahead) * 8)
		if err != nil {
			return err
		}

		if err := pe.Barrier(); err != nil {
			return err
		}
		start := pe.Now()

		runStream := func() error {
			x := gupsLCG(seed ^ uint64(me)<<32)
			type slot struct {
				owner int
				addr  uint64
				val   uint64
				h     xbrtime.Handle
			}
			pending := make([]slot, 0, p.Lookahead)
			flush := func() error {
				// Phase 2: all gets have landed; xor and put back.
				for i := range pending {
					pe.Wait(pending[i].h)
				}
				for i := range pending {
					s := &pending[i]
					pe.UpdateElem(dt, scratch+uint64(i)*8, func(cur uint64) uint64 { return cur ^ s.val })
					pe.Advance(1) // xor ALU
					h, err := pe.PutNB(dt, s.addr, scratch+uint64(i)*8, 1, 1, s.owner)
					if err != nil {
						return err
					}
					s.h = h
				}
				for i := range pending {
					pe.Wait(pending[i].h)
				}
				pending = pending[:0]
				return nil
			}
			for u := 0; u < p.UpdatesPerPE; u++ {
				x = gupsLCG(x)
				idx := gupsMix(x) & (p.TableWords - 1)
				owner := int(idx / perPE)
				addr := table + (idx%perPE)*8
				pe.Advance(4) // index arithmetic
				if owner == me {
					pe.UpdateElem(dt, addr, func(v uint64) uint64 { return v ^ x })
					pe.Advance(1) // xor ALU
					continue
				}
				i := len(pending)
				h, err := pe.GetNB(dt, scratch+uint64(i)*8, addr, 1, 1, owner)
				if err != nil {
					return err
				}
				pending = append(pending, slot{owner: owner, addr: addr, val: x, h: h})
				if len(pending) == p.Lookahead {
					if err := flush(); err != nil {
						return err
					}
				}
			}
			return flush()
		}

		if err := runStream(); err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		span := pe.Now() - start

		// Aggregate the per-PE update counts with the reduction
		// collective (§5.2: GUPS uses reduction and broadcast).
		cnt, err := pe.Malloc(8)
		if err != nil {
			return err
		}
		cntOut, err := pe.PrivateAlloc(8)
		if err != nil {
			return err
		}
		pe.Poke(dt, cnt, uint64(p.UpdatesPerPE))
		if err := core.ReduceWith(algo, pe, dt, core.OpSum, cntOut, cnt, 1, 1, 0); err != nil {
			return err
		}
		if me == 0 {
			if got := pe.Peek(dt, cntOut); got != uint64(p.UpdatesPerPE)*uint64(nPEs) {
				return fmt.Errorf("bench: update-count reduction = %d", got)
			}
		}

		var errCount uint64
		if p.Verify {
			// Second pass restores the initial table (xor involution)...
			if err := runStream(); err != nil {
				return err
			}
			if err := pe.Barrier(); err != nil {
				return err
			}
			// ...then every PE audits its own chunk functionally.
			pe.PeekElems(dt, table, chunk)
			for i, v := range chunk {
				if v != base+uint64(i) {
					errCount++
				}
			}
			pe.Poke(dt, cnt, errCount)
			if err := core.ReduceWith(algo, pe, dt, core.OpSum, cntOut, cnt, 1, 1, 0); err != nil {
				return err
			}
			if me == 0 {
				errCount = pe.Peek(dt, cntOut)
			}
		}

		mu.Lock()
		spans = append(spans, span)
		if me == 0 && p.Verify {
			totalErrors = errCount
			// HPCC tolerance: up to 1% of updates may race.
			if errCount > uint64(p.UpdatesPerPE)*uint64(nPEs)/100 {
				verified = false
			}
		}
		mu.Unlock()
		return pe.Free(table)
	})
	if err != nil {
		return Result{}, err
	}

	var makespan uint64
	for _, s := range spans {
		if s > makespan {
			makespan = s
		}
	}
	fab := rt.Machine().Fabric
	return Result{
		Name:             "GUPS",
		PEs:              nPEs,
		Ops:              uint64(p.UpdatesPerPE) * uint64(nPEs),
		Cycles:           makespan,
		Verified:         verified,
		Errors:           totalErrors,
		Messages:         fab.Messages(),
		Bytes:            fab.Bytes(),
		ContentionCycles: fab.ContentionCycles(),
	}, nil
}
