// Stencil: a one-dimensional heat-diffusion solver on the PGAS model.
//
// The rod is split into per-PE blocks held in symmetric memory. Each
// Jacobi iteration exchanges halo cells with the left and right
// neighbours using one-sided puts (the natural xBGAS idiom: write your
// boundary directly into the neighbour's ghost cell), then computes the
// 3-point stencil locally. Every few sweeps the PEs agree on the global
// residual with a max-reduction followed by a broadcast — the
// reduce-then-broadcast composition the paper contrasts with
// OpenSHMEM's fused to-all calls (§4.7).
//
// Run with:
//
//	go run ./examples/stencil
package main

import (
	"fmt"
	"log"
	"math"
	"sync"

	"xbgas/internal/core"
	"xbgas/internal/xbrtime"
)

const (
	nPEs       = 4
	cellsPerPE = 64
	maxSweeps  = 500
	checkEvery = 10
	tolerance  = 1e-4
)

func main() {
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: nPEs})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	dt := xbrtime.TypeDouble
	w := uint64(dt.Width)

	var mu sync.Mutex
	sweepsDone := 0
	converged := false
	var finalResidual float64
	var probeTemp float64

	err = rt.Run(func(pe *xbrtime.PE) error {
		me, n := pe.MyPE(), pe.NumPEs()

		// Block layout with ghost cells: [ghostL, c0..c63, ghostR].
		cells, err := pe.Malloc((cellsPerPE + 2) * w)
		if err != nil {
			return err
		}
		next, err := pe.PrivateAlloc((cellsPerPE + 2) * w)
		if err != nil {
			return err
		}
		at := func(base uint64, i int) uint64 { return base + uint64(i)*w }

		// Initial condition: 1.0 at the left edge of the rod, 0 inside.
		for i := 0; i <= cellsPerPE+1; i++ {
			pe.Poke(dt, at(cells, i), dt.FromFloat(0))
		}
		if me == 0 {
			// Fixed Dirichlet boundary: the first real cell is pinned
			// at temperature 1 and heat diffuses rightward.
			pe.Poke(dt, at(cells, 1), dt.FromFloat(1))
		}
		if err := pe.Barrier(); err != nil {
			return err
		}

		resBuf, err := pe.Malloc(w)
		if err != nil {
			return err
		}
		resOut, err := pe.Malloc(w)
		if err != nil {
			return err
		}
		resPriv, err := pe.PrivateAlloc(w)
		if err != nil {
			return err
		}

		sweep := 0
		for ; sweep < maxSweeps; sweep++ {
			// Halo exchange: push boundary cells into the neighbours'
			// ghost slots with one-sided puts (C: xbrtime_double_put).
			if me > 0 {
				if err := pe.Put(dt, at(cells, cellsPerPE+1), at(cells, 1), 1, 1, me-1); err != nil {
					return err
				}
			}
			if me < n-1 {
				if err := pe.Put(dt, at(cells, 0), at(cells, cellsPerPE), 1, 1, me+1); err != nil {
					return err
				}
			}
			if err := pe.Barrier(); err != nil {
				return err
			}

			// Local 3-point stencil.
			localRes := 0.0
			for i := 1; i <= cellsPerPE; i++ {
				if me == 0 && i == 1 {
					// Fixed Dirichlet boundary on the global left edge.
					pe.Poke(dt, at(next, i), pe.Peek(dt, at(cells, i)))
					continue
				}
				l := dt.Float(pe.ReadElem(dt, at(cells, i-1)))
				c := dt.Float(pe.ReadElem(dt, at(cells, i)))
				r := dt.Float(pe.ReadElem(dt, at(cells, i+1)))
				v := 0.5*c + 0.25*(l+r)
				pe.WriteElem(dt, at(next, i), dt.FromFloat(v))
				pe.Advance(6) // stencil FLOPs
				if d := math.Abs(v - c); d > localRes {
					localRes = d
				}
			}
			for i := 1; i <= cellsPerPE; i++ {
				pe.WriteElem(dt, at(cells, i), pe.ReadElem(dt, at(next, i)))
			}

			// Periodic convergence check: global max residual
			// (C: xbrtime_double_reduce_max, then xbrtime_double_broadcast).
			if sweep%checkEvery == checkEvery-1 {
				pe.Poke(dt, resBuf, dt.FromFloat(localRes))
				if err := core.Reduce(pe, dt, core.OpMax, resPriv, resBuf, 1, 1, 0); err != nil {
					return err
				}
				if me == 0 {
					pe.Poke(dt, resOut, pe.Peek(dt, resPriv))
				}
				if err := core.Broadcast(pe, dt, resOut, resOut, 1, 1, 0); err != nil {
					return err
				}
				global := dt.Float(pe.Peek(dt, resOut))
				if me == 0 {
					mu.Lock()
					finalResidual = global
					sweepsDone = sweep + 1
					mu.Unlock()
				}
				if global < tolerance {
					if me == 0 {
						mu.Lock()
						converged = true
						mu.Unlock()
					}
					break
				}
			}
		}
		// Sample the temperature a quarter of the way down the rod to
		// show the heat front moving.
		if me == 0 {
			mu.Lock()
			probeTemp = dt.Float(pe.Peek(dt, at(cells, cellsPerPE/4)))
			mu.Unlock()
		}
		return pe.Barrier()
	})
	if err != nil {
		log.Fatal(err)
	}
	status := "still diffusing"
	if converged {
		status = "converged"
	}
	fmt.Printf("stencil: %d PEs x %d cells, %s after %d sweeps (residual %.3g)\n",
		nPEs, cellsPerPE, status, sweepsDone, finalResidual)
	fmt.Printf("temperature at cell %d on PE 0: %.4f (boundary held at 1.0)\n",
		cellsPerPE/4, probeTemp)
	fmt.Printf("simulated time: %.3f ms at 1 GHz\n",
		float64(rt.MaxClock())/1e6)
}
