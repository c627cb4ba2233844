// Quickstart: the smallest complete xBGAS program.
//
// Four PEs start, allocate a symmetric buffer, exchange values with
// one-sided puts, broadcast a parameter from PE 0, and sum-reduce a
// per-PE contribution back to PE 0 — the core vocabulary of the xBGAS
// runtime API (paper §3.3) and its collective library (paper §4).
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"

	"xbgas/internal/core"
	"xbgas/internal/xbrtime"
)

func main() {
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	var mu sync.Mutex
	var lines []string
	say := func(format string, args ...interface{}) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	err = rt.Run(func(pe *xbrtime.PE) error {
		me, n := pe.MyPE(), pe.NumPEs()

		// A symmetric allocation: the same address on every PE.
		inbox, err := pe.Malloc(8)
		if err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}

		// One-sided put: deposit a token in the right neighbour's inbox
		// (C: xbrtime_long_put — the type rides as an argument here).
		token, err := pe.PrivateAlloc(8)
		if err != nil {
			return err
		}
		pe.Poke(xbrtime.TypeLong, token, uint64(int64(100+me)))
		if err := pe.Put(xbrtime.TypeLong, inbox, token, 1, 1, (me+1)%n); err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		got := int64(pe.Peek(xbrtime.TypeLong, inbox))
		say("PE %d received token %d from PE %d", me, got, (me+n-1)%n)

		// Broadcast a parameter from PE 0 (binomial tree, Algorithm 1;
		// C: xbrtime_long_broadcast).
		param, err := pe.Malloc(8)
		if err != nil {
			return err
		}
		seed, err := pe.PrivateAlloc(8)
		if err != nil {
			return err
		}
		if me == 0 {
			pe.Poke(xbrtime.TypeLong, seed, 42)
		}
		if err := core.Broadcast(pe, xbrtime.TypeLong, param, seed, 1, 1, 0); err != nil {
			return err
		}

		// Reduce everyone's (parameter + rank) to PE 0 (Algorithm 2;
		// C: xbrtime_long_reduce_sum).
		contrib, err := pe.Malloc(8)
		if err != nil {
			return err
		}
		sum, err := pe.PrivateAlloc(8)
		if err != nil {
			return err
		}
		p := int64(pe.Peek(xbrtime.TypeLong, param))
		pe.Poke(xbrtime.TypeLong, contrib, uint64(p+int64(me)))
		if err := core.Reduce(pe, xbrtime.TypeLong, core.OpSum, sum, contrib, 1, 1, 0); err != nil {
			return err
		}
		if me == 0 {
			say("PE 0: broadcast sent %d to all PEs; reduction returned %d (want %d)",
				p, int64(pe.Peek(xbrtime.TypeLong, sum)), 4*p+0+1+2+3)
		}
		say("PE %d finished after %d simulated cycles", me, pe.Now())
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
}
