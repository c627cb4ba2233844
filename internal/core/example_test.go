package core_test

import (
	"fmt"
	"log"
	"sort"
	"sync"

	"xbgas/internal/core"
	"xbgas/internal/xbrtime"
)

// ExampleBroadcast distributes a value from PE 1 to all four PEs with
// the binomial-tree broadcast of paper Algorithm 1.
func ExampleBroadcast() {
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	var mu sync.Mutex
	var got []string
	err = rt.Run(func(pe *xbrtime.PE) error {
		dest, err := pe.Malloc(8)
		if err != nil {
			return err
		}
		src, err := pe.PrivateAlloc(8)
		if err != nil {
			return err
		}
		if pe.MyPE() == 1 {
			pe.Poke(xbrtime.TypeLong, src, 42)
		}
		if err := core.Broadcast(pe, xbrtime.TypeLong, dest, src, 1, 1, 1); err != nil {
			return err
		}
		mu.Lock()
		got = append(got, fmt.Sprintf("PE %d holds %d", pe.MyPE(), pe.Peek(xbrtime.TypeLong, dest)))
		mu.Unlock()
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	sort.Strings(got)
	for _, line := range got {
		fmt.Println(line)
	}
	// Output:
	// PE 0 holds 42
	// PE 1 holds 42
	// PE 2 holds 42
	// PE 3 holds 42
}

// ExampleReduce sums one value per PE onto the root with the get-based
// binomial tree of paper Algorithm 2.
func ExampleReduce() {
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	err = rt.Run(func(pe *xbrtime.PE) error {
		src, err := pe.Malloc(8) // must be symmetric: peers get from it
		if err != nil {
			return err
		}
		dest, err := pe.PrivateAlloc(8)
		if err != nil {
			return err
		}
		pe.Poke(xbrtime.TypeLong, src, uint64(pe.MyPE()+1))
		if err := core.Reduce(pe, xbrtime.TypeLong, core.OpSum, dest, src, 1, 1, 0); err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			fmt.Printf("sum of 1..4 = %d\n", pe.Peek(xbrtime.TypeLong, dest))
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output:
	// sum of 1..4 = 10
}

// ExampleScatter hands each PE its own slice of the root's array,
// then Gather reassembles it.
func ExampleScatter() {
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	msgs := []int{1, 2, 1} // PE 1 receives two elements
	disp := []int{0, 1, 3}
	var mu sync.Mutex
	var got []string
	err = rt.Run(func(pe *xbrtime.PE) error {
		dest, err := pe.Malloc(8 * 4)
		if err != nil {
			return err
		}
		src, err := pe.PrivateAlloc(8 * 4)
		if err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			for i := 0; i < 4; i++ {
				pe.Poke(xbrtime.TypeLong, src+uint64(i*8), uint64(10*(i+1)))
			}
		}
		if err := core.Scatter(pe, xbrtime.TypeLong, dest, src, msgs, disp, 4, 0); err != nil {
			return err
		}
		mine := make([]uint64, msgs[pe.MyPE()])
		for i := range mine {
			mine[i] = pe.Peek(xbrtime.TypeLong, dest+uint64(i*8))
		}
		mu.Lock()
		got = append(got, fmt.Sprintf("PE %d received %v", pe.MyPE(), mine))
		mu.Unlock()
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	sort.Strings(got)
	for _, line := range got {
		fmt.Println(line)
	}
	// Output:
	// PE 0 received [10]
	// PE 1 received [20 30]
	// PE 2 received [40]
}

// ExampleVirtualRank reproduces paper Table 2: with 7 PEs and root 4,
// the root becomes virtual rank 0.
func ExampleVirtualRank() {
	for logRank := 0; logRank < 7; logRank++ {
		fmt.Printf("log %d -> vir %d\n", logRank, core.VirtualRank(logRank, 4, 7))
	}
	// Output:
	// log 0 -> vir 3
	// log 1 -> vir 4
	// log 2 -> vir 5
	// log 3 -> vir 6
	// log 4 -> vir 0
	// log 5 -> vir 1
	// log 6 -> vir 2
}
