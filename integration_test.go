// Cross-module integration tests: each one exercises a path that spans
// several subsystems end to end (collectives over the instruction-level
// transport, benchmarks on alternative fabrics, assembly SPMD programs
// feeding the same machine model the runtime uses).
package xbgas_test

import (
	"strings"
	"testing"

	"xbgas/internal/asm"
	"xbgas/internal/bench"
	"xbgas/internal/core"
	"xbgas/internal/fabric"
	"xbgas/internal/sim"
	"xbgas/internal/xbrtime"
)

// TestCollectivesOverSpikeTransport runs the paper's binomial-tree
// broadcast and reduction with every remote transfer executed as real
// xBGAS instructions on the simulator — the full stack in one test:
// core → xbrtime → asm → sim → isa → olb → fabric → mem.
func TestCollectivesOverSpikeTransport(t *testing.T) {
	const nPEs = 4
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: nPEs, Transport: xbrtime.TransportSpike})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	err = rt.Run(func(pe *xbrtime.PE) error {
		dt := xbrtime.TypeInt64
		buf, err := pe.Malloc(8 * 4)
		if err != nil {
			return err
		}
		out, err := pe.Malloc(8 * 4)
		if err != nil {
			return err
		}
		src, err := pe.PrivateAlloc(8 * 4)
		if err != nil {
			return err
		}
		if pe.MyPE() == 1 {
			for i := 0; i < 4; i++ {
				pe.Poke(dt, src+uint64(i*8), uint64(600+i))
			}
		}
		if err := core.Broadcast(pe, dt, buf, src, 4, 1, 1); err != nil {
			return err
		}
		for i := 0; i < 4; i++ {
			if got := pe.Peek(dt, buf+uint64(i*8)); got != uint64(600+i) {
				t.Errorf("PE %d broadcast elem %d = %d", pe.MyPE(), i, got)
			}
		}
		if err := core.Reduce(pe, dt, core.OpSum, out, buf, 4, 1, 0); err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			for i := 0; i < 4; i++ {
				want := uint64(nPEs * (600 + i))
				if got := pe.Peek(dt, out+uint64(i*8)); got != want {
					t.Errorf("reduce elem %d = %d, want %d", i, got, want)
				}
			}
		}
		if err := pe.Free(buf); err != nil {
			return err
		}
		return pe.Free(out)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGUPSOnMessagePassingFabric checks the §3.1 claim end to end: the
// identical GUPS workload must be slower on a message-passing-style
// transport than on the xBGAS one-sided model.
func TestGUPSOnMessagePassingFabric(t *testing.T) {
	p := bench.DefaultGUPSParams()
	p.TableWords = 1 << 14
	p.UpdatesPerPE = 512
	p.Verify = false

	fast, err := bench.RunGUPS(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	p.Runtime = xbrtime.Config{Fabric: fabric.MessageConfig()}
	slow, err := bench.RunGUPS(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if slow.TotalMOPS() >= fast.TotalMOPS() {
		t.Errorf("message passing (%.2f MOPS) not slower than xBGAS (%.2f MOPS)",
			slow.TotalMOPS(), fast.TotalMOPS())
	}
}

// TestISOnRingTopology runs the full Integer Sort on a ring instead of
// the fully-connected fabric: topology independence at workload scale.
func TestISOnRingTopology(t *testing.T) {
	p := bench.DefaultISParams()
	p.TotalKeys = 1 << 12
	p.MaxKey = 1 << 8
	p.Iterations = 1
	p.Runtime = xbrtime.Config{Topology: fabric.Ring{N: 4}}
	r, err := bench.RunIS(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified {
		t.Errorf("IS on ring failed verification: %d errors", r.Errors)
	}
}

// TestAssemblySPMDAllReduce implements a tiny all-reduce in bare xBGAS
// assembly (every core pushes its value to node 0, node 0 sums and
// broadcasts back through remote stores) and runs it with RunSPMD —
// the workflow a bare-metal xBGAS programmer would use.
func TestAssemblySPMDAllReduce(t *testing.T) {
	const n = 4
	m, err := sim.NewMachine(sim.DefaultConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	src := `
		li   a7, 500
		ecall                # a0 = rank
		mv   s0, a0
		li   a7, 501
		ecall                # a0 = n
		mv   s1, a0

		# Deposit (rank+1)^2 into node 0's slot array at 0x9000+8*rank.
		addi t0, s0, 1
		mul  t0, t0, t0
		li   t1, 1           # object ID of node 0
		eaddie e30, t1, 0
		li   t5, 0x9000
		slli t2, s0, 3
		add  t5, t5, t2
		esd  t0, 0(t5)

		li   a7, 503
		ecall                # barrier: all deposits visible

		bnez s0, fetch
		# Node 0 sums the slots and stores the result at 0xA000 on
		# every node (including itself via object ID 0... use loop).
		li   t0, 0x9000
		li   t1, 0
		mv   t2, s1
	sumloop:
		ld   t3, 0(t0)
		add  t1, t1, t3
		addi t0, t0, 8
		addi t2, t2, -1
		bnez t2, sumloop
		# fan the sum out to every node
		li   t4, 0           # rank cursor
	fan:
		addi t6, t4, 1       # object ID = rank+1... but self is ID 0
		beq  t4, s0, self
		eaddie e30, t6, 0
		j    store
	self:
		eaddie e30, zero, 0
	store:
		li   t5, 0xA000
		esd  t1, 0(t5)
		addi t4, t4, 1
		blt  t4, s1, fan
	fetch:
		li   a7, 503
		ecall                # barrier: result visible everywhere
		li   t0, 0xA000
		ld   a0, 0(t0)
		li   a7, 93
		ecall
	`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	results, err := m.RunSPMD(prog, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(1 + 4 + 9 + 16) // sum of (rank+1)^2
	for rank, r := range results {
		if r.Core.ExitCode != want {
			t.Errorf("core %d allreduce = %d, want %d", rank, r.Core.ExitCode, want)
		}
	}
}

// TestBenchCLIOutputShapes spot-checks that the report generators used
// by cmd/xbgas-bench produce the paper's row structure.
func TestBenchCLIOutputShapes(t *testing.T) {
	var b strings.Builder
	if err := bench.AblationBarrier(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "dissemination") {
		t.Errorf("barrier ablation:\n%s", b.String())
	}
	b.Reset()
	if err := bench.MicroPointToPoint(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "GB/s") || strings.Count(out, "\n") < 8 {
		t.Errorf("micro output:\n%s", out)
	}
}

// TestTeamCollectivesComposeWithWorld runs a reduction inside two
// disjoint teams followed by a world broadcast of the two partial
// results — the composition pattern subset collectives exist for.
func TestTeamCollectivesComposeWithWorld(t *testing.T) {
	const nPEs = 6
	rt, err := xbrtime.New(xbrtime.Config{NumPEs: nPEs})
	if err != nil {
		t.Fatal(err)
	}
	evens, err := rt.NewTeam([]int{0, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	odds, err := rt.NewTeam([]int{1, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Run(func(pe *xbrtime.PE) error {
		dt := xbrtime.TypeInt64
		src, err := pe.Malloc(8)
		if err != nil {
			return err
		}
		work, err := pe.Malloc(8)
		if err != nil {
			return err
		}
		partial, err := pe.Malloc(8)
		if err != nil {
			return err
		}
		pe.Poke(dt, src, uint64(pe.MyPE()+1))
		if err := pe.Barrier(); err != nil {
			return err
		}
		team := evens
		if pe.MyPE()%2 == 1 {
			team = odds
		}
		if err := core.TeamReduce(pe, team, dt, core.OpSum, partial, src, work, 1, 1, 0); err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		// Team roots are PEs 0 and 1; broadcast the even total from 0.
		if err := core.Broadcast(pe, dt, work, partial, 1, 1, 0); err != nil {
			return err
		}
		if got := int64(pe.Peek(dt, work)); got != 1+3+5 { // ranks 0,2,4 → values 1,3,5
			t.Errorf("PE %d even-team total = %d, want 9", pe.MyPE(), got)
		}
		// All PEs must finish checking before the next broadcast reuses
		// the symmetric work buffer.
		if err := pe.Barrier(); err != nil {
			return err
		}
		if err := core.Broadcast(pe, dt, work, partial, 1, 1, 1); err != nil {
			return err
		}
		if got := int64(pe.Peek(dt, work)); got != 2+4+6 {
			t.Errorf("PE %d odd-team total = %d, want 12", pe.MyPE(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGUPSOverSpikeTransport runs a miniature GUPS with every transfer
// executed as xBGAS instructions on the simulator, verification on.
func TestGUPSOverSpikeTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("instruction-level GUPS is slow")
	}
	p := bench.DefaultGUPSParams()
	// GUPS updates race by design and verification forgives 1 % of
	// them — one word of these 128. With a 2^12-word table the eight
	// gets a PE keeps in flight met the owner's own updates often
	// enough for two lost words in about a quarter of the runs
	// whenever both PEs really ran in parallel; 2^16 words make that
	// collision 16× rarer (0 of 100 repeats).
	p.TableWords = 1 << 16
	p.UpdatesPerPE = 64
	p.Lookahead = 8
	p.Runtime = xbrtime.Config{Transport: xbrtime.TransportSpike}
	r, err := bench.RunGUPS(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified {
		t.Errorf("spike-transport GUPS verification failed: %d errors", r.Errors)
	}
	if r.Messages == 0 {
		t.Error("no fabric traffic recorded")
	}
}
