package sim

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"xbgas/internal/asm"
	"xbgas/internal/isa"
	"xbgas/internal/mem"
)

func loadAndRun(t *testing.T, m *Machine, node int, src string) *Core {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c, err := m.Load(node, p)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := c.Run(1_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return c
}

func TestSumLoop(t *testing.T) {
	m := MustMachine(DefaultConfig(1))
	c := loadAndRun(t, m, 0, `
		li a0, 0        # acc
		li a1, 10       # i
	loop:
		add a0, a0, a1
		addi a1, a1, -1
		bnez a1, loop
		li a7, 93
		ecall
	`)
	if c.ExitCode != 55 {
		t.Errorf("exit code = %d, want 55", c.ExitCode)
	}
	if c.Instret == 0 || c.Cycles < c.Instret {
		t.Errorf("counters: instret=%d cycles=%d", c.Instret, c.Cycles)
	}
}

func TestFunctionCallAndStack(t *testing.T) {
	m := MustMachine(DefaultConfig(1))
	c := loadAndRun(t, m, 0, `
		li   a0, 10
		jal  fib
		li   a7, 93
		ecall

	# naive recursive fibonacci
	fib:
		li   t0, 2
		blt  a0, t0, fib_base
		addi sp, sp, -24
		sd   ra, 0(sp)
		sd   a0, 8(sp)
		addi a0, a0, -1
		jal  fib
		sd   a0, 16(sp)
		ld   a0, 8(sp)
		addi a0, a0, -2
		jal  fib
		ld   t1, 16(sp)
		add  a0, a0, t1
		ld   ra, 0(sp)
		addi sp, sp, 24
		ret
	fib_base:
		ret
	`)
	if c.ExitCode != 55 { // fib(10)
		t.Errorf("fib(10) = %d, want 55", c.ExitCode)
	}
}

func TestLoadStoreWidths(t *testing.T) {
	m := MustMachine(DefaultConfig(1))
	c := loadAndRun(t, m, 0, `
		li  t0, 0x100000
		li  t1, -2          # 0xFFFF...FE
		sd  t1, 0(t0)
		lb  a0, 0(t0)       # sign-extended byte: -2
		lbu a1, 0(t0)       # zero-extended: 0xFE
		lhu a2, 0(t0)       # 0xFFFE
		lwu a3, 0(t0)       # 0xFFFFFFFE
		add a0, a0, a1      # -2 + 254 = 252
		li  a7, 93
		ecall
	`)
	if c.ExitCode != 252 {
		t.Errorf("exit = %d, want 252", c.ExitCode)
	}
}

func TestEcallWriteOutput(t *testing.T) {
	m := MustMachine(DefaultConfig(1))
	c := loadAndRun(t, m, 0, `
		j start
	msg:
		.word 0x6C6C6548   # "Hell"
		.word 0x000A6F     # "o\n"
	start:
		la a1, msg
		li a0, 1
		li a2, 6
		li a7, 64
		ecall
		li a7, 93
		ecall
	`)
	if got := c.Output.String(); got != "Hello\n" {
		t.Errorf("output = %q", got)
	}
}

func TestMyPEAndNumPEs(t *testing.T) {
	m := MustMachine(DefaultConfig(4))
	c := loadAndRun(t, m, 2, `
		li a7, 500
		ecall          # a0 = my pe
		mv t0, a0
		li a7, 501
		ecall          # a0 = num pes
		slli a0, a0, 8
		or  a0, a0, t0
		li a7, 93
		ecall
	`)
	if c.ExitCode != (4<<8)|2 {
		t.Errorf("exit = %#x, want %#x", c.ExitCode, (4<<8)|2)
	}
}

func TestRemoteStoreAndLoad(t *testing.T) {
	m := MustMachine(DefaultConfig(2))
	// Node 0 stores 0x2A to node 1 (object ID 2) at 0x5000, reads it back.
	c := loadAndRun(t, m, 0, `
		li     t0, 0x5000
		li     t1, 42
		eaddie e5, t2, 2     # t2==0: e5 = object ID 2 (node 1)
		mv     t5, t0        # base register x30 pairs with e30
		eaddie e30, t2, 2
		esd    t1, 0(t5)     # base-class store via (e30:t5)
		eld    a0, 0(t5)     # base-class load back
		li     a7, 93
		ecall
	`)
	if c.ExitCode != 42 {
		t.Errorf("round trip = %d, want 42", c.ExitCode)
	}
	// The value must physically live on node 1, not node 0.
	if got := m.Nodes[1].LockedRead(0x5000, 8); got != 42 {
		t.Errorf("node 1 memory = %d, want 42", got)
	}
	if got := m.Nodes[0].LockedRead(0x5000, 8); got == 42 {
		t.Error("value leaked into node 0's local memory")
	}
	if c.RemoteStores != 1 || c.RemoteLoads != 1 {
		t.Errorf("remote ops: loads=%d stores=%d", c.RemoteLoads, c.RemoteStores)
	}
}

func TestRawClassRemoteOps(t *testing.T) {
	m := MustMachine(DefaultConfig(2))
	c := loadAndRun(t, m, 0, `
		li     t0, 0x6000
		li     t1, 1234
		li     t3, 2
		eaddie e7, t3, 0     # e7 = 2 (node 1)
		ersd   t1, t0, e7    # raw store: value t1 at [t0] on node of e7
		erld   a0, t0, e7    # raw load back
		li     a7, 93
		ecall
	`)
	if c.ExitCode != 1234 {
		t.Errorf("raw round trip = %d, want 1234", c.ExitCode)
	}
	if got := m.Nodes[1].LockedRead(0x6000, 8); got != 1234 {
		t.Errorf("node 1 memory = %d", got)
	}
}

func TestObjectIDZeroIsLocal(t *testing.T) {
	// Paper §3.2: "If the value is equal to 0 ... a local memory
	// operation is performed".
	m := MustMachine(DefaultConfig(2))
	c := loadAndRun(t, m, 0, `
		li   t0, 0x7000
		li   t1, 7
		esd  t1, 0(t0)     # e5 (pair of t0=x5) is 0 -> local store
		eld  a0, 0(t0)
		li   a7, 93
		ecall
	`)
	if c.ExitCode != 7 {
		t.Errorf("local extended access = %d, want 7", c.ExitCode)
	}
	if got := m.Nodes[0].LockedRead(0x7000, 8); got != 7 {
		t.Errorf("node 0 memory = %d, want 7", got)
	}
	if c.RemoteLoads != 0 || c.RemoteStores != 0 {
		t.Error("object ID 0 must not count as remote traffic")
	}
}

func TestUnmappedObjectIDFaults(t *testing.T) {
	m := MustMachine(DefaultConfig(2))
	p, err := asm.Assemble(`
		li     t1, 99
		eaddie e30, t1, 0   # e30 = 99: unmapped object ID
		li     t5, 0x100
		eld    a0, 0(t5)
	`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Load(0, p)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(100)
	var fault *Fault
	if !errors.As(err, &fault) {
		t.Fatalf("expected *Fault, got %v", err)
	}
	if !strings.Contains(fault.Error(), "unmapped object ID") {
		t.Errorf("fault = %v", fault)
	}
}

func TestRemoteCostExceedsLocal(t *testing.T) {
	m := MustMachine(DefaultConfig(2))
	local := loadAndRun(t, m, 0, `
		li  t0, 0x8000
		ld  a0, 0(t0)
		li  a7, 93
		ecall
	`)
	m2 := MustMachine(DefaultConfig(2))
	remote := loadAndRun(t, m2, 0, `
		li     t0, 0x8000
		li     t1, 2
		eaddie e30, t1, 0
		mv     t5, t0
		eld    a0, 0(t5)
		li     a7, 93
		ecall
	`)
	if remote.Cycles <= local.Cycles {
		t.Errorf("remote load (%d cyc) must cost more than local (%d cyc)",
			remote.Cycles, local.Cycles)
	}
}

func TestDivisionEdgeSemantics(t *testing.T) {
	m := MustMachine(DefaultConfig(1))
	c := loadAndRun(t, m, 0, `
		li   a1, 7
		li   a2, 0
		div  a3, a1, a2       # -> -1
		rem  a4, a1, a2       # -> 7
		addi a3, a3, 1        # 0
		add  a0, a3, a4       # 7
		li   a7, 93
		ecall
	`)
	if c.ExitCode != 7 {
		t.Errorf("div/rem by zero semantics: exit = %d, want 7", c.ExitCode)
	}
}

func TestMulhSigns(t *testing.T) {
	m := MustMachine(DefaultConfig(1))
	c := loadAndRun(t, m, 0, `
		li    a1, -1
		li    a2, -1
		mulh  a3, a1, a2     # signed high of (-1)*(-1)=1 -> 0
		mulhu a4, a1, a2     # unsigned high of (2^64-1)^2 -> 2^64-2
		seqz  a3, a3         # 1 if mulh correct
		addi  a4, a4, 2      # wraps to 0 if mulhu correct
		seqz  a4, a4         # 1 if mulhu correct
		add   a0, a3, a4     # 2 when both are right
		li    a7, 93
		ecall
	`)
	if c.ExitCode != 2 {
		t.Errorf("mulh semantics: exit = %d, want 2", c.ExitCode)
	}
}

func TestInstructionBudget(t *testing.T) {
	m := MustMachine(DefaultConfig(1))
	p, _ := asm.Assemble("loop: j loop")
	c, _ := m.Load(0, p)
	if err := c.Run(100); err == nil {
		t.Fatal("runaway loop must exhaust the instruction budget")
	}
	if c.Instret != 100 {
		t.Errorf("instret = %d, want 100", c.Instret)
	}
}

func TestZeroRegisterIsPinned(t *testing.T) {
	m := MustMachine(DefaultConfig(1))
	c := loadAndRun(t, m, 0, `
		addi zero, zero, 5
		mv   a0, zero
		li   a7, 93
		ecall
	`)
	if c.ExitCode != 0 {
		t.Errorf("x0 was written: exit = %d", c.ExitCode)
	}
}

func TestConcurrentCoresRemoteTraffic(t *testing.T) {
	// Every node hammers its right neighbour with remote stores while
	// being hammered itself; run under -race in CI.
	const n = 4
	m := MustMachine(DefaultConfig(n))
	var wg sync.WaitGroup
	errs := make([]error, n)
	for node := 0; node < n; node++ {
		src := `
			li     t0, 0x9000
			li     t1, ` + itoa(ObjectID((node+1)%n)) + `
			eaddie e30, t1, 0
			li     t2, 100       # iterations
			mv     t5, t0
		loop:
			esd    t2, 0(t5)
			addi   t5, t5, 8
			addi   t2, t2, -1
			bnez   t2, loop
			li     a7, 93
			ecall
		`
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		c, err := m.Load(node, p)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(idx int, core *Core) {
			defer wg.Done()
			errs[idx] = core.Run(1_000_000)
		}(node, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("node %d: %v", i, err)
		}
	}
	// Each neighbour received 100 stores; spot check the last value.
	for node := 0; node < n; node++ {
		if got := m.Nodes[node].LockedRead(0x9000, 8); got != 100 {
			t.Errorf("node %d first slot = %d, want 100", node, got)
		}
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestMachineValidation(t *testing.T) {
	if _, err := NewMachine(Config{Nodes: 0}); err == nil {
		t.Error("zero nodes must fail")
	}
	cfg := DefaultConfig(4)
	cfg.Topology = nil // must default to fully connected
	if _, err := NewMachine(cfg); err != nil {
		t.Errorf("nil topology should default: %v", err)
	}
	m := MustMachine(DefaultConfig(2))
	p, _ := asm.Assemble("nop")
	if _, err := m.Load(5, p); err == nil {
		t.Error("load on out-of-range node must fail")
	}
}

func TestEaddiReadsExtendedRegister(t *testing.T) {
	m := MustMachine(DefaultConfig(1))
	c := loadAndRun(t, m, 0, `
		li     t0, 40
		eaddie e9, t0, 0     # e9 = 40
		eaddix e9, e9, 2     # e9 = 42
		eaddi  a0, e9, 0     # a0 = e9
		li     a7, 93
		ecall
	`)
	if c.ExitCode != 42 {
		t.Errorf("address management chain = %d, want 42", c.ExitCode)
	}
}

func TestLoadUsesStartSymbol(t *testing.T) {
	m := MustMachine(DefaultConfig(1))
	p, err := asm.Assemble(`
	helper:
		li a0, 1
		li a7, 93
		ecall
	_start:
		li a0, 9
		li a7, 93
		ecall
	`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Load(0, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if c.ExitCode != 9 {
		t.Errorf("entry at _start: exit = %d, want 9", c.ExitCode)
	}
}

func TestDisasmOfLoadedProgramMentionsXBGAS(t *testing.T) {
	p, err := asm.Assemble("eaddie e1, a0, 0\n eld a0, 0(t5)")
	if err != nil {
		t.Fatal(err)
	}
	d := p.Disasm()
	if !strings.Contains(d, "eaddie") || !strings.Contains(d, "eld") {
		t.Errorf("disasm listing: %s", d)
	}
	_ = isa.ELD // keep the import honest
}

func TestExtendedRegisterSpillFill(t *testing.T) {
	// ele/ese move extended registers through local memory: spill e7,
	// clobber it, fill it back, then use it for a remote load.
	m := MustMachine(DefaultConfig(2))
	m.Nodes[1].LockedWrite(0x4000, 8, 4242)
	c := loadAndRun(t, m, 0, `
		li     t0, 2
		eaddie e7, t0, 0      # e7 = object ID 2 (node 1)
		li     t1, 0x2000
		ese    e7, 0(t1)      # spill e7
		eaddie e7, zero, 0    # clobber: e7 = 0
		ele    e7, 0(t1)      # fill it back
		li     t2, 0x4000
		erld   a0, t2, e7     # remote load proves e7 was restored
		li     a7, 93
		ecall
	`)
	if c.ExitCode != 4242 {
		t.Errorf("spill/fill round trip = %d, want 4242", c.ExitCode)
	}
	if got := m.Nodes[0].LockedRead(0x2000, 8); got != 2 {
		t.Errorf("spilled object ID = %d, want 2", got)
	}
}

// TestNodeLoadStore: a timed store then load round-trips through the
// node's RAM and each charges exactly what Touch charges the same
// access on an identical hierarchy.
func TestNodeLoadStore(t *testing.T) {
	n := MustMachine(DefaultConfig(1)).Nodes[0]
	shadow := mem.MustHierarchy(n.Hier.Config())
	if got, want := n.Store(0x2000, 8, 0xCAFEBABE12345678), shadow.Touch(0x2000, 8, true); got != want {
		t.Errorf("store cost = %d, Touch %d", got, want)
	}
	v, cost := n.Load(0x2000, 8)
	if v != 0xCAFEBABE12345678 {
		t.Errorf("load = %#x", v)
	}
	if want := shadow.Touch(0x2000, 8, false); cost != want {
		t.Errorf("load cost = %d, Touch %d", cost, want)
	}
	if n.Hier.RAM().Uint64(0x2000) != 0xCAFEBABE12345678 {
		t.Error("backing RAM must hold the data")
	}
}
