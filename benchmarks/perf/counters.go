package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"

	"xbgas/internal/xbrtime"
)

// simCounts are the simulator's own counters, summed over the machine:
// fabric totals, the memory hierarchies of every node, and every PE's
// put/get/barrier tallies. They repeat exactly under lockstep.
type simCounts struct {
	msgs, bytes, contention, dropped uint64
	intraMsgs                        uint64
	peakQueue                        uint64 // worst single-message NIC queueing so far; not a delta

	memAcc, memCyc  uint64
	tlbHit, tlbMiss uint64
	l1Hit, l1Miss   uint64
	l2Hit, l2Miss   uint64
	puts, gets      uint64
	putElems        uint64
	getElems        uint64
	barriers        uint64
}

// snapshot reads the counters of a quiesced runtime.
func snapshot(rt *xbrtime.Runtime) simCounts {
	m := rt.Machine()
	fab := m.Fabric
	c := simCounts{
		msgs: fab.Messages(), bytes: fab.Bytes(),
		contention: fab.ContentionCycles(), dropped: fab.Dropped(),
	}
	for _, s := range fab.NICStats() {
		c.intraMsgs += s.Intra.Msgs
		if s.PeakQueue > c.peakQueue {
			c.peakQueue = s.PeakQueue
		}
	}
	for _, n := range m.Nodes {
		h := n.Hier
		c.memAcc += h.Accesses()
		c.memCyc += h.Cycles()
		c.tlbHit += h.TLB().Hits()
		c.tlbMiss += h.TLB().Misses()
		c.l1Hit += h.L1().Hits()
		c.l1Miss += h.L1().Misses()
		c.l2Hit += h.L2().Hits()
		c.l2Miss += h.L2().Misses()
	}
	for r := 0; r < rt.NumPEs(); r++ {
		s := rt.PE(r).Stats()
		c.puts += s.Puts
		c.gets += s.Gets
		c.putElems += s.PutElems
		c.getElems += s.GetElems
		c.barriers += s.Barriers
	}
	return c
}

func (a simCounts) sub(b simCounts) simCounts {
	return simCounts{
		msgs: a.msgs - b.msgs, bytes: a.bytes - b.bytes,
		contention: a.contention - b.contention, dropped: a.dropped - b.dropped,
		intraMsgs: a.intraMsgs - b.intraMsgs, peakQueue: a.peakQueue,
		memAcc: a.memAcc - b.memAcc, memCyc: a.memCyc - b.memCyc,
		tlbHit: a.tlbHit - b.tlbHit, tlbMiss: a.tlbMiss - b.tlbMiss,
		l1Hit: a.l1Hit - b.l1Hit, l1Miss: a.l1Miss - b.l1Miss,
		l2Hit: a.l2Hit - b.l2Hit, l2Miss: a.l2Miss - b.l2Miss,
		puts: a.puts - b.puts, gets: a.gets - b.gets,
		putElems: a.putElems - b.putElems, getElems: a.getElems - b.getElems,
		barriers: a.barriers - b.barriers,
	}
}

// hostSnap is what the host process has spent so far.
type hostSnap struct {
	cpuNs      int64 // user+system CPU of the process
	mallocs    uint64
	allocBytes uint64
	gcCPUSec   float64
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func takeHostSnap() hostSnap {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcCPUSample)
	s := hostSnap{
		cpuNs:   ru.Utime.Nano() + ru.Stime.Nano(),
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc,
	}
	if gcCPUSample[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPUSec = gcCPUSample[0].Value.Float64()
	}
	return s
}

func (a hostSnap) sub(b hostSnap) hostSnap {
	return hostSnap{
		cpuNs: a.cpuNs - b.cpuNs, mallocs: a.mallocs - b.mallocs,
		allocBytes: a.allocBytes - b.allocBytes, gcCPUSec: a.gcCPUSec - b.gcCPUSec,
	}
}

// peakRSSMiB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}
