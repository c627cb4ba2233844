package xbrtime

import "testing"

// BenchmarkFlagRoundTrip is the flag layer's row of the host-cost
// ledger: two free-running PEs ping-pong a completion flag, PE 0
// signalling PE 1 and waiting for the answer — the round trip the
// benchmark harness's xbrtime.flag_pingpong_host_ns probe times inside
// an 8-PE runtime. One op is one round trip: two SignalAfter and two
// WaitFlag calls, each wait usually a sleep and a wake-up.
func BenchmarkFlagRoundTrip(b *testing.B) {
	rt := MustNew(Config{NumPEs: 2})
	b.ReportAllocs()
	err := rt.Run(func(pe *PE) error {
		flags, err := pe.Malloc(16)
		if err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if pe.MyPE() == 0 {
				if err := pe.SignalAfter(Handle{}, flags, 1); err != nil {
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
			if err := pe.SignalAfter(Handle{}, flags+8, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
