package xbrtime

import (
	"strings"
	"testing"

	"xbgas/internal/obs"
)

// TestStatsReportZeroTraffic pins the report's zero-traffic form: every
// rate column must render "-" (a run that never touched the memory
// system is not a 0% hit rate), and the per-NIC table is omitted when
// the fabric carried no messages.
func TestStatsReportZeroTraffic(t *testing.T) {
	rt := MustNew(Config{NumPEs: 2})
	got := rt.StatsReport()

	for _, want := range []string{
		"runtime: 2 PEs",
		"fabric: 0 messages, 0 payload bytes, 0 contention cycles",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
	// Both node rows show "-" in L1/L2/TLB rate columns.
	dashRows := 0
	for _, line := range strings.Split(got, "\n") {
		f := strings.Fields(line)
		if len(f) == 6 && f[1] == "-" && f[2] == "-" && f[3] == "-" {
			dashRows++
		}
	}
	if dashRows != 2 {
		t.Errorf("want 2 zero-traffic node rows with '-' rates, got %d:\n%s", dashRows, got)
	}
	if strings.Contains(got, "peakQueue") {
		t.Errorf("zero-traffic report must omit the per-NIC table:\n%s", got)
	}
}

// TestStatsReportSmallRun drives a small GUPS-style exchange and checks
// the report renders numeric rates, the per-NIC contention table, and —
// with observability attached — the collective round breakdown.
func TestStatsReportSmallRun(t *testing.T) {
	rec := obs.NewRecorder(obs.Options{Trace: true, Metrics: true})
	rt := MustNew(Config{NumPEs: 2, Deterministic: true, Obs: rec})
	err := rt.Run(func(pe *PE) error {
		buf, err := pe.Malloc(64)
		if err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		peer := 1 - pe.MyPE()
		if err := pe.Put(TypeInt64, buf, buf, 4, 1, peer); err != nil {
			return err
		}
		return pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	got := rt.StatsReport()

	if strings.Contains(got, " - ") {
		t.Errorf("traffic run must not render '-' rate cells:\n%s", got)
	}
	for _, want := range []string{"peakQueue", "NIC"} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing per-NIC table marker %q:\n%s", want, got)
		}
	}
	if !strings.Contains(got, "fabric: ") {
		t.Errorf("report missing fabric totals:\n%s", got)
	}
}

// TestStatsReportPlannerLine checks the plan-execution tallies recorded
// by NotePlanner (the executor calls it once per plan run) aggregate
// across PEs into one sorted "planners:" line, and that a run with no
// plans omits the line entirely.
func TestStatsReportPlannerLine(t *testing.T) {
	rt := MustNew(Config{NumPEs: 2})
	if strings.Contains(rt.StatsReport(), "planners:") {
		t.Errorf("plan-free report must omit the planners line:\n%s", rt.StatsReport())
	}
	err := rt.Run(func(pe *PE) error {
		pe.NotePlanner("broadcast/binomial")
		pe.NotePlanner("broadcast/binomial")
		if pe.MyPE() == 0 {
			pe.NotePlanner("reduce/linear")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := rt.StatsReport()
	if !strings.Contains(got, "planners: broadcast/binomial x4, reduce/linear x1\n") {
		t.Errorf("report missing aggregated planners line:\n%s", got)
	}
}

// TestStatsReportRoundBreakdown checks the obs-extended report includes
// the per-collective round table after a broadcast-bearing run. The
// collective itself lives in internal/core; here a put/barrier pattern
// is spanned through the PE helpers directly to keep the dependency
// direction intact.
func TestStatsReportRoundBreakdown(t *testing.T) {
	rec := obs.NewRecorder(obs.Options{Trace: true, Metrics: true})
	rt := MustNew(Config{NumPEs: 2, Deterministic: true, Obs: rec})
	err := rt.Run(func(pe *PE) error {
		buf, err := pe.Malloc(64)
		if err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		cs := pe.StartCollective("broadcast", "", 0, 4)
		rs := pe.StartRound("broadcast.round", 0, 1-pe.MyPE(), 4)
		if pe.MyPE() == 0 {
			if err := pe.Put(TypeInt64, buf, buf, 4, 1, 1); err != nil {
				return err
			}
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		pe.FinishRound(rs)
		pe.FinishCollective(cs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := rt.StatsReport()
	for _, want := range []string{
		"collective round breakdown",
		"broadcast.round",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
}

// TestStatsReportClassedNICRows checks the per-NIC table splits into
// intra/inter rows on a grouped topology and keeps the flat single-row
// form otherwise.
func TestStatsReportClassedNICRows(t *testing.T) {
	rt := MustNew(Config{NumPEs: 4, TopoSpec: "grouped:2", Deterministic: true})
	err := rt.Run(func(pe *PE) error {
		buf, err := pe.Malloc(64)
		if err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		// One put to the node-mate, one across nodes.
		if err := pe.Put(TypeInt64, buf, buf, 4, 1, pe.MyPE()^1); err != nil {
			return err
		}
		if err := pe.Put(TypeInt64, buf, buf, 4, 1, (pe.MyPE()+2)%4); err != nil {
			return err
		}
		return pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	got := rt.StatsReport()
	for _, want := range []string{"class", "intra", "inter"} {
		if !strings.Contains(got, want) {
			t.Errorf("grouped report missing %q:\n%s", want, got)
		}
	}

	// Flat runs keep the unsplit row format.
	rtFlat := MustNew(Config{NumPEs: 2})
	err = rtFlat.Run(func(pe *PE) error {
		buf, err := pe.Malloc(64)
		if err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		if err := pe.Put(TypeInt64, buf, buf, 4, 1, 1-pe.MyPE()); err != nil {
			return err
		}
		return pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	gotFlat := rtFlat.StatsReport()
	if strings.Contains(gotFlat, "intra") {
		t.Errorf("flat report must not split NIC rows by class:\n%s", gotFlat)
	}
	if !strings.Contains(gotFlat, "peakQueue") {
		t.Errorf("flat report missing per-NIC table:\n%s", gotFlat)
	}
}

// TestStatsReportCriticalPathTable checks the critical-path table is
// appended when a traced run recorded collective calls through the
// step log, and stays absent with observability disabled.
func TestStatsReportCriticalPathTable(t *testing.T) {
	rec := obs.NewRecorder(obs.Options{Trace: true})
	rt := MustNew(Config{NumPEs: 2, Deterministic: true, Obs: rec})
	err := rt.Run(func(pe *PE) error {
		buf, err := pe.Malloc(64)
		if err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		cs := pe.StartCollective("broadcast", "broadcast/binomial", 0, 4)
		start := pe.Now()
		if pe.MyPE() == 0 {
			if err := pe.Put(TypeInt64, buf, buf, 4, 1, 1); err != nil {
				return err
			}
			pe.StepLog().Note(obs.CatTransfer, start, pe.Now())
		}
		bstart := pe.Now()
		if err := pe.Barrier(); err != nil {
			return err
		}
		pe.StepLog().NoteWait(obs.CatBarrierWait, bstart, pe.Now(), pe.LastWaitBy())
		pe.FinishCollective(cs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := rt.StatsReport()
	for _, want := range []string{
		"critical path (share of measured completion time, per collective):",
		"broadcast/binomial",
		"coverage",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}

	rtOff := MustNew(Config{NumPEs: 2})
	if strings.Contains(rtOff.StatsReport(), "critical path") {
		t.Error("untraced report must omit the critical-path table")
	}
}
