package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xbgas/internal/core"
	"xbgas/internal/obs"
	"xbgas/internal/xbrtime"
)

// recordTrace runs a broadcast under tracing and writes the trace to a
// temp file, returning its path. meta overrides the recorder's model
// identity (to provoke mismatches).
func recordTrace(t *testing.T, meta obs.ModelMeta) string {
	t.Helper()
	rec := obs.NewRecorder(obs.Options{Trace: true})
	rec.SetModelMeta(meta)
	rt := xbrtime.MustNew(xbrtime.Config{NumPEs: 4, Deterministic: true, Obs: rec})
	defer rt.Close()
	err := rt.Run(func(pe *xbrtime.PE) error {
		const nelems = 64
		w := uint64(xbrtime.TypeLong.Width)
		dst, err := pe.Malloc(nelems * w)
		if err != nil {
			return err
		}
		src, err := pe.PrivateAlloc(nelems * w)
		if err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		return core.BroadcastWith(core.AlgoBinomial, pe, xbrtime.TypeLong, dst, src, nelems, 1, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := rec.WriteTraceFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func matchingMeta() obs.ModelMeta {
	tn := core.CurrentTuning()
	return obs.ModelMeta{
		TuningVersion: tn.Version,
		ChunkBytes:    core.ChunkBytes(),
	}
}

func TestTraceModeAnalyzesPlans(t *testing.T) {
	path := recordTrace(t, matchingMeta())
	var out, errb bytes.Buffer
	code := run([]string{"-trace", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	got := out.String()
	if !strings.Contains(got, "broadcast/binomial") {
		t.Errorf("output missing the plan cell:\n%s", got)
	}
	if !strings.Contains(got, "measured(cyc)") || !strings.Contains(got, "predicted(cyc)") {
		t.Errorf("output missing table header:\n%s", got)
	}
}

func TestTraceModeJSONOutput(t *testing.T) {
	path := recordTrace(t, matchingMeta())
	jsonPath := filepath.Join(t.TempDir(), "lens.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-trace", path, "-json", jsonPath}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"broadcast/binomial", "measured_cycles", "predicted_cycles"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON output missing %q", want)
		}
	}
}

func TestTraceModeRefusesModelMismatch(t *testing.T) {
	bad := matchingMeta()
	bad.TuningVersion = 999
	path := recordTrace(t, bad)
	var out, errb bytes.Buffer
	if code := run([]string{"-trace", path}, &out, &errb); code == 0 {
		t.Fatal("mismatched trace was not refused")
	}
	if !strings.Contains(errb.String(), "REFUSING") {
		t.Errorf("refusal is not loud:\n%s", errb.String())
	}
	// -force downgrades the refusal to a warning.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-trace", path, "-force"}, &out, &errb); code != 0 {
		t.Fatalf("-force still refused: exit %d, stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "warning") {
		t.Errorf("-force should warn:\n%s", errb.String())
	}
}

// auditFixture is a hand-built audit report with one cell inside and
// one outside a 25% threshold.
const auditFixture = `{
  "pes": 8, "lockstep": true, "tuning_version": 3,
  "cells": [
    {"collective": "broadcast", "algo": "binomial", "topo": "flat", "pes": 8,
     "nelems": 64, "bytes": 512, "predicted_cycles": 105, "measured_cycles": 100,
     "rel_err": 0.05},
    {"collective": "allreduce", "algo": "ring", "topo": "flat", "pes": 8,
     "nelems": 1024, "bytes": 8192, "predicted_cycles": 280, "measured_cycles": 200,
     "rel_err": 0.40}
  ],
  "series": []
}`

func TestAuditGateWarnAndStrict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.json")
	if err := os.WriteFile(path, []byte(auditFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-audit", path, "-warn", "0.25"}, &out, &errb); code != 0 {
		t.Fatalf("warn mode must exit 0, got %d", code)
	}
	got := out.String()
	if !strings.Contains(got, "allreduce/ring") || strings.Contains(got, "broadcast/binomial") {
		t.Errorf("warn listing wrong cells:\n%s", got)
	}
	if !strings.Contains(got, "1 cells exceed the 25% threshold") {
		t.Errorf("missing threshold summary:\n%s", got)
	}

	out.Reset()
	if code := run([]string{"-audit", path, "-warn", "0.25", "-strict"}, &out, &errb); code == 0 {
		t.Error("strict mode must exit nonzero when a cell exceeds the threshold")
	}
	out.Reset()
	if code := run([]string{"-audit", path, "-warn", "0.5"}, &out, &errb); code != 0 {
		t.Errorf("no cell exceeds 50%%, want exit 0")
	}
	if !strings.Contains(out.String(), "no cell exceeds") {
		t.Errorf("missing all-clear line:\n%s", out.String())
	}
}

func TestNoModeUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no mode selected: exit %d, want 2", code)
	}
}
