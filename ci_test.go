package ode_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ode/internal/workload"
)

// These tests pin the contract between the JSON reports ode-bench
// writes and the awk extraction in ci/gate_lib.sh that both CI gates
// (ci/bench_gate.sh, ci/workload_gate.sh) diff baselines with. If a
// report format change breaks the scan, it fails here instead of
// silently turning the gates into no-ops.

// gateRow invokes the shared extractor exactly as the gate scripts do.
func gateRow(t *testing.T, file, metric string, conds ...string) string {
	t.Helper()
	args := append([]string{"-c", `. ci/gate_lib.sh && gate_row "$@"`, "gate_row", file, metric}, conds...)
	out, err := exec.Command("bash", args...).CombinedOutput()
	if err != nil {
		t.Fatalf("gate_row %s %s %v: %v\n%s", file, metric, conds, err, out)
	}
	return strings.TrimSpace(string(out))
}

// decodeRows reads a gate-format report (indented array of flat row
// objects) preserving numeric literals, so the expected values compare
// byte-for-byte with what the awk scan prints.
func decodeRows(t *testing.T, file string) []map[string]any {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.UseNumber()
	var rows []map[string]any
	if err := dec.Decode(&rows); err != nil {
		t.Fatalf("decode %s: %v", file, err)
	}
	return rows
}

// TestGateRowBenchBaseline asserts ci/bench_gate.sh's extraction path:
// the two E16 checks it performs against the committed BENCH_3.json
// must pull the same ns_per_op values a real JSON decode sees. The
// serial-fsync workload name contains spaces — the case that forces
// gate_row's KEY=VAL conds to allow them.
func TestGateRowBenchBaseline(t *testing.T) {
	rows := decodeRows(t, "BENCH_3.json")
	for _, name := range []string{"tx20 pnew serial-fsync", "tx20 pnew group-commit"} {
		var want string
		for _, r := range rows {
			if r["workload"] == name && r["workers"] == json.Number("4") {
				want = r["ns_per_op"].(json.Number).String()
				break
			}
		}
		if want == "" {
			t.Fatalf("BENCH_3.json has no row workload=%q workers=4", name)
		}
		got := gateRow(t, "BENCH_3.json", "ns_per_op", "workload="+name, "workers=4")
		if got != want {
			t.Errorf("gate_row(%q) = %q, json decode sees %q", name, got, want)
		}
	}
}

// TestGateRowWorkloadReport asserts ci/workload_gate.sh's extraction
// path against a report built by the workload package itself: both
// metrics the gate checks (ops_per_sec throughput, exact ops), row
// selection by (workload, mode) when the same workload appears in both
// transports, and empty output for a row that does not exist.
func TestGateRowWorkloadReport(t *testing.T) {
	reps := []*workload.Report{
		{Workload: "points", Mode: "embedded", Seed: 1, Workers: 4, Short: true,
			Ops: 4000, NsTotal: 196e6, NsPerOp: 49000, OpsPerSec: 20412.5,
			OpCounts: map[string]int64{"deref.hot": 3200, "ops": 1}},
		{Workload: "points", Mode: "remote", Seed: 1, Workers: 4, Short: true,
			Ops: 4000, NsTotal: 312e6, NsPerOp: 78000, OpsPerSec: 12840.25,
			OpCounts: map[string]int64{"deref.hot": 3200}},
	}
	buf, err := workload.EncodeReports(reps)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(file, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	if got := gateRow(t, file, "ops_per_sec", "workload=points", "mode=embedded"); got != "20412.5" {
		t.Errorf("embedded ops_per_sec = %q, want 20412.5", got)
	}
	if got := gateRow(t, file, "ops_per_sec", "workload=points", "mode=remote"); got != "12840.25" {
		t.Errorf("remote ops_per_sec = %q, want 12840.25", got)
	}
	// The op_counts map deliberately carries a kind named "ops": the
	// row-level metric must win because it marshals first.
	if got := gateRow(t, file, "ops", "workload=points", "mode=embedded"); got != "4000" {
		t.Errorf("embedded ops = %q, want 4000", got)
	}
	if got := gateRow(t, file, "ops", "workload=points", "mode=loopback"); got != "" {
		t.Errorf("missing row returned %q, want empty", got)
	}
}

// TestGateRecordMin asserts the RECORD=1 merge: the recorded baseline
// must carry, row by row, the minimum ops_per_sec across the runs —
// and stay a decodable gate-format report with every other field taken
// from the first run.
func TestGateRecordMin(t *testing.T) {
	mk := func(tps ...float64) string {
		var reps []*workload.Report
		for i, tp := range tps {
			reps = append(reps, &workload.Report{
				Workload: []string{"points", "bom"}[i], Mode: "embedded",
				Seed: 1, Workers: 4, Short: true,
				Ops: int64(1000 * (i + 1)), OpsPerSec: tp,
				OpCounts: map[string]int64{"op": 1},
			})
		}
		buf, err := workload.EncodeReports(reps)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.CreateTemp(t.TempDir(), "rep-*.json")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Write(buf); err != nil {
			t.Fatal(err)
		}
		return f.Name()
	}
	r1 := mk(2000.5, 900)  // hot points sample
	r2 := mk(1500.25, 950) // slowest points, fastest bom
	out := filepath.Join(t.TempDir(), "baseline.json")
	cmd := exec.Command("bash", "-c", `. ci/gate_lib.sh && gate_record_min "$@"`, "gate_record_min", out, r1, r2)
	if o, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("gate_record_min: %v\n%s", err, o)
	}
	rows := decodeRows(t, out)
	if len(rows) != 2 {
		t.Fatalf("merged baseline has %d rows, want 2", len(rows))
	}
	for i, want := range []string{"1500.25", "900"} {
		if got := rows[i]["ops_per_sec"].(json.Number).String(); got != want {
			t.Errorf("row %d ops_per_sec = %s, want %s (per-row min)", i, got, want)
		}
	}
	// Non-throughput fields come from the first run.
	if got := rows[0]["ops"].(json.Number).String(); got != "1000" {
		t.Errorf("row 0 ops = %s, want 1000 (from first report)", got)
	}
	// And the gate's own extractor still reads the merged file.
	if got := gateRow(t, out, "ops_per_sec", "workload=points", "mode=embedded"); got != "1500.25" {
		t.Errorf("gate_row on merged baseline = %q, want 1500.25", got)
	}
}

// TestGateRowWorkloadBaseline keeps the committed baseline honest: every
// row in WORKLOAD_BASELINE.json must be extractable by the gate with
// the values a real JSON decode sees.
func TestGateRowWorkloadBaseline(t *testing.T) {
	rows := decodeRows(t, "WORKLOAD_BASELINE.json")
	if len(rows) == 0 {
		t.Fatal("WORKLOAD_BASELINE.json is empty")
	}
	for _, r := range rows {
		wl, mode := r["workload"].(string), r["mode"].(string)
		for _, metric := range []string{"ops", "ops_per_sec"} {
			want := r[metric].(json.Number).String()
			if got := gateRow(t, "WORKLOAD_BASELINE.json", metric, "workload="+wl, "mode="+mode); got != want {
				t.Errorf("%s/%s %s: gate_row = %q, json decode sees %q", wl, mode, metric, got, want)
			}
		}
	}
}

// TestWorkloadGateSingleCPU runs ci/workload_gate.sh on a faked 1-CPU
// host (a PATH shim whose nproc prints 1): the throughput check skips,
// but the deterministic op-count check still runs and still fails on a
// drifted count.
func TestWorkloadGateSingleCPU(t *testing.T) {
	dir := t.TempDir()
	shim := filepath.Join(dir, "nproc")
	if err := os.WriteFile(shim, []byte("#!/bin/sh\necho 1\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	gate := func(report string) (string, error) {
		cmd := exec.Command("bash", "ci/workload_gate.sh", report)
		cmd.Env = append(os.Environ(), "PATH="+dir+string(os.PathListSeparator)+os.Getenv("PATH"))
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	out, err := gate("WORKLOAD_BASELINE.json")
	if err != nil {
		t.Fatalf("gate on the baseline itself: %v\n%s", err, out)
	}
	if !strings.Contains(out, "ops (deterministic)") {
		t.Fatalf("1-CPU gate ran no op-count check:\n%s", out)
	}
	if strings.Contains(out, "ops/s") {
		t.Fatalf("1-CPU gate ran the throughput check:\n%s", out)
	}

	base, err := os.ReadFile("WORKLOAD_BASELINE.json")
	if err != nil {
		t.Fatal(err)
	}
	rows := decodeRows(t, "WORKLOAD_BASELINE.json")
	ops := rows[0]["ops"].(json.Number).String()
	old := `"ops": ` + ops + `,`
	if !strings.Contains(string(base), old) {
		t.Fatalf("baseline has no line %q", old)
	}
	drifted := filepath.Join(dir, "drifted.json")
	bad := strings.Replace(string(base), old, `"ops": 1`+ops+`,`, 1)
	if err := os.WriteFile(drifted, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := gate(drifted); err == nil || !strings.Contains(out, "op count") {
		t.Fatalf("gate on a drifted op count: err=%v, want an op-count failure\n%s", err, out)
	}
}
