package bench

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// smoke runs every experiment once at the smallest scale (sizes
// divided by 10, one op per case; the mixes at their CI sizes, seed 1,
// two workers) through the same Case.Row path ode-bench takes, so each
// case's correctness check runs, and returns the rows by experiment.
// Every mix runs embedded; the remote and sharded cases run for points
// only, since they differ from it in the Store alone (TestTransportsAgree
// holds the transports to equal op counts). TestRegistrySmoke checks the
// rows; the mix tests read E17's.
var smoke = sync.OnceValues(func() (map[string][]Row, error) {
	rows := map[string][]Row{}
	for _, e := range Experiments() {
		err := e.Run(Driver{Short: true, Workers: 2, Measure: func(c Case) error {
			if c.Mode != "" && c.Mode != "embedded" && c.Name != "points" {
				return nil
			}
			row, err := c.Row(e.ID, 1)
			rows[e.ID] = append(rows[e.ID], row)
			_ = row.String()
			return err
		}})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return rows, nil
})

func smokeRows(t *testing.T) map[string][]Row {
	t.Helper()
	rows, err := smoke()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestRegistrySmoke checks the smoke run's rows: every experiment
// yields some, names are unique (per mode and worker count) and repeat
// no column label, and the E16 rows ci/bench_gate.sh gates come out of
// the -json encoding under the exact names and worker count its
// gate_row scan looks for. The E17 rows go through ci/workload_gate.sh
// itself.
func TestRegistrySmoke(t *testing.T) {
	all := smokeRows(t)
	for _, e := range Experiments() {
		rows := all[e.ID]
		if len(rows) == 0 {
			t.Errorf("%s: no rows", e.ID)
		}
		seen := map[string]bool{}
		for _, r := range rows {
			key := label(r.Workload, r.Mode, r.Workers)
			if seen[key] {
				t.Errorf("%s: duplicate row %q", e.ID, key)
			}
			seen[key] = true
			words := map[string]bool{}
			for _, w := range strings.Fields(r.Workload) {
				if words[w] {
					t.Errorf("%s: row %q repeats %q", e.ID, r.Workload, w)
				}
				words[w] = true
			}
		}
	}
	e16 := all["E16"]

	buf, err := EncodeRows(e16)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "e16.json")
	if err := os.WriteFile(file, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tx20 pnew serial-fsync", "tx20 pnew group-commit"} {
		var want string
		for _, r := range e16 {
			if r.Workload == name && r.Workers == 4 {
				want = strconv.FormatInt(r.NsPerOp, 10)
			}
		}
		if want == "" {
			t.Fatalf("E16 has no row %q at workers=4", name)
		}
		out, err := exec.Command("bash", "-c", `. ../../ci/gate_lib.sh && gate_row "$@"`, "gate_row",
			file, "ns_per_op", "workload="+name, "workers=4").CombinedOutput()
		if err != nil {
			t.Fatalf("gate_row %q: %v\n%s", name, err, out)
		}
		if got := strings.TrimSpace(string(out)); got != want {
			t.Errorf("gate_row %q workers=4 = %q, want %s", name, got, want)
		}
	}
	t.Run("workload_gate", func(t *testing.T) { workloadGateReads(t, all["E17"]) })
}

// workloadGateReads runs ci/workload_gate.sh on the -json encoding of
// rows, as both report and baseline: its rows scan must find every
// (workload, mode) pair, and its gate_row must read each row's ops.
func workloadGateReads(t *testing.T, rows []Row) {
	buf, err := EncodeRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "e17.json")
	if err := os.WriteFile(file, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("bash", "../../ci/workload_gate.sh", file)
	cmd.Env = append(os.Environ(), "WORKLOAD_BASELINE="+file)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("workload_gate.sh on E17 rows: %v\n%s", err, out)
	}
	if got := strings.Count(string(out), "ops (deterministic)"); got != len(rows) {
		t.Errorf("gate checked %d op counts, E17 has %d rows:\n%s", got, len(rows), out)
	}
	for _, r := range rows {
		line := fmt.Sprintf(`ok +%s/%s ops +%.0f ops \(deterministic\)`, r.Workload, r.Mode, r.Extra["ops"])
		if !regexp.MustCompile(line).Match(out) {
			t.Errorf("gate output lacks %q:\n%s", line, out)
		}
	}
}
