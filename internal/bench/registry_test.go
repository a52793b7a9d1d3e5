package bench

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRegistrySmoke runs every experiment at the smallest scale (sizes
// divided by 10, one op per case; the mixes at their CI sizes) through
// the same Case.Row path ode-bench takes, so each case's correctness
// check runs, and checks
// the rows: every experiment yields some, names are unique (per mode
// and worker count) and repeat no column label, and the E16 rows
// ci/bench_gate.sh gates come out of the -json encoding under the
// exact names and worker count its gate_row scan looks for. The E17
// rows go through ci/workload_gate.sh itself. Every mix runs embedded;
// the remote and sharded cases run for points only, since they differ
// from it in the Store alone (internal/workload's TestTransportsAgree
// holds the transports to equal op counts).
func TestRegistrySmoke(t *testing.T) {
	var e16, mixRows []Row
	for _, e := range Experiments() {
		var rows []Row
		err := e.Run(Driver{Short: true, Workers: 2, Measure: func(c Case) error {
			if c.Mode != "" && c.Mode != "embedded" && c.Name != "points" {
				return nil
			}
			row, err := c.Row(e.ID, 1)
			rows = append(rows, row)
			_ = row.String()
			return err
		}})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(rows) == 0 {
			t.Errorf("%s: no rows", e.ID)
		}
		switch e.ID {
		case "E16":
			e16 = rows
		case "E17":
			mixRows = rows
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
	t.Run("workload_gate", func(t *testing.T) { workloadGateReads(t, mixRows) })
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
