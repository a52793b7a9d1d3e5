package bench

import (
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRegistrySmoke runs every experiment at the smallest scale (sizes
// divided by 10, one op per case) through the same Case.Row path
// ode-bench takes, so each case's correctness check runs, and checks
// the rows: every experiment yields some, names are unique (per worker
// count) and repeat no column label, and the E16 rows
// ci/bench_gate.sh gates come out of the -json encoding under the
// exact names and worker count its gate_row scan looks for.
func TestRegistrySmoke(t *testing.T) {
	var e16 []Row
	for _, e := range Experiments() {
		var rows []Row
		err := e.Run(Driver{Short: true, Workers: 2, Measure: func(c Case) error {
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
		if e.ID == "E16" {
			e16 = rows
		}
		seen := map[string]bool{}
		for _, r := range rows {
			key := label(r.Workload, r.Workers)
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
}
