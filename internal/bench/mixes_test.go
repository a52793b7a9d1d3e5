package bench

import (
	"reflect"
	"strings"
	"testing"
)

// The six mixes run as E17 (embedded, remote) and E18 (sharded). These
// tests drive them through the registry, the way ode-bench -workload
// does, at CI size with two workers. The rows they check are the smoke
// run's (TestRegistrySmoke), so each mix runs embedded once per test
// binary; only the determinism check runs cases a second time.

// runMix runs experiment id with seed and returns the rows of the cases
// keep accepts; the other cases are only declared.
func runMix(t *testing.T, id string, seed int64, keep func(Case) bool) []Row {
	t.Helper()
	var rows []Row
	for _, e := range Experiments() {
		if e.ID != id {
			continue
		}
		err := e.Run(Driver{Short: true, Workers: 2, Seed: seed, Measure: func(c Case) error {
			if !keep(c) {
				return nil
			}
			row, err := c.Row(e.ID, 1)
			rows = append(rows, row)
			return err
		}})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	return rows
}

// embeddedRow is the smoke run's E17 embedded row of mix name (seed 1).
func embeddedRow(t *testing.T, name string) Row {
	t.Helper()
	for _, r := range smokeRows(t)["E17"] {
		if r.Workload == name && r.Mode == "embedded" {
			return r
		}
	}
	t.Fatalf("E17 has no embedded row %q", name)
	return Row{}
}

// opCounts is a row's op count and its op.<kind> counts.
func opCounts(r Row) map[string]float64 {
	ops := map[string]float64{"ops": r.Extra["ops"]}
	for k, v := range r.Extra {
		if strings.HasPrefix(k, "op.") {
			ops[k] = v
		}
	}
	return ops
}

// TestMixesEmbeddedShort checks every mix's embedded row.
func TestMixesEmbeddedShort(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"points", "traverse", "versions", "triggers", "bom", "churn10x"} {
		t.Run(name, func(t *testing.T) {
			r := embeddedRow(t, name)
			if r.Mode != "embedded" || r.Workers != 2 {
				t.Fatalf("row header: %+v", r)
			}
			if len(opCounts(r)) < 2 || r.Extra["ops"] == 0 {
				t.Fatalf("no ops recorded: %v", r.Extra)
			}
			if r.Extra["p50_ns"] <= 0 || r.Extra["max_ns"] < r.Extra["p99_ns"] {
				t.Fatalf("bad latency quantiles: %v", r.Extra)
			}
			if r.Extra["ops_per_sec"] <= 0 || r.NsPerOp <= 0 {
				t.Fatalf("no throughput: %+v", r)
			}
		})
	}
}

// TestOpCountsDeterministic: the op counts of a seeded run repeat
// exactly.
func TestOpCountsDeterministic(t *testing.T) {
	t.Parallel()
	for _, again := range runMix(t, "E17", 1, func(c Case) bool {
		return c.Mode == "embedded" && (c.Name == "bom" || c.Name == "points")
	}) {
		first := embeddedRow(t, again.Workload)
		if a, b := opCounts(first), opCounts(again); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s seed=1 not reproducible:\n%v\n%v", again.Workload, a, b)
		}
	}
}

// TestTransportsAgree reads the smoke run's points rows, embedded,
// through a loopback server and through a 2-shard loopback router: the
// op mix is a pure function of the seed, so all three rows must agree
// on every count.
func TestTransportsAgree(t *testing.T) {
	t.Parallel()
	all := smokeRows(t)
	var rows []Row
	var modes []string
	for _, r := range append(all["E17"], all["E18"]...) {
		if r.Workload != "points" {
			continue
		}
		rows = append(rows, r)
		modes = append(modes, r.Mode)
		if a, b := opCounts(rows[0]), opCounts(r); !reflect.DeepEqual(a, b) {
			t.Errorf("op counts diverge across transports:\n%s %v\n%s %v", rows[0].Mode, a, r.Mode, b)
		}
		if r.Extra["ctr.txn.commits"] == 0 {
			t.Errorf("%s row carries no server counter deltas: %v", r.Mode, r.Extra)
		}
	}
	if got := strings.Join(modes, ","); got != "embedded,remote,sharded-2" {
		t.Fatalf("points ran in %s, want embedded,remote,sharded-2", got)
	}
}

// TestTriggersRefusedRemotely pins the capability split: the trigger
// and churn mixes need embedded APIs, so E17 declares no remote case
// and E18 no sharded case for them.
func TestTriggersRefusedRemotely(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"E17", "E18"} {
		var remote []string
		runMix(t, id, 1, func(c Case) bool {
			if c.Mode != "embedded" {
				remote = append(remote, c.Name)
			}
			return false
		})
		if got := strings.Join(remote, ","); got != "points,traverse,versions,bom" {
			t.Errorf("%s remote cases = %s, want points,traverse,versions,bom", id, got)
		}
	}
}

// TestChurn10xLargerThanRAM is the acceptance test for the
// larger-than-RAM scenario: the data set spans at least 5× the 32-page
// pool, the pool recycles its frames, and both compactions run and
// reclaim the pages the mass delete left behind.
func TestChurn10xLargerThanRAM(t *testing.T) {
	t.Parallel()
	x := embeddedRow(t, "churn10x").Extra
	if x["pages"] < 5*32 {
		t.Fatalf("data set is not larger than RAM: %v pages vs 32 pool frames", x["pages"])
	}
	if x["ctr.pool.evictions"] < 5*32 {
		t.Fatalf("pool recycled only %v frames of a 32-page pool", x["ctr.pool.evictions"])
	}
	if x["ctr.storage.compactions"] != 2 {
		t.Fatalf("storage.compactions delta = %v, want 2 (%v)", x["ctr.storage.compactions"], x)
	}
	if x["ctr.storage.pages_reclaimed"] <= 0 {
		t.Fatalf("compaction reclaimed no pages: %v", x)
	}
	if x["op.delete"] == 0 || x["op.insert"] == 0 {
		t.Fatalf("churn accounting empty: %v", x)
	}
}
