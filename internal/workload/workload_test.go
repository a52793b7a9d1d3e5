package workload

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"ode/internal/bench"
)

// The six mixes run as E17 (embedded, remote) and E18 (sharded) of the
// experiment registry. These tests drive them through the registry, the
// way ode-bench -workload does, at CI size with two workers; they run
// in parallel and share one embedded E17 run.

// run runs experiment id with seed and returns the rows of the cases
// keep accepts; the other cases are only declared.
func run(id string, seed int64, keep func(bench.Case) bool) (rows []bench.Row, err error) {
	for _, e := range bench.Experiments() {
		if e.ID == id {
			err = e.Run(bench.Driver{Short: true, Workers: 2, Seed: seed, Measure: func(c bench.Case) error {
				if !keep(c) {
					return nil
				}
				row, err := c.Row(e.ID, 1)
				rows = append(rows, row)
				return err
			}})
		}
	}
	return rows, err
}

func mixRows(t *testing.T, id string, seed int64, keep func(bench.Case) bool) []bench.Row {
	t.Helper()
	rows, err := run(id, seed, keep)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return rows
}

func embedded(c bench.Case) bool { return c.Mode == "embedded" }

// embeddedRows runs E17's embedded cases (seed 1) once for the tests
// that read them.
var embeddedRows = sync.OnceValues(func() (map[string]bench.Row, error) {
	rows, err := run("E17", 1, embedded)
	byName := map[string]bench.Row{}
	for _, r := range rows {
		byName[r.Workload] = r
	}
	return byName, err
})

func embeddedRow(t *testing.T, name string) bench.Row {
	t.Helper()
	rows, err := embeddedRows()
	if err != nil {
		t.Fatalf("E17: %v", err)
	}
	r, ok := rows[name]
	if !ok {
		t.Fatalf("E17 has no embedded row %q", name)
	}
	return r
}

// opCounts is a row's op count and its op.<kind> counts.
func opCounts(r bench.Row) map[string]float64 {
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
	for _, again := range mixRows(t, "E17", 1, func(c bench.Case) bool {
		return embedded(c) && (c.Name == "bom" || c.Name == "points")
	}) {
		first := embeddedRow(t, again.Workload)
		if a, b := opCounts(first), opCounts(again); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s seed=1 not reproducible:\n%v\n%v", again.Workload, a, b)
		}
	}
}

// TestTransportsAgree runs the points mix embedded, through a loopback
// server and through a 2-shard loopback router: the op mix is a pure
// function of the seed, so all three rows must agree on every count.
func TestTransportsAgree(t *testing.T) {
	t.Parallel()
	points := func(c bench.Case) bool { return c.Name == "points" }
	rows := append(mixRows(t, "E17", 7, points), mixRows(t, "E18", 7, points)...)
	var modes []string
	for _, r := range rows {
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
		mixRows(t, id, 1, func(c bench.Case) bool {
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
