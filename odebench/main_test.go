package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// The quantile selection must agree with sorting on random data, at
// every size and quantile, ties included.
func TestQuantileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 4097} {
		for trial := 0; trial < 20; trial++ {
			xs := make([]float64, n)
			for i := range xs {
				if trial%2 == 0 {
					xs[i] = float64(rng.Intn(7)) // many ties
				} else {
					xs[i] = rng.ExpFloat64()
				}
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1} {
				want := sorted[int(math.Ceil(q*float64(n)))-1]
				got, ok := quantile(append([]float64(nil), xs...), q)
				if !ok || got != want {
					t.Fatalf("n=%d q=%g: quantile = %g, sort says %g", n, q, got, want)
				}
			}
		}
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Fatal("quantile of no samples reported ok")
	}
}

// A p99 needs ten samples above it: 1000 samples give exactly ten.
func TestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{1000, 0.99, true}, {999, 0.99, false}, {19, 0.5, false}, {20, 0.5, true}, {0, 0.5, false}} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

// Generated inputs are a pure function of the seed: the same seed
// arms the same items with the same quantities, picks the same hot set
// and drives every caller through the same operation stream.
func TestInputsArePureFunctionOfSeed(t *testing.T) {
	type inputs struct {
		Armed []uint64
		Qty   map[uint64]int64
		Hot   []uint64
		Ops   [][]int
	}
	gen := func(seed int64) inputs {
		s, err := newScan(seed, 600, 40)
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		o, err := newOLTP(seed, 300, 50)
		if err != nil {
			t.Fatal(err)
		}
		defer o.close()
		in := inputs{Qty: map[uint64]int64{}}
		for _, oid := range s.armed {
			in.Armed = append(in.Armed, uint64(oid))
			in.Qty[uint64(oid)] = s.qty[oid]
		}
		for _, oid := range o.hot {
			in.Hot = append(in.Hot, uint64(oid))
		}
		for id := 0; id < 2; id++ {
			c := newCaller(id, seed, 0, nil)
			var ops []int
			for i := 0; i < 50; i++ {
				ops = append(ops, c.rng.Intn(100))
			}
			in.Ops = append(in.Ops, ops)
		}
		return in
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 generated different inputs on two runs")
	}
	if reflect.DeepEqual(a.Armed, c.Armed) || reflect.DeepEqual(a.Ops, c.Ops) {
		t.Fatal("seeds 7 and 8 generated the same inputs")
	}
}

// small runs the workloads at test size.
var small = map[string]*spec{
	"scan":   resized(scanSpec, func(seed int64) (env, error) { return newScan(seed, 2000, 50) }),
	"oltp":   resized(oltpSpec, func(seed int64) (env, error) { return newOLTP(seed, 600, 100) }),
	"xshard": resized(xshardSpec, func(seed int64) (env, error) { return newXShard(100) }),
}

func resized(s *spec, setup func(int64) (env, error)) *spec {
	c := *s
	c.setup = setup
	return &c
}

// benchmarkFile reads the metric names BENCHMARK.json declares.
func benchmarkFile(t *testing.T) (e2e, layer []string) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layer = append(layer, m.Name)
	}
	return e2e, layer
}

// result decodes the last line a run prints.
func result(t *testing.T, out *outcome) (correct bool, names []string) {
	var buf bytes.Buffer
	if err := out.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var r struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, buf.String())
	}
	if r.Attempted < 1 {
		t.Fatalf("attempted = %d", r.Attempted)
	}
	for n, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
			t.Errorf("metric %s = %v %q", n, m.Value, m.Unit)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return r.Correct, names
}

// Every workload runs correctly at test size, untraced and traced, and
// reports exactly the metrics BENCHMARK.json declares.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	t.Setenv("ODEBENCH_OUT", t.TempDir())
	e2e, layer := benchmarkFile(t)
	sort.Strings(e2e)
	sort.Strings(layer)
	for _, name := range []string{"scan", "oltp", "xshard"} {
		for _, traced := range []bool{false, true} {
			out, err := run(small[name], 1, 600*time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			correct, names := result(t, out)
			if !correct || out.failed != 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d %v", name, traced, correct, out.failed, out.bad)
			}
			want := e2e
			if traced {
				want = layer
			}
			if !reflect.DeepEqual(names, want) {
				t.Fatalf("%s traced=%v reports %v\nBENCHMARK.json declares %v", name, traced, names, want)
			}
		}
	}
}

// A deliberately wrong expected count makes the run report itself
// incorrect, which is what makes the command exit non-zero.
func TestWrongExpectedCountFails(t *testing.T) {
	w := resized(scanSpec, func(seed int64) (env, error) {
		e, err := newScan(seed, 2000, 50)
		if err == nil {
			e.skew = 1
		}
		return e, err
	})
	out, err := run(w, 1, 300*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	if correct, _ := result(t, out); correct || len(out.bad) == 0 {
		t.Fatal("a wrong expected count did not fail the run")
	}
	if !strings.Contains(out.bad[0], "model") {
		t.Fatalf("unexpected mismatch text: %s", out.bad[0])
	}
}
