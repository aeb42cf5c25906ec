package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileTenBeyondRule(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{1000, 0.99, 990, true}, // ranks 991..1000 lie beyond: exactly ten
		{999, 0.99, 990, false}, // only nine beyond
		{100, 0.90, 90, true},
		{99, 0.90, 90, false},
		{1, 0.5, 1, false},
		{2000, 0.5, 1000, true},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.wantOK)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("percentile modified its input: %v", xs)
	}
}

func TestTailFor(t *testing.T) {
	if name, v := tailFor(seq(1000)); name != "p99" || v != 990 {
		t.Errorf("tailFor(1000 samples) = %s %v, want p99 990", name, v)
	}
	if name, v := tailFor(seq(300)); name != "p90" || v != 270 {
		t.Errorf("tailFor(300 samples) = %s %v, want p90 270", name, v)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func at(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "round", Start: at(0), End: at(100)},
		// Overlapping children (parallel work) cover [10,50) once.
		{ID: 2, Parent: 1, Name: "step", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "step", Start: at(20), End: at(50)},
		// A child running past its parent only covers its part inside.
		{ID: 4, Parent: 1, Name: "merge", Start: at(90), End: at(120)},
		// A grandchild reduces its own parent's self time, not the root's.
		{ID: 5, Parent: 3, Name: "kernel", Start: at(25), End: at(35)},
		{ID: 6, Name: "other", Start: at(200), End: at(210)},
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{
		1: 50 * time.Millisecond, // 100 - 40 - 10
		2: 20 * time.Millisecond,
		3: 20 * time.Millisecond, // 30 - 10
		4: 30 * time.Millisecond,
		5: 10 * time.Millisecond,
		6: 10 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	byName, n := selfByName(spans)
	if byName["step"] != 40*time.Millisecond || n["step"] != 2 {
		t.Errorf("step self sum = %v over %d spans, want 40ms over 2", byName["step"], n["step"])
	}
}

func TestSpanLogNilIsNoOp(t *testing.T) {
	var l *spanLog
	id := l.begin("x", 0)
	l.end(id)
	if id != 0 || l.add("y", 0, at(0), at(1)) != 0 {
		t.Error("nil span log returned a span ID")
	}
	live := newSpanLog(7)
	a := live.begin("a", 0)
	b := live.begin("b", a)
	live.end(b)
	live.end(a)
	if len(live.spans) != 2 || live.spans[1].Parent != a || live.spans[0].End.IsZero() {
		t.Errorf("span log = %+v", live.spans)
	}
}

func TestPerUnitAccounting(t *testing.T) {
	// 1.5 s of process CPU over 300 rounds is 5 ms per round.
	if got := perUnit(1500*time.Millisecond, 300, time.Millisecond); got != 5 {
		t.Errorf("perUnit = %v ms, want 5", got)
	}
	// 0.9 s over 3000 requests is 300 µs per request.
	if got := perUnit(900*time.Millisecond, 3000, time.Microsecond); math.Abs(got-300) > 1e-9 {
		t.Errorf("perUnit = %v us, want 300", got)
	}
	if !math.IsNaN(perUnit(time.Second, 0, time.Millisecond)) {
		t.Error("perUnit with no completed unit is not NaN")
	}
	// Process CPU time only moves forward.
	a := cpuTime()
	for i := 0; i < 1e6; i++ {
		_ = math.Sqrt(float64(i))
	}
	if b := cpuTime(); b < a {
		t.Errorf("cpuTime went backwards: %v -> %v", a, b)
	}
}

func TestEmitRequiresEveryMetric(t *testing.T) {
	r := &run{metrics: map[string]float64{}, attempted: 3}
	for _, d := range endToEnd {
		r.set(d.name, 1.5)
	}
	var out bytes.Buffer
	if err := r.emit(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !res.Correct || res.Attempted != 3 || len(res.Metrics) != len(endToEnd) || res.Metrics["setup_s"].Unit != "s" {
		t.Errorf("result = %+v", res)
	}

	r.set("cpu_ms_per_op", math.NaN())
	r.check("something", false, "broken")
	if err := r.emit(&bytes.Buffer{}); err == nil {
		t.Error("emit accepted a NaN metric")
	}
	delete(r.metrics, "cpu_ms_per_op")
	if err := r.emit(&bytes.Buffer{}); err == nil {
		t.Error("emit accepted a missing metric")
	}
}

func TestIdleZeroesOnlyNamedLayers(t *testing.T) {
	r := &run{metrics: map[string]float64{}}
	r.idle("wire", "serve")
	for _, d := range perLayer {
		_, set := r.metrics[d.name]
		want := strings.HasPrefix(d.name, "wire.") || strings.HasPrefix(d.name, "serve.")
		if set != want {
			t.Errorf("idle set %s = %v, want %v", d.name, set, want)
		}
	}
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "rpc-k2", "--seed", "4", "--seconds", "3", "--trace", "1"})
	if err != nil || o.workload != "rpc-k2" || o.seed != 4 || o.seconds != 3 || !o.trace || o.rate != serveRate {
		t.Errorf("parseFlags = %+v, %v", o, err)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "rpc-k2", "--trace", "2"},
		{"--workload", "rpc-k2", "--seconds", "0"},
		{"--workload", "rpc-k2", "extra"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%q) accepted", bad)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the program", w.Name)
		}
	}
}
