package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func quickOptions(t *testing.T) options {
	return options{seed: 1, seconds: 10, quick: true, dir: t.TempDir()}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func checkMetrics(t *testing.T, workload string, specs []metricSpec, got map[string]sample) {
	t.Helper()
	if len(got) != len(specs) {
		t.Errorf("%s: %d metrics reported, %d specified", workload, len(got), len(specs))
	}
	seen := map[string]bool{}
	for _, m := range specs {
		if seen[m.Name] {
			t.Errorf("metric %s is specified twice", m.Name)
		}
		seen[m.Name] = true
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
		}
		s, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, m.Name)
			continue
		}
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			t.Errorf("%s: metric %s is %v", workload, m.Name, s.Value)
		}
		if s.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", workload, m.Name, s.Unit, m.Unit)
		}
	}
}

// TestQuickRun is the smoke test: every workload, untraced and traced, at a
// sixteenth of the size.
func TestQuickRun(t *testing.T) {
	opt := quickOptions(t)
	results := map[string]result{}
	for _, def := range workloads {
		res, err := runUntraced(def, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", def.name, res.Attempted, res.Failed, res.Failures)
		}
		checkMetrics(t, def.name, endToEndMetrics, res.Metrics)
		for _, m := range endToEndMetrics {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; the contract wants it never 0", def.name, m.Name, res.Metrics[m.Name].Value)
			}
		}
		results[def.name] = res

		traced, spans, err := runTraced(def, opt)
		if err != nil {
			t.Fatal(err)
		}
		if traced.Failed != 0 {
			t.Errorf("%s traced: failed %d: %v", def.name, traced.Failed, traced.Failures)
		}
		checkMetrics(t, def.name+" traced", perLayerMetrics, traced.Metrics)
		checkSpans(t, def.name, spans)
	}

	// One seed fixes every I/O of the read-only workloads.
	for _, def := range workloads {
		if def.name == "store-file" {
			continue
		}
		again, err := runUntraced(def, opt)
		if err != nil {
			t.Fatal(err)
		}
		for name := range exactOnReadOnly {
			a, b := results[def.name].Metrics[name].Value, again.Metrics[name].Value
			// The pipelined build's step count depends on how the sorter
			// and the loader interleave: a few steps either way, which is
			// under 0.1% at full size and a percent or so at this one.
			if name == "steps_per_op" && strings.HasPrefix(def.name, "build-") {
				if math.Abs(a-b) > 0.03*a {
					t.Errorf("%s: %s %v then %v, more than 3%% apart", def.name, name, a, b)
				}
			} else if a != b {
				t.Errorf("%s: %s %v then %v on the same seed", def.name, name, a, b)
			}
		}
	}
	// mem == file: the two build workloads have one geometry, so their
	// counted I/O must agree.
	cpu, file := results["build-cpu"].Metrics, results["build-file"].Metrics
	for _, name := range []string{"ios_per_op", "write_ios_per_insert", "space_blocks_per_krecord"} {
		if cpu[name].Value != file[name].Value {
			t.Errorf("%s: build-cpu %v, build-file %v", name, cpu[name].Value, file[name].Value)
		}
	}
}

func checkSpans(t *testing.T, workload string, spans []span) {
	t.Helper()
	byID := map[int]span{}
	names := map[string]int{}
	for _, s := range spans {
		byID[s.ID] = s
		names[s.Name]++
		if s.End < s.Start || s.Workload != workload {
			t.Errorf("%s: bad span %+v", workload, s)
		}
	}
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "req.") || strings.HasPrefix(s.Name, "probe."):
			if s.Parent != 0 {
				t.Errorf("%s: %s should be a root span", workload, s.Name)
			}
		default:
			if p, ok := byID[s.Parent]; !ok || !strings.HasPrefix(p.Name, "probe.") {
				t.Errorf("%s: %s should hang under a probe span", workload, s.Name)
			}
		}
	}
	want := []string{"req.getbatch", "req.get", "req.scan", "probe.pdm", "probe.stream", "probe.build", "probe.cache",
		"probe.shard", "probe.index", "probe.buffertree", "probe.store", "pdm.ReadBlock", "btree.GetBatch", "shard.GetBatch"}
	switch {
	case strings.HasPrefix(workload, "build-"):
		want = append(want, "req.build")
	case workload == "store-file":
		want = append(want, "req.insert", "req.delete")
	}
	for _, name := range want {
		if names[name] == 0 {
			t.Errorf("%s: no %s span", workload, name)
		}
	}
}

// TestCorruptAnswerFails drives the test hook: one flipped answer must
// surface as a failed operation, which main turns into a non-zero exit.
func TestCorruptAnswerFails(t *testing.T) {
	for _, name := range []string{"serve-cpu", "store-file"} {
		opt := quickOptions(t)
		opt.corrupt = true
		res, err := runUntraced(findWorkload(name), opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed == 0 {
			t.Errorf("%s: a corrupted answer went unnoticed", name)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d", file.RunSeconds)
	}
	if len(file.Workloads) != len(workloadSpecs) || len(workloadSpecs) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d specified, %d runnable", len(file.Workloads), len(workloadSpecs), len(workloads))
	}
	for i, w := range workloadSpecs {
		if file.Workloads[i] != w || workloads[i].name != w.Name {
			t.Errorf("workload %d: file %+v, spec %+v, program %s", i, file.Workloads[i], w, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the file, %d in the program", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: file %+v, program %+v", kind, i, got[i], want[i])
			}
			if len(want[i].Name) > 64 || len(want[i].Unit) > 16 {
				t.Errorf("%s metric %s: name or unit too long", kind, want[i].Name)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEndMetrics)
	same("per_layer", file.PerLayer, perLayerMetrics)
	for _, m := range endToEndMetrics {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestValSum(t *testing.T) {
	for _, tc := range []struct{ first, step, n uint64 }{{1, 1, 1}, {7, 1, 1000}, {2, 2, 256}, {1 << 40, 1, 4097}, {0, 1, 1 << 12}} {
		var want uint64
		for i := uint64(0); i < tc.n; i++ {
			want += valOf(tc.first + i*tc.step)
		}
		if got := valSum(tc.first, tc.step, tc.n); got != want {
			t.Errorf("valSum(%d, %d, %d) = %d, want %d", tc.first, tc.step, tc.n, got, want)
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
}

func TestJudge(t *testing.T) {
	rate := metricSpec{Name: "keys_per_s", Better: "higher", Bound: 0.10}
	counted := metricSpec{Name: "ios_per_op", Better: "lower", Bound: 0.03}
	one := func(v float64) sample { return sample{Value: v, Min: v, Max: v, N: 1} }
	for _, tc := range []struct {
		m        metricSpec
		workload string
		old, cur sample
		want     string
	}{
		{counted, "serve-cpu", one(1.5), one(1.5), "identical"},
		{counted, "serve-cpu", one(1.5), one(1.5001), "MISMATCH"},
		{counted, "store-file", one(1.5), one(1.51), "within bound"},
		{metricSpec{Name: "steps_per_op", Better: "lower", Bound: 0.05}, "build-cpu", one(0.007036), one(0.007038), "identical"},
		{metricSpec{Name: "steps_per_op", Better: "lower", Bound: 0.05}, "serve-cpu", one(0.7032), one(0.7033), "MISMATCH"},
		{rate, "serve-cpu", one(100), one(85), "REGRESSION"},
		{rate, "serve-cpu", one(100), one(120), "improved"},
		{rate, "serve-cpu", sample{Value: 100, Min: 90, Max: 110, N: 5}, sample{Value: 105, Min: 95, Max: 115, N: 5}, "unresolved"},
	} {
		if got := judge(tc.m, tc.workload, tc.old, tc.cur); !strings.HasPrefix(got, tc.want) {
			t.Errorf("judge(%s on %s, %v -> %v) = %q, want %s", tc.m.Name, tc.workload, tc.old.Value, tc.cur.Value, got, tc.want)
		}
	}
}
