package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

func readResults(path string) (resultsFile, error) {
	var rf resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// compareFiles judges new against old, one row per workload and end-to-end
// metric, and returns the exit code: 1 if a counted metric differs where it
// must be exact, any metric worsened past its bound, or more operations failed.
func compareFiles(oldPath, newPath string) (int, error) {
	old, err := readResults(oldPath)
	if err != nil {
		return 2, err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return 2, err
	}
	return compareResults(old, cur), nil
}

func compareResults(old, cur resultsFile) int {
	code := 0
	for _, w := range workloadSpecs {
		o, n := old.Workloads[w.Name], cur.Workloads[w.Name]
		if o == nil || n == nil || o.Metrics == nil || n.Metrics == nil {
			continue
		}
		fmt.Printf("== %s\n", w.Name)
		if n.Failed > o.Failed {
			fmt.Printf("   failed operations rose from %d to %d: REGRESSION\n", o.Failed, n.Failed)
			code = 1
		}
		for _, m := range endToEndMetrics {
			ov, nv := o.Metrics[m.Name], n.Metrics[m.Name]
			verdict := judge(m, w.Name, ov, nv)
			if strings.HasPrefix(verdict, "REGRESSION") || strings.HasPrefix(verdict, "MISMATCH") {
				code = 1
			}
			fmt.Printf("   %-28s %14.6g -> %-14.6g %-14s %s\n", m.Name, ov.Value, nv.Value, m.Unit, verdict)
		}
	}
	return code
}

// judge applies the rules of section 6 of the metrics guide to one metric.
func judge(m metricSpec, workload string, old, cur sample) string {
	if exactOnReadOnly[m.Name] && workload != "store-file" {
		// One seed fixes every I/O of these workloads; only the pipelined
		// builds' step count depends on how sorter and loader interleave,
		// by a few steps in thousands.
		slack := 0.0
		if m.Name == "steps_per_op" && strings.HasPrefix(workload, "build-") {
			slack = 0.001
		}
		if math.Abs(cur.Value-old.Value) > slack*old.Value {
			return "MISMATCH: a counted metric must repeat exactly"
		}
		return "identical"
	}
	worse := (cur.Value - old.Value) / old.Value
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return fmt.Sprintf("REGRESSION: %.1f%% worse, bound %.0f%%", 100*worse, 100*m.Bound)
	case old.N > 1 && cur.N > 1 && old.Min <= cur.Max && cur.Min <= old.Max:
		// The two sides' ranges overlap: the runs cannot tell them apart.
		return fmt.Sprintf("unresolved (%+.1f%%, ranges overlap)", -100*worse)
	case worse < -m.Bound:
		return fmt.Sprintf("improved %.1f%%", -100*worse)
	default:
		return fmt.Sprintf("within bound (%+.1f%%)", -100*worse)
	}
}
