// Command bench is the repository's benchmark: five workloads through the
// em.Index surface, each pinned to one regime of the stack, with every
// answer checked. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
)

var workloads = []*workloadDef{
	buildWorkload("build-cpu", 6, buildCfg{reg: regimeCPU, n: 1 << 20, disks: 4, memBlocks: 512,
		scans: 8, batches: 4096, gets: 131072}),
	buildWorkload("build-file", 5, buildCfg{reg: regimeFile, n: 1 << 20, disks: 4, memBlocks: 512,
		scans: 8, batches: 4096, gets: 131072}),
	// serve-cpu's set-up is a tenth of a second, so eleven of them are timed.
	serveWorkload("serve-cpu", 6, 11, serveCfg{reg: regimeCPU, shards: 2, disks: 4, memBlocks: 256, n: 1 << 22, frames: 48,
		clients: 1, batches: 8192, gets: 131072, scans: 16}),
	serveWorkload("serve-model", 1, 3, serveCfg{reg: regimeModel, shards: 4, disks: 2, memBlocks: 256, n: 1 << 19, frames: 48,
		clients: 2, batches: 120, gets: 500, scans: 3}),
	storeWorkload("store-file", 4, storeCfg{reg: regimeFile, shards: 2, disks: 2, memBlocks: 512, n: 1 << 19, frontOps: 32768,
		frames: 32, clients: 2, ops: 400000, scanKeys: 256}),
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(code)
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Env       environment             `json:"env"`
	Workloads map[string]*workloadOut `json:"workloads"`
}

type workloadOut struct {
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Runs      int               `json:"runs"`
	Metrics   map[string]sample `json:"metrics"`
	PerLayer  map[string]sample `json:"per_layer,omitempty"`
}

// run returns the exit code: 0, 1 when an operation failed or a run could not
// finish, 2 when the command line or a file is at fault.
func run() (int, error) {
	var (
		workload   = flag.String("workload", "", "run one workload (default: all five, untraced then traced)")
		seed       = flag.Int64("seed", 1, "seed every input derives from")
		seconds    = flag.Int("seconds", 15, "nominal measured window per workload; chooses the pass count")
		trace      = flag.Int("trace", -1, "0: end-to-end run only; 1: traced run only (per-layer metrics); default: both")
		spans      = flag.String("spans", "", "write the traced runs' spans and per-layer table to this file")
		quick      = flag.Bool("quick", false, "every size divided by 16, one pass")
		dir        = flag.String("dir", "", "parent directory for file-backed volumes (default: the system temp dir)")
		out        = flag.String("out", "", "write the results to this file, for -compare")
		runs       = flag.Int("runs", 1, "end-to-end runs per workload, on consecutive seeds; prints each metric's spread against its bound")
		compare    = flag.Bool("compare", false, "compare two results files: bench -compare old.json new.json")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of one workload (needs -workload; not with -out or -runs)")
		memprofile = flag.String("memprofile", "", "write a heap profile of one workload (same restrictions)")
		corrupt    = flag.Bool("corrupt", false, "test hook: corrupt one answer; the run must fail")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return 2, errors.New("-compare takes two results files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if *cpuprofile != "" || *memprofile != "" {
		// A profiled run is slower; its numbers must never reach a file
		// that -compare reads or a run that stands for the whole benchmark.
		if *workload == "" || *out != "" || *runs > 1 {
			return 2, errors.New("-cpuprofile and -memprofile need -workload and exclude -out and -runs")
		}
	}
	defs := workloads
	if *workload != "" {
		def := findWorkload(*workload)
		if def == nil {
			return 2, fmt.Errorf("unknown workload %q", *workload)
		}
		defs = []*workloadDef{def}
	}
	scratch, err := os.MkdirTemp(*dir, "embench-")
	if err != nil {
		return 2, err
	}
	defer os.RemoveAll(scratch)
	opt := options{seed: *seed, seconds: *seconds, quick: *quick, dir: scratch, corrupt: *corrupt}
	env := captureEnvironment(opt)
	fmt.Printf("# nproc %d, GOMAXPROCS %d, %s, seed %d, seconds %d, quick %v\n", env.NumCPU, env.GoMaxProcs, env.GoVersion, env.Seed, env.Seconds, env.Quick)
	fmt.Printf("# dir %s, O_DIRECT accepted there: %v, used: %v (blocks of %d bytes), time.Sleep(2ms) overshoots by %.0f us\n",
		env.Dir, env.ODirect, env.ODirectUsed, blockBytes, env.SleepOvershootUs)

	stop, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return 2, err
	}
	file := resultsFile{Env: env, Workloads: map[string]*workloadOut{}}
	tf := traceFile{Env: env, Layer: map[string]map[string]sample{}}
	code := 0
	for _, def := range defs {
		wo := &workloadOut{}
		file.Workloads[def.name] = wo
		var last result
		if *trace != 1 {
			res, err := runEndToEnd(def, opt, *runs)
			if err != nil {
				return 1, err
			}
			wo.Attempted, wo.Failed, wo.Runs, wo.Metrics = res.Attempted, res.Failed, *runs, res.Metrics
			last = res
		}
		if *trace != 0 {
			res, sp, err := runTraced(def, opt)
			if err != nil {
				return 1, err
			}
			res.Workload += " (traced)"
			printResult(res)
			wo.Attempted += res.Attempted
			wo.Failed += res.Failed
			wo.PerLayer = res.Metrics
			tf.Layer[def.name] = res.Metrics
			tf.Spans = append(tf.Spans, sp...)
			last = res
		}
		if wo.Failed > 0 {
			code = 1
		}
		// Asked for one workload in one mode, the last line of standard
		// output is the object the benchmark driver reads.
		if *workload != "" && *trace >= 0 && *runs == 1 {
			printContractLine(last)
		}
	}
	if err := stop(); err != nil {
		return 2, err
	}
	if *spans != "" {
		if err := writeJSON(*spans, tf); err != nil {
			return 2, err
		}
	}
	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			return 2, err
		}
	}
	return code, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o666)
}

// runEndToEnd makes n untraced runs on consecutive seeds. One run reports
// itself; several report, per metric, the median of the runs with their
// extremes, and the spread the benchmark contract bounds.
func runEndToEnd(def *workloadDef, opt options, n int) (result, error) {
	if n <= 1 {
		res, err := runUntraced(def, opt)
		if err == nil {
			printResult(res)
		}
		return res, err
	}
	vals := map[string][]float64{}
	agg := result{Workload: def.name, Metrics: map[string]sample{}}
	for i := 0; i < n; i++ {
		o := opt
		o.seed += int64(i)
		res, err := runUntraced(def, o)
		if err != nil {
			return result{}, err
		}
		agg.Attempted += res.Attempted
		agg.Failed += res.Failed
		agg.Failures = append(agg.Failures, res.Failures...)
		for name, m := range res.Metrics {
			vals[name] = append(vals[name], m.Value)
		}
	}
	fmt.Printf("== %s: %d runs, attempted %d, failed %d\n", def.name, n, agg.Attempted, agg.Failed)
	for _, m := range endToEndMetrics {
		agg.Metrics[m.Name] = summarize(vals[m.Name], m.Unit)
		s := agg.Metrics[m.Name]
		spread := quartileSpread(vals[m.Name])
		verdict := "ok"
		if spread > m.Bound {
			verdict = "UNSTEADY"
		}
		fmt.Printf("   %-28s %14.6g %-14s [%.6g .. %.6g] spread %5.2f%% of bound %4.1f%% %s\n",
			m.Name, s.Value, s.Unit, s.Min, s.Max, 100*spread, 100*m.Bound, verdict)
	}
	return agg, nil
}

// startProfiles starts the requested profiles and returns what finishes them.
func startProfiles(cpu, mem string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if mem == "" {
			return nil
		}
		f, err := os.Create(mem)
		if err != nil {
			return err
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

func printResult(res result) {
	fmt.Printf("== %s: attempted %d, failed %d\n", res.Workload, res.Attempted, res.Failed)
	for _, msg := range res.Failures {
		fmt.Printf("   FAILED: %s\n", msg)
	}
	for _, name := range sortedNames(res.Metrics) {
		m := res.Metrics[name]
		fmt.Printf("   %-28s %16.6g %-14s [%.6g .. %.6g] n=%d\n", name, m.Value, m.Unit, m.Min, m.Max, m.N)
	}
}

// printContractLine prints the one JSON object the benchmark driver reads
// from the last line of standard output.
func printContractLine(res result) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]mv{}}
	for name, m := range res.Metrics {
		out.Metrics[name] = mv{m.Value, m.Unit}
	}
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
}
