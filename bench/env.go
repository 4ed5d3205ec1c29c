package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// environment is what a reader needs beside the numbers to judge them.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Quick      bool   `json:"quick"`
	Dir        string `json:"dir"`
	// ODirect says whether the filesystem under Dir accepts O_DIRECT, and
	// ODirectUsed whether the file backend will ask for it: only when the
	// block size is a multiple of 4096, which this benchmark's is not (see
	// blockBytes). Where it is refused (tmpfs) the backend falls back to
	// buffered I/O without saying so.
	ODirect     bool `json:"o_direct_accepted"`
	ODirectUsed bool `json:"o_direct_used"`
	// SleepOvershootUs is how much longer than asked a 2 ms sleep takes
	// here (median of 50): the timer granularity under the model regime.
	SleepOvershootUs float64 `json:"sleep_2ms_overshoot_us"`
}

func captureEnvironment(opt options) environment {
	env := environment{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: opt.seed, Seconds: opt.seconds, Quick: opt.quick, Dir: opt.dir}
	if f, err := openDirect(filepath.Join(opt.dir, "odirect.probe")); err == nil {
		env.ODirect = true
		env.ODirectUsed = blockBytes%4096 == 0
		f.Close()
	}
	os.Remove(filepath.Join(opt.dir, "odirect.probe"))
	over := make([]float64, 50)
	for i := range over {
		t0 := time.Now()
		time.Sleep(2 * time.Millisecond)
		over[i] = float64(time.Since(t0)-2*time.Millisecond) / 1e3
	}
	sort.Float64s(over)
	env.SleepOvershootUs = over[len(over)/2]
	return env
}
