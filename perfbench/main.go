// Command perfbench is the repository's benchmark: four workloads over the
// cell → wire → admission → durable/replicated → storage path of the
// trusted-cells system, each checked for correctness, with an untraced mode
// that reports end-to-end metrics and a traced mode that reports per-layer
// metrics from spans the benchmark records around its calls into each
// layer.
//
//	perfbench --workload fleet-write --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// A correctness violation prints the object with correct=false and exits 1;
// a run that cannot complete exits 2 without printing it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "length of the measured phase, seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "work"), "directory for the stores and spans of a run")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	// One load goroutine and one connection per processor, at most two.
	clients := min(2, runtime.NumCPU())
	dir, err := filepath.Abs(filepath.Join(*workdir, fmt.Sprintf("%s-%d", wl.name, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		dir: dir, outDir: filepath.Join(*workdir, "trace-"+wl.name), clients: clients}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d clients=%d nproc=%d\n",
		wl.name, *seed, *seconds, *trace, clients, runtime.NumCPU())
	fmt.Printf("why: %s\n", wl.why)
	// Let the kernel finish writing back what earlier processes (a build,
	// the previous run) left dirty, so that writeback does not compete with
	// this run's commit barriers.
	syscall.Sync()

	o, err := wl.run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 2
	}
	for _, line := range o.report {
		fmt.Println(line)
	}
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %14.4f %s\n", n, o.metrics[n].Value, o.metrics[n].Unit)
	}
	errPct := 0.0
	if o.attempted > 0 {
		errPct = 100 * float64(o.failed) / float64(o.attempted)
	}
	fmt.Printf("error_pct %.4f %% (%d failed or shed of %d attempted); correctness violations: %d\n",
		errPct, o.failed, o.attempted, o.violations)
	for _, m := range o.messages {
		fmt.Fprintf(os.Stderr, "perfbench: violation: %s\n", m)
	}
	correct := o.violations == 0 && o.attempted > 0
	failed := o.failed
	if !correct && failed == 0 {
		failed = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(o.attempted, 1), failed, o.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}
