// Command orcfbench is the repository benchmark: four closed-loop workloads
// over the whole pipeline, each printing the same end-to-end metrics, and a
// traced mode that prints per-layer metrics instead. See ../README.md.
//
//	orcfbench -workload step_scalar -seed 1 -seconds 10 -trace 0
//
// runs one workload in this process and prints its result object as the last
// line of standard output. Without -workload it runs all four, each in a
// child process; with -repeat N it does that N times on consecutive seeds
// (for one workload if -workload names it) and prints the spread of every
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

func main() {
	var o options
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end metrics")
	repeat := flag.Int("repeat", 0, "noise mode: run every workload this many times on consecutive seeds")
	flag.StringVar(&o.workload, "workload", "", "workload to run in this process (default: all, one child process each)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the timed section on the reference box; fixes the op count")
	flag.Float64Var(&o.scale, "scale", 1, "shrink fleets and warm-ups by this factor (smoke runs only)")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for state directories and span dumps")
	flag.Parse()
	o.trace = *trace != 0
	if flag.NArg() > 0 || o.seconds <= 0 || o.scale <= 0 || o.scale > 1 || *repeat < 0 {
		fmt.Fprintln(os.Stderr, "orcfbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}

	var err error
	switch {
	case *repeat > 0:
		err = noise(o, *repeat)
	case o.workload == "":
		for _, sp := range specs {
			o.workload = sp.name
			if _, err = runChild(o, os.Stdout); err != nil {
				break
			}
		}
	default:
		err = runAndPrint(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "orcfbench:", err)
		os.Exit(1)
	}
}

// runAndPrint runs one workload here. The result object is printed only when
// the run completed; a run whose outputs were wrong still prints it, with
// correct=false, and exits non-zero.
func runAndPrint(o options) error {
	fmt.Printf("orcfbench workload=%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d nproc=%d dir=%s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), o.dir)
	if o.scale != 1 {
		fmt.Printf("SCALED RUN (-scale %g): a smoke test, not a measurement\n", o.scale)
	}
	res, err := run(o, func(format string, args ...any) { fmt.Printf(format+"\n", args...) })
	if err != nil {
		return err
	}
	for _, d := range defsFor(o.trace) {
		fmt.Printf("%-36s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops or output checks failed", o.workload, res.Failed, res.Attempted)
	}
	return nil
}
