package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runChild runs one workload in a re-executed child process, copies what it
// prints to out, and parses its last line.
func runChild(o options, out io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-trace", trace, "-dir", o.dir)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", o.workload, o.seed, err)
	}
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	res := new(result)
	if err := json.Unmarshal(last, res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", o.workload, o.seed, err)
	}
	return res, nil
}

// noise is the -repeat mode: it measures the benchmark's own repeatability
// the way the acceptance pipeline does. Every workload (or the one -workload
// names) runs n times, each on
// its own seed; for every end-to-end metric it prints the median, the
// quartiles and their distance as a share of the median, and it fails when
// a spread exceeds a third of the metric's bound or when the medians of the
// two halves of the runs disagree by more than half the bound. setup_s is
// exempt from the spread rule, as it is in the pipeline.
func noise(o options, n int) error {
	defs := defsFor(o.trace)
	fmt.Printf("| workload | metric | unit | median | q1 | q3 | spread | bound | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	bad := 0
	for _, sp := range specs {
		if o.workload != "" && o.workload != sp.name {
			continue
		}
		vals := make(map[string][]float64)
		for k := 0; k < n; k++ {
			run := o
			run.workload, run.seed = sp.name, o.seed+uint64(k)
			res, err := runChild(run, io.Discard)
			if err != nil {
				return err
			}
			for _, d := range defs {
				vals[d.Name] = append(vals[d.Name], res.Metrics[d.Name].Value)
			}
		}
		for _, d := range defs {
			v := vals[d.Name]
			q1, q2, q3 := quartiles(v)
			verdict := "ok"
			switch {
			case d.Bound == 0:
				verdict = "-"
			case d.Name != "setup_s" && spread(v) > d.Bound/3:
				verdict = "NOISY"
			case n >= 4 && worse(d, median(v[:n/2]), median(v[n/2:])) > d.Bound/2:
				verdict = "HALVES DISAGREE"
			}
			if verdict != "ok" && verdict != "-" {
				bad++
			}
			fmt.Printf("| %s | %s | %s | %.6g | %.6g | %.6g | %.2f%% | %.0f%% | %s |\n",
				sp.name, d.Name, d.Unit, q2, q1, q3, 100*spread(v), 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d (workload, metric) pairs are too noisy", bad)
	}
	return nil
}

// worse is how much worse b is than a, as a share of a, in the metric's own
// direction (negative when b is better).
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
