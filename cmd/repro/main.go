// Command repro regenerates the paper's tables and figures.
//
// Usage:
//
//	repro -exp fig4                 # one experiment at quick scale
//	repro -exp all                  # every experiment
//	repro -exp fig9 -nodes 200 -steps 4000 -warmup 1000
//	repro -exp fig12 -full          # paper-scale (slow)
//
// Quick scale (default) runs each experiment on scaled-down synthetic
// datasets in seconds-to-minutes; -full restores the paper's node/step
// counts and parameter grids, which takes hours.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"orcf/internal/exp"
)

type runner func(exp.Options) (*exp.Table, error)

func experiments() map[string]runner {
	return map[string]runner{
		"fig1":  exp.Fig1,
		"fig3":  exp.Fig3,
		"fig4":  exp.Fig4,
		"fig5":  exp.Fig5,
		"tab1":  exp.Table1,
		"fig6":  exp.Fig6,
		"fig7":  exp.Fig7,
		"fig8":  exp.Fig8,
		"fig9":  exp.Fig9,
		"tab2":  exp.Table2,
		"fig10": exp.Fig10,
		"tab3":  exp.Table3,
		"fig11": exp.Fig11,
		"fig12": exp.Fig12,
		"tab4":  exp.Table4,
		// Beyond the paper: ablations of this implementation's design
		// choices (see the paper-equation-to-package map in
		// docs/ARCHITECTURE.md).
		"ablation": exp.Ablations,
	}
}

// order lists experiments in paper order for -exp all.
var order = []string{
	"fig1", "fig3", "fig4", "fig5", "tab1", "fig6", "fig7",
	"fig8", "fig9", "tab2", "fig10", "tab3", "fig11", "fig12", "tab4",
	"ablation",
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		which   = flag.String("exp", "", "experiment id (fig1, fig3-fig12, tab1-tab4) or 'all'")
		nodes   = flag.Int("nodes", 0, "nodes per dataset (0 = default 80; with -full, paper scale)")
		steps   = flag.Int("steps", 0, "steps per dataset (0 = default 1500; with -full, paper scale)")
		warmup  = flag.Int("warmup", 0, "initial collection phase (0 = default 500)")
		seed    = flag.Uint64("seed", 1, "random seed")
		full    = flag.Bool("full", false, "paper-scale configuration (slow)")
		every   = flag.Int("forecast-every", 0, "forecast scoring stride (0 = default 10)")
		epochs  = flag.Int("lstm-epochs", 0, "LSTM training epochs per fit (0 = default 10)")
		fitWin  = flag.Int("fit-window", 0, "history cap per model fit (0 = default 400)")
		listAll = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	exps := experiments()
	if *listAll {
		ids := make([]string, 0, len(exps))
		for id := range exps {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Println(id)
		}
		return 0
	}
	if *which == "" {
		fmt.Fprintln(os.Stderr, "missing -exp; use -list for available experiments")
		flag.Usage()
		return 2
	}

	opts := exp.Options{
		Nodes: *nodes, Steps: *steps, Warmup: *warmup, Seed: *seed,
		Full: *full, ForecastEvery: *every, LSTMEpochs: *epochs,
		FitWindow: *fitWin,
	}

	ids := []string{*which}
	if *which == "all" {
		ids = order
	}
	for _, id := range ids {
		fn, ok := exps[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
			return 2
		}
		start := time.Now()
		tab, err := fn(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			return 1
		}
		fmt.Println(tab)
		fmt.Printf("(%s completed in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
	return 0
}
