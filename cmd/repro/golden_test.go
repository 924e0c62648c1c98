package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"orcf/internal/exp"
)

// golden is one experiment pinned in testdata/<exp>.golden and the scale it
// was generated at: what `repro -exp <exp>` prints with those flags, minus
// its "(… completed in …)" line. To move a golden on purpose, regenerate it
// with the same flags:
//
//	go run ./cmd/repro -exp fig3 -nodes 40 -steps 800 -warmup 300 | sed '/^(.* completed in .*)$/d' > cmd/repro/testdata/fig3.golden
type golden struct {
	exp  string
	opts exp.Options
}

var (
	small = exp.Options{Nodes: 40, Steps: 800, Warmup: 300, Seed: 1}                // -nodes 40 -steps 800 -warmup 300
	lstm  = exp.Options{Nodes: 24, Steps: 600, Warmup: 300, Seed: 1, LSTMEpochs: 2} // -nodes 24 -steps 600 -warmup 300 -lstm-epochs 2
	// goldens is every experiment but tab2 and tab4, which print timings.
	goldens = []golden{
		{"fig1", small}, {"fig3", small}, {"fig4", small}, {"fig5", small}, {"tab1", small},
		{"fig6", small}, {"fig7", small}, {"fig8", lstm}, {"fig9", lstm}, {"tab3", small},
		{"fig10", small}, {"fig11", small}, {"fig12", small}, {"ablation", small},
	}
)

// TestGoldens reruns every pinned experiment and compares its table byte for
// byte, once at GOMAXPROCS 1, so that every worker pool's serial path is
// checked, and once at the process's width: the output must not depend on
// the pool width. The goldens are linux/amd64 output, the platform CI runs
// on. Not parallel: it sets GOMAXPROCS. Skipped under -short, where the race
// pass would take minutes over it.
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduction goldens run without -short")
	}
	exps := experiments()
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			for _, g := range goldens {
				t.Run(g.exp, func(t *testing.T) {
					want, err := os.ReadFile(filepath.Join("testdata", g.exp+".golden"))
					if err != nil {
						t.Fatal(err)
					}
					tab, err := exps[g.exp](g.opts)
					if err != nil {
						t.Fatal(err)
					}
					// repro prints the table, the wall-time line and a blank line.
					if got := []byte(fmt.Sprintln(tab) + "\n"); !bytes.Equal(got, want) {
						t.Fatalf("%s differs from testdata/%s.golden:\n%s", g.exp, g.exp, got)
					}
				})
			}
		})
	}
}
