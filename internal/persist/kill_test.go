package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"orcf/internal/core"
)

// killChildDir names the environment variable that turns
// TestRecoverAfterSIGKILL into its own stepping child: a collector that
// recovers the state directory it names and steps to killSteps.
const killChildDir = "ORCF_PERSIST_KILL_CHILD_DIR"

const (
	killSteps           = 120
	killCheckpointEvery = 25
)

// TestRecoverAfterSIGKILL crashes a real process. It runs this test binary
// as a child that steps testConfig under a Manager (WAL every step, a
// background checkpoint every 25), waits for the child's first checkpoint
// file, kills it with SIGKILL, runs the child again to completion, and then
// recovers the directory in-process: the exported state must equal an
// uninterrupted run's. The inputs are a function of the step index, so the
// restarted child regenerates exactly what the killed one consumed.
func TestRecoverAfterSIGKILL(t *testing.T) {
	if dir := os.Getenv(killChildDir); dir != "" {
		killChild(t, dir)
		return
	}
	if testing.Short() {
		t.Skip("runs two child processes; skipped under -short")
	}
	dir := t.TempDir()
	child := func() *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRecoverAfterSIGKILL$", "-test.count=1")
		cmd.Env = append(os.Environ(), killChildDir+"="+dir)
		cmd.Stderr = os.Stderr
		return cmd
	}

	first := child()
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		ckpts, err := listSteps(dir, "ckpt-", ".ckpt")
		if err != nil {
			first.Process.Kill()
			first.Wait()
			t.Fatal(err)
		}
		if len(ckpts) > 0 {
			break
		}
		if time.Now().After(deadline) {
			first.Process.Kill()
			first.Wait()
			t.Fatal("the child wrote no checkpoint in 30 s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := first.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	var exit *exec.ExitError
	if err := first.Wait(); !errors.As(err, &exit) ||
		exit.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("the child was not killed mid-run: %v", err)
	}

	second := child()
	var out bytes.Buffer
	second.Stdout = &out
	if err := second.Run(); err != nil {
		t.Fatalf("restarted child: %v\n%s", err, out.String())
	}
	var resumed int
	for _, line := range strings.Split(out.String(), "\n") {
		if _, err := fmt.Sscanf(line, "child resumed at step %d", &resumed); err == nil {
			break
		}
	}
	if resumed < killCheckpointEvery || resumed >= killSteps {
		t.Fatalf("restarted child resumed at step %d, want a step in [%d, %d)\n%s",
			resumed, killCheckpointEvery, killSteps, out.String())
	}

	m := newManager(t, dir, Options{CheckpointEvery: -1})
	defer m.Close()
	info, err := m.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Steps != killSteps {
		t.Fatalf("recovered %+v, want step %d", info, killSteps)
	}
	ref, err := core.NewSystem(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	for step := 1; step <= killSteps; step++ {
		if _, err := ref.Step(testInput(cfg.Nodes, cfg.Resources, step)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := m.sys.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*core.State{got, want} {
		for _, e := range st.Ensembles {
			e.TrainTime = 0 // wall clock
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("state recovered after SIGKILL differs from an uninterrupted run")
	}
}

// killChild is the stepping child: it recovers dir, reports the step it
// resumed at, and steps to killSteps at a pace slow enough to be killed
// between checkpoints.
func killChild(t *testing.T, dir string) {
	m := newManager(t, dir, Options{CheckpointEvery: killCheckpointEvery})
	defer m.Close()
	info, err := m.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("child resumed at step %d\n", info.Steps)
	cfg := testConfig()
	for step := info.Steps + 1; step <= killSteps; step++ {
		if _, err := m.Step(testInput(cfg.Nodes, cfg.Resources, step)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRecoverAfterRejectedStep pins that a step rejected for too few present
// members leaves no trace in the WAL's numbering: the next logged record
// follows the last one, so recovery replays the log to its end instead of
// stopping at a gap.
func TestRecoverAfterRejectedStep(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cfg := core.Config{Resources: 2, InitialCollection: 5, RetrainEvery: 4, Seed: 3}
	open := func() (*Manager, *RecoveryInfo) {
		t.Helper()
		sys, err := core.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(sys, cfg, Options{Dir: dir, CheckpointEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		info, err := m.Recover(nil)
		if err != nil {
			t.Fatal(err)
		}
		return m, info
	}
	m, _ := open()
	if err := m.sys.AddNodes(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(testInput(2, cfg.Resources, 1)); !errors.Is(err, core.ErrBadInput) {
		t.Fatalf("two members at K=3: want ErrBadInput, got %v", err)
	}
	if err := m.sys.AddNodes(2, 3); err != nil {
		t.Fatal(err)
	}
	const steps = 12
	for step := 1; step <= steps; step++ {
		if _, err := m.Step(testInput(4, cfg.Resources, step)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	want, err := m.sys.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	re, info := open()
	defer re.Close()
	if info.Steps != steps || info.ReplayedSteps != steps || info.TornTail {
		t.Fatalf("recovery %+v, want all %d logged steps replayed", info, steps)
	}
	got, err := re.sys.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*core.State{got, want} {
		for _, e := range st.Ensembles {
			e.TrainTime = 0 // wall clock
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("replayed state differs from the live run")
	}
}
