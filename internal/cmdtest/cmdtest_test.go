// Package cmdtest smoke-tests the cmd/ binaries end to end: each is
// compiled with the local toolchain and run on a tiny mesh, including the
// -procs multi-process launcher path and the cross-transport consistency
// harness (the CI assertion behind the paper's consistency claim holding
// across the process boundary). It also vets and tests the benchmark
// module, which go test ./... does not otherwise reach.
package cmdtest

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// binaries compiled for the smoke tests.
var commands = []string{"train", "scaling", "consistency", "meshinfo", "serve", "chaos"}

// build compiles the cmd binaries once per test process.
func build(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "meshgnn-cmdtest-")
		if buildErr != nil {
			return
		}
		for _, name := range commands {
			cmd := exec.Command("go", "build", "-o",
				filepath.Join(buildDir, name), "./cmd/"+name)
			cmd.Dir = moduleRoot()
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = &buildFailure{name: name, out: string(out), err: err}
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildDir
}

type buildFailure struct {
	name string
	out  string
	err  error
}

func (b *buildFailure) Error() string {
	return "building cmd/" + b.name + ": " + b.err.Error() + "\n" + b.out
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "."
		}
		dir = parent
	}
}

// runCmd executes one built binary and returns its combined output.
func runCmd(t *testing.T, name string, args ...string) string {
	t.Helper()
	bin := filepath.Join(build(t), name)
	cmd := exec.Command(bin, args...)
	cmd.Dir = t.TempDir() // any dropped files land in scratch space
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
	}
	return string(out)
}

func TestTrainSmoke(t *testing.T) {
	out := runCmd(t, "train", "-elems", "2", "-p", "1", "-ranks", "2", "-iters", "2")
	if !strings.Contains(out, "consistent-loss") || !strings.Contains(out, "final loss") {
		t.Fatalf("unexpected train output:\n%s", out)
	}
}

// TestTrainProcsLauncher exercises the -procs re-exec path: 2 OS-process
// ranks over the socket transport, and checks the trajectory matches the
// goroutine-rank run exactly (the loss table is printed to full
// precision of its format, so textual equality is a real check).
func TestTrainProcsLauncher(t *testing.T) {
	argsCommon := []string{"-elems", "2", "-p", "1", "-iters", "3"}
	inproc := runCmd(t, "train", append([]string{"-ranks", "2"}, argsCommon...)...)
	procs := runCmd(t, "train", append([]string{"-procs", "2"}, argsCommon...)...)
	tail := func(s string) string {
		i := strings.Index(s, "iteration")
		// The per-phase timing breakdown that follows the loss table is
		// wall-clock and legitimately differs between runs.
		j := strings.Index(s, "per-step phase breakdown")
		if i < 0 || j < i {
			t.Fatalf("no loss table in output:\n%s", s)
		}
		return s[i:j]
	}
	if tail(inproc) != tail(procs) {
		t.Fatalf("-procs trajectory differs from -ranks:\n--- in-process:\n%s\n--- procs:\n%s",
			tail(inproc), tail(procs))
	}
}

func TestTrainSaveLoadCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "model.bin")
	out := runCmd(t, "train", "-elems", "2", "-p", "1", "-ranks", "1", "-iters", "2", "-save", ckpt)
	if !strings.Contains(out, "checkpoint written") {
		t.Fatalf("no checkpoint confirmation:\n%s", out)
	}
	out = runCmd(t, "train", "-elems", "2", "-p", "1", "-ranks", "1", "-iters", "1", "-load", ckpt)
	if !strings.Contains(out, "initialized from checkpoint") {
		t.Fatalf("checkpoint not loaded:\n%s", out)
	}
}

func TestScalingProjectedSmoke(t *testing.T) {
	out := runCmd(t, "scaling", "-rmax", "8")
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "weak scaling") {
		t.Fatalf("unexpected scaling output:\n%s", out)
	}
}

func TestScalingProcsLauncher(t *testing.T) {
	out := runCmd(t, "scaling", "-procs", "2", "-elems", "2", "-p", "2", "-iters", "1")
	if !strings.Contains(out, "process tier") || !strings.Contains(out, "nodes/rank") {
		t.Fatalf("unexpected scaling -procs output:\n%s", out)
	}
}

// TestConsistencyCrossTransport is the CI assertion of the acceptance
// criterion: a 4-rank in-process run and a 4-process socket run of the
// same seeded training must agree bitwise on losses, parameters, and
// checkpoints (max |Δ| == 0).
func TestConsistencyCrossTransport(t *testing.T) {
	out := runCmd(t, "consistency", "-transport=both", "-procs", "4",
		"-elems", "2", "-p", "1", "-iters", "5")
	for _, want := range []string{
		"max |Δ| losses      = 0 (0 differing bit patterns",
		"max |Δ| parameters  = 0 (0 differing bit patterns)",
		"identical=true",
		"bitwise identical",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("consistency -transport=both output missing %q:\n%s", want, out)
		}
	}
}

// TestConsistencyOverlap is the CI assertion of the overlap acceptance
// criterion: synchronous and overlapped training of the same seeded model
// (the overlapped side on both the channel and socket fabric) must agree
// bitwise on losses, parameters, and checkpoints.
func TestConsistencyOverlap(t *testing.T) {
	out := runCmd(t, "consistency", "-overlap=both", "-procs", "4",
		"-elems", "2", "-p", "1", "-iters", "5")
	for _, want := range []string{
		"max |Δ| losses      = 0 (0 differing bit patterns",
		"max |Δ| parameters  = 0 (0 differing bit patterns)",
		"identical=true",
		"bitwise identical",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("consistency -overlap=both output missing %q:\n%s", want, out)
		}
	}
}

// TestTrainOverlapMatchesSync runs cmd/train with and without -overlap
// and requires identical loss tables (printed at full format precision).
func TestTrainOverlapMatchesSync(t *testing.T) {
	argsCommon := []string{"-elems", "2", "-p", "1", "-ranks", "2", "-iters", "3"}
	sync := runCmd(t, "train", argsCommon...)
	over := runCmd(t, "train", append([]string{"-overlap"}, argsCommon...)...)
	table := func(s string) string {
		i := strings.Index(s, "iteration")
		j := strings.Index(s, "per-step phase breakdown")
		if i < 0 || j < i {
			t.Fatalf("no loss table in output:\n%s", s)
		}
		return s[i:j]
	}
	if table(sync) != table(over) {
		t.Fatalf("-overlap trajectory differs:\n--- sync:\n%s\n--- overlap:\n%s", table(sync), table(over))
	}
	if !strings.Contains(over, "halo") || !strings.Contains(over, "exposed") {
		t.Fatalf("train output missing halo breakdown:\n%s", over)
	}
}

func TestConsistencyFig6Smoke(t *testing.T) {
	out := runCmd(t, "consistency", "-elems", "2", "-p", "1", "-rmax", "2")
	if !strings.Contains(out, "Fig. 6 (left)") {
		t.Fatalf("unexpected consistency output:\n%s", out)
	}
}

// TestServeSmoke runs the inference serving driver on a tiny mesh: the
// engine must report bitwise parity with the training forward, the
// per-step comparison, the latency profile, and the facade request API.
func TestServeSmoke(t *testing.T) {
	out := runCmd(t, "serve", "-elems", "2", "-p", "1", "-ranks", "2",
		"-requests", "5", "-rollout", "2")
	for _, want := range []string{
		"bitwise-equal to Model.Forward (0 differing bit patterns)",
		"training forward step",
		"inference step",
		"speedup",
		"throughput",
		"p99",
		"rollout",
		"request API (System.Serve)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("serve output missing %q:\n%s", want, out)
		}
	}
}

// TestServeProcsLauncher exercises serve's -procs re-exec path: 2
// OS-process ranks over the socket fabric must still serve predictions
// bitwise-equal to the training forward.
func TestServeProcsLauncher(t *testing.T) {
	out := runCmd(t, "serve", "-procs", "2", "-elems", "2", "-p", "1",
		"-requests", "3", "-rollout", "2")
	for _, want := range []string{
		"bitwise-equal to Model.Forward (0 differing bit patterns)",
		"inference step",
		"throughput",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("serve -procs output missing %q:\n%s", want, out)
		}
	}
}

// TestServeWritesPoint checks the -o JSON serving-point artifact.
func TestServeWritesPoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "point.json")
	out := runCmd(t, "serve", "-elems", "2", "-p", "1", "-ranks", "1",
		"-requests", "3", "-rollout", "0", "-o", path)
	if !strings.Contains(out, "serving point written") {
		t.Fatalf("no JSON confirmation:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"infer_ns_per_step", "train_forward_ns_per_step", "parity_diff_bits"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("serving point missing %q:\n%s", want, data)
		}
	}
	// Every request's latency is kept, so the profile is ordered exactly.
	var pt struct {
		Mean float64 `json:"latency_mean_ns"`
		P50  float64 `json:"latency_p50_ns"`
		P99  float64 `json:"latency_p99_ns"`
		Max  float64 `json:"latency_max_ns"`
	}
	if err := json.Unmarshal(data, &pt); err != nil {
		t.Fatalf("parsing serving point: %v\n%s", err, data)
	}
	if !(0 < pt.P50 && pt.P50 <= pt.P99 && pt.P99 <= pt.Max && pt.Mean <= pt.Max) {
		t.Fatalf("latency profile out of order: mean %v p50 %v p99 %v max %v", pt.Mean, pt.P50, pt.P99, pt.Max)
	}
}

// TestChaosSmoke runs the fault-injection harness end to end: every
// targeted scenario (delays, corruption, peer death, drops, serving-rank
// panic) plus a couple of seeded random schedules must honor the
// documented failure contract — clean classified errors, bounded
// recovery, never a hang, never a wrong bitwise answer.
func TestChaosSmoke(t *testing.T) {
	out := runCmd(t, "chaos", "-seeds", "2")
	if !strings.Contains(out, "honored the failure contract") {
		t.Fatalf("chaos harness did not report success:\n%s", out)
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("chaos harness reported a failing scenario:\n%s", out)
	}
}

func TestMeshinfoSmoke(t *testing.T) {
	out := runCmd(t, "meshinfo", "-ex", "2", "-ey", "2", "-ez", "2", "-p", "1", "-ranks", "2")
	if len(strings.TrimSpace(out)) == 0 {
		t.Fatal("meshinfo produced no output")
	}
}

// TestBenchmarkModule vets and tests the repository benchmark, a Go module
// of its own under benchmark/ that compiles against meshgnn/internal/...:
// a library change that breaks its build or its bitwise gates fails here.
func TestBenchmarkModule(t *testing.T) {
	dir := filepath.Join(moduleRoot(), "benchmark")
	for _, args := range [][]string{{"vet", "."}, {"test", "-short", "-count=1", "."}} {
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in benchmark/: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
