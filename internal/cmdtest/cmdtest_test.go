// Package cmdtest smoke-tests the cmd/ binaries and the examples end to
// end: each is compiled with the local toolchain and run on a tiny mesh,
// including the -procs multi-process launcher path and the cross-transport
// consistency harness (the CI assertion behind the paper's consistency
// claim holding across the process boundary); the examples' printed
// results are held to what they demonstrate. It also vets and tests the
// benchmark module, which go test ./... does not otherwise reach, and holds
// every -run pattern of the CI workflow to the tests it names.
package cmdtest

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// programs compiled for the smoke tests; each binary is named after the
// last element of its package path.
var programs = []string{"cmd/train", "cmd/scaling", "cmd/consistency", "cmd/meshinfo",
	"cmd/chaos", "examples/quickstart", "examples/insitu"}

// build compiles the programs once per test process.
func build(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "meshgnn-cmdtest-")
		if buildErr != nil {
			return
		}
		for _, pkg := range programs {
			cmd := exec.Command("go", "build", "-o",
				filepath.Join(buildDir, filepath.Base(pkg)), "./"+pkg)
			cmd.Dir = moduleRoot()
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = &buildFailure{pkg: pkg, out: string(out), err: err}
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
	pkg string
	out string
	err error
}

func (b *buildFailure) Error() string {
	return "building " + b.pkg + ": " + b.err.Error() + "\n" + b.out
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

// TestScalingMeasuredSmoke runs the default scaling command: Table I,
// then the measured tier's none / A2A / N-A2A rows at R = 1, 2, 4, 8.
func TestScalingMeasuredSmoke(t *testing.T) {
	out := runCmd(t, "scaling", "-elems", "2", "-p", "1", "-iters", "1")
	for _, want := range []string{"Table I", "| small | 8 | 4 | 2 | 3979 |", "| large | 32 | 4 | 5 | 91459 |",
		"Fig. 7 (measured tier)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("scaling output missing %q:\n%s", want, out)
		}
	}
	for _, r := range []string{"1", "2", "4", "8"} {
		for _, mode := range []string{"none", "A2A", "N-A2A"} {
			if row := "| small | " + mode + " | off | " + r + " | "; !strings.Contains(out, row) {
				t.Fatalf("scaling output missing the %s row at R=%s:\n%s", mode, r, out)
			}
		}
	}
}

// TestScalingRejectsBadSizes: -iters, -p and -elems below their minimum
// fail with a message naming the flag, before any table is printed.
func TestScalingRejectsBadSizes(t *testing.T) {
	bin := filepath.Join(build(t), "scaling")
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-iters", []string{"-iters", "0", "-elems", "2", "-p", "1"}},
		{"-iters", []string{"-procs", "2", "-iters", "0", "-elems", "2", "-p", "1"}},
		{"-p", []string{"-p", "0", "-elems", "2", "-iters", "1"}},
		{"-elems", []string{"-elems", "1", "-p", "1", "-iters", "1"}},
	} {
		cmd := exec.Command(bin, c.args...)
		cmd.Dir = t.TempDir()
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("scaling %s succeeded:\n%s", strings.Join(c.args, " "), out)
			continue
		}
		if s := string(out); !strings.Contains(s, c.flag+" must be") || strings.Contains(s, "Table I") ||
			strings.Contains(s, "panic") {
			t.Errorf("scaling %s: want a %s refusal before any output, got:\n%s",
				strings.Join(c.args, " "), c.flag, out)
		}
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
// same seeded training must agree bitwise on losses, parameters,
// checkpoints and served predictions (max |Δ| == 0), and on each side
// the served engine must match Model.Forward on every rank.
func TestConsistencyCrossTransport(t *testing.T) {
	out := runCmd(t, "consistency", "-transport=both", "-procs", "4",
		"-elems", "2", "-p", "1", "-iters", "5")
	assertConsistent(t, out, 2)
}

// TestConsistencyOverlap is the CI assertion of the overlap acceptance
// criterion: synchronous and overlapped training of the same seeded model
// (the overlapped side on both the channel and socket fabric) must agree
// bitwise on losses, parameters, checkpoints and served predictions, and
// every side must serve what Model.Forward computes.
func TestConsistencyOverlap(t *testing.T) {
	out := runCmd(t, "consistency", "-overlap=both", "-procs", "4",
		"-elems", "2", "-p", "1", "-iters", "5")
	assertConsistent(t, out, 3)
}

// servedLine is the served-engine report of one side of a consistency
// harness; its groups are the differing float64 bits and the float32
// engine's relative error.
var servedLine = regexp.MustCompile(`(?m)^  .+: served (\d+) differing float64 bits vs Model\.Forward, float32 max rel error (\S+) \(gate 0\.01\)$`)

// assertConsistent holds a consistency harness's output over sides runs
// to bitwise agreement between them and to a served engine that, on
// every side, matches Model.Forward bit for bit and keeps its float32
// compile within the gate.
func assertConsistent(t *testing.T, out string, sides int) {
	t.Helper()
	// One of each per comparison with the reference side.
	for _, want := range []string{
		"max |Δ| losses      = 0 (0 differing bit patterns",
		"max |Δ| parameters  = 0 (0 differing bit patterns)",
		"identical=true",
		"max |Δ| served      = 0 (0 differing bit patterns",
	} {
		if n := strings.Count(out, want); n != sides-1 {
			t.Fatalf("consistency output has %q %d times, want %d:\n%s", want, n, sides-1, out)
		}
	}
	if !strings.Contains(out, "bitwise identical") {
		t.Fatalf("consistency output has no verdict:\n%s", out)
	}
	served := servedLine.FindAllStringSubmatch(out, -1)
	if len(served) != sides {
		t.Fatalf("%d served lines for %d sides:\n%s", len(served), sides, out)
	}
	for _, m := range served {
		rel, err := strconv.ParseFloat(m[2], 64)
		if m[1] != "0" || err != nil || !(rel <= 0.01) {
			t.Fatalf("served engine out of bounds: %q\n%s", m[0], out)
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

// number returns the float that re captures (its first group) in out.
func number(t *testing.T, out string, re *regexp.Regexp) float64 {
	t.Helper()
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("output has no match for %s:\n%s", re, out)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("%s: %v", re, err)
	}
	return v
}

// TestQuickstartExample runs examples/quickstart: the 4-rank outputs must
// equal the single-rank ones to roundoff (paper Eq. 2), and the training
// loss must fall.
func TestQuickstartExample(t *testing.T) {
	out := runCmd(t, "quickstart")
	if d := number(t, out, regexp.MustCompile(`max \|Y\(R=4\) - Y\(R=1\)\| = (\S+)`)); d > 1e-12 {
		t.Fatalf("partitioned outputs deviate by %g:\n%s", d, out)
	}
	iters := regexp.MustCompile(`(?m)^\s+iter\s+\d+: (\S+)$`).FindAllStringSubmatch(out, -1)
	if len(iters) < 2 {
		t.Fatalf("no loss curve in output:\n%s", out)
	}
	first, err1 := strconv.ParseFloat(iters[0][1], 64)
	last, err2 := strconv.ParseFloat(iters[len(iters)-1][1], 64)
	if err1 != nil || err2 != nil || !(last < first) {
		t.Fatalf("loss did not fall (first %q, last %q):\n%s", iters[0][1], iters[len(iters)-1][1], out)
	}
}

// TestInsituExample runs examples/insitu: the surrogate trained online on
// the solver's stream must track the solver on a held-out step, and the
// reloaded checkpoint must serve finite outputs on a finer mesh.
func TestInsituExample(t *testing.T) {
	out := runCmd(t, "insitu")
	if e := number(t, out, regexp.MustCompile(`held-out surrogate-vs-solver relative L2: (\S+)`)); e > 0.05 {
		t.Fatalf("held-out relative L2 %g above 0.05:\n%s", e, out)
	}
	if !strings.Contains(out, "finite=true") {
		t.Fatalf("reloaded checkpoint served non-finite outputs:\n%s", out)
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
