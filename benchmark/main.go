// Command benchmark is the repository's benchmark: seven fixed workloads
// over the public API of the meshgnn library, each checked for correct
// outputs, reporting end-to-end metrics from untraced runs and per-layer
// metrics from traced ones. BENCHMARK.json at the repository root is its
// manifest; README.md in this directory explains the choices.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

// record is one run as -out stores it and -compare reads it.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Set      int     `json:"set"`
	Result   result  `json:"result"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed     = fs.Int64("seed", 1, "seed of the generated inputs: snapshot times and arrival schedule")
		seconds  = fs.Float64("seconds", defaultSeconds, "how long the run measures")
		trace    = fs.Int("trace", 0, "1 records spans and reports the per-layer metrics; 0 reports the end-to-end metrics")
		traceOut = fs.String("trace-out", "", "with -trace 1: file to write the spans to")
		out      = fs.String("out", "", "file to append each run's record to, one JSON object per line")
		smoke    = fs.Bool("smoke", false, "shrink the workloads to tiny shapes (a harness check, not a measurement)")
		compare  = fs.Bool("compare", false, "compare two -out files given as arguments")
		sets     = fs.Int("sets", 0, "with -runs: run this many sets back to back and compare the first two")
		runs     = fs.Int("runs", 3, "untraced runs per workload in a set (each set adds one traced run)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two files"))
		}
		a, err := readRecords(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readRecords(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !compareSets(stdout, a, b) {
			return 1
		}
		return 0
	case *sets > 0:
		recs, err := runSets(*workload, *sets, *runs, *seed, *seconds, *smoke, stderr)
		if err != nil {
			return fail(err)
		}
		if *out != "" {
			if err := appendRecords(*out, recs); err != nil {
				return fail(err)
			}
		}
		if *sets >= 2 && !compareSets(stdout, bySet(recs, 0), bySet(recs, 1)) {
			return 1
		}
		return 0
	case *workload == "all":
		code := 0
		for _, name := range workloadNames() {
			rec, err := runChild(name, *seed, *seconds, *trace != 0, *smoke, stdout, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				code = 1
				continue
			}
			if *out != "" {
				if err := appendRecords(*out, []record{rec}); err != nil {
					return fail(err)
				}
			}
		}
		return code
	}

	sp, ok := findWorkload(*workload)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q; have %s", *workload, strings.Join(workloadNames(), ", ")))
	}
	if *seconds <= 0 {
		return fail(fmt.Errorf("-seconds must be positive"))
	}
	if *smoke {
		sp = sp.smoke()
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace != 0, traceOut: *traceOut}
	rep, err := runWorkload(sp, o)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", sp.name, err))
	}
	res := rep.result(o.trace)
	printRun(stdout, sp, o, rep, res)
	if *out != "" {
		rec := record{Workload: sp.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Result: res}
		if err := appendRecords(*out, []record{rec}); err != nil {
			return fail(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, sp := range workloads() {
		names = append(names, sp.name)
	}
	return names
}

func runWorkload(sp spec, o options) (*report, error) {
	if sp.kind == kindTrain {
		return runTrain(sp, o)
	}
	return runServe(sp, o)
}

// result shapes a report as the contract's result object: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func (r *report) result(traced bool) result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	return result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: fill(defs, r.values)}
}

// printRun prints every metric of the run by name, with its unit.
func printRun(w io.Writer, sp spec, o options, rep *report, res result) {
	mode, defs := "untraced, end-to-end metrics", endToEnd
	if o.trace {
		mode, defs = "traced, per-layer metrics", perLayer
	}
	fmt.Fprintf(w, "%s  seed %d  %gs  %s\n", sp.name, o.seed, o.seconds, mode)
	fmt.Fprintf(w, "  operations attempted %d, failed %d, outputs correct: %v\n", res.Attempted, res.Failed, res.Correct)
	for _, n := range rep.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
}

// runChild runs one workload in a process of its own: the thread count
// is process-wide and the memory high-water mark must not carry over from
// one workload to the next. The child's report goes to stdout; its last
// line is parsed back.
func runChild(name string, seed int64, seconds float64, traced, smoke bool, stdout, stderr io.Writer) (record, error) {
	exe, err := os.Executable()
	if err != nil {
		return record{}, err
	}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", traceArg}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	outBytes, err := cmd.Output()
	if stdout != nil {
		stdout.Write(outBytes)
	}
	if err != nil {
		return record{}, fmt.Errorf("%s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
	rec := record{Workload: name, Seed: seed, Seconds: seconds, Trace: traced}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
		return record{}, fmt.Errorf("%s: result line: %w", name, err)
	}
	return rec, nil
}

// runSets runs the workloads in sets back to back: per set and workload,
// runs untraced runs and one traced run, all with the same seed.
func runSets(workload string, sets, runs int, seed int64, seconds float64, smoke bool, stderr io.Writer) ([]record, error) {
	names := workloadNames()
	if workload != "" && workload != "all" {
		if _, ok := findWorkload(workload); !ok {
			return nil, fmt.Errorf("unknown workload %q", workload)
		}
		names = []string{workload}
	}
	var recs []record
	for set := 0; set < sets; set++ {
		for _, name := range names {
			for i := 0; i <= runs; i++ {
				traced := i == runs
				fmt.Fprintf(stderr, "set %d  %s  run %d  traced=%v\n", set, name, i, traced)
				rec, err := runChild(name, seed, seconds, traced, smoke, nil, stderr)
				if err != nil {
					return nil, err
				}
				rec.Set = set
				recs = append(recs, rec)
			}
		}
	}
	return recs, nil
}

func bySet(recs []record, set int) []record {
	var out []record
	for _, r := range recs {
		if r.Set == set {
			out = append(out, r)
		}
	}
	return out
}

func appendRecords(path string, recs []record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	dec := json.NewDecoder(f)
	for dec.More() {
		var r record
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}
