// Command perfbench is the repository benchmark. It runs one workload
// (campaign, feedback or fleet) for a fixed number of seconds, checks every
// report it produces, and prints its metrics: with -trace 0 the end-to-end
// metrics of an untraced run, with -trace 1 the per-layer metrics of a run
// that times calls into each layer from outside. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 60, "failed": 0, "metrics": {"setup_s": {"value": 0.41, "unit": "s"}, ...}}
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// scratchDir holds the temporary stores of the run and its span log,
// relative to the repository root the benchmark runs from.
const scratchDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: campaign, feedback or fleet")
	seed := fs.Int64("seed", 1, "workload seed: orders the campaign pool")
	seconds := fs.Int("seconds", 30, "seconds to measure")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if poolSize(*workload) == 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload campaign|feedback|fleet, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b := &bench{workload: *workload, seed: *seed, chk: newChecker()}
	d := time.Duration(*seconds) * time.Second

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d cpu=%q\n",
		*workload, *seed, *seconds, *traceFlag, runtime.NumCPU(), cpuModel())
	setupCPU, setupWall := b.setup()
	if *traceFlag == 0 {
		w := b.measure(d, false)
		b.verify(w)
		res := endToEndResult(*workload, setupCPU, setupWall, w, b.chk)
		printResult(stdout, res, endToEnd, b.chk)
		return 0
	}
	// Traced: an untraced half and a traced half over the same schedule,
	// so their ratio is the tracing overhead.
	base := b.measure(d/2, false)
	b.rec = newRecorder()
	w := b.measure(d/2, true)
	if *workload == "fleet" {
		if err := b.fleetSample(w); err != nil {
			b.chk.attempted++
			b.chk.fail("fleet sample campaign: %v", err)
		}
	}
	b.verify(base)
	res := layerResult(*workload, base, w, b.rec)
	path := filepath.Join(scratchDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
	if err := writeJSONL(path, b.rec.closed()); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res.note("spans written to %s", path)
	printResult(stdout, res, perLayer, b.chk)
	return 0
}

// verify runs the checks that need a campaign of their own.
func (b *bench) verify(w *window) {
	if b.workload != "fleet" {
		b.storeRerun(w)
	}
}

// printResult prints the notes and every metric of defs as text, then the
// JSON result line.
func printResult(w io.Writer, r *result, defs []metricDef, chk *checker) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		v := r.values[d.Name]
		ms[d.Name] = value{Value: v, Unit: d.Unit}
		line := fmt.Sprintf("%-26s %14.6g %-6s (%s is better)", d.Name, v, d.Unit, d.Better)
		if why, ok := r.absent[d.Name]; ok {
			line = fmt.Sprintf("%-26s %14s %-6s absent: %s", d.Name, "-", d.Unit, why)
		}
		fmt.Fprintln(w, line)
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{chk.failed == 0 && chk.attempted > 0, chk.attempted, chk.failed, ms})
	if err != nil {
		fmt.Fprintf(w, "perfbench: encode result: %v\n", err)
		return
	}
	fmt.Fprintln(w, string(out))
}

// cpuModel reads the CPU model name, or "" where /proc/cpuinfo is absent.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
