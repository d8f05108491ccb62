// Command benchmark is the repository's wall-clock benchmark: four workloads
// that spend their time in different layers, four end-to-end metrics a user
// of hetgmp-train would see, and a per-layer ledger timed from outside the
// layers — by wrappers handed to the engine through its public config and by
// probes that call a layer's public functions themselves. It is a closed
// loop with one client: each call into the program waits for the previous
// one to return. README.md in this directory says how to read it.
//
// Usage:
//
//	go run ./benchmark                       every workload, both modes, in child processes
//	go run ./benchmark -quick                the same at smoke-test sizes, numbers of no value
//	go run ./benchmark -agree a.json b.json  compare two result files against the bounds
//	go run ./benchmark -workload NAME -seed N -seconds S -trace 0|1
//	                                         one workload in this process; the last line of
//	                                         standard output is the result as one JSON object
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// maxProcs caps GOMAXPROCS: wall-clock scaling beyond a small host's cores
// is not what this benchmark reports, and a fixed cap keeps results from
// hosts of different sizes comparable.
const maxProcs = 4

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
		seed     = flag.Uint64("seed", 22, "seed of the dataset, partition and model generators")
		seconds  = flag.Int("seconds", 20, "how long the timed repetitions of one run go on")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run and the probes")
		quick    = flag.Bool("quick", false, "smoke test: tiny workloads, one repetition, numbers of no value")
		out      = flag.String("out", "benchmark/out", "directory for results, traces and temporary files")
		agree    = flag.Bool("agree", false, "compare the two result files given as arguments; exit 1 unless they agree")
	)
	flag.Parse()
	if *agree {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -agree needs two result files")
			return 2
		}
		return agreeFiles(flag.Arg(0), flag.Arg(1))
	}
	if p := runtime.NumCPU(); p < maxProcs {
		runtime.GOMAXPROCS(p)
	} else {
		runtime.GOMAXPROCS(maxProcs)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *workload == "" {
		return runAll(*seed, *seconds, *quick, *out)
	}
	sp := specByName(*workload)
	if sp == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	if err := runOne(sp, *seed, *seconds, *trace != 0, *quick, *out); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
		return 1
	}
	return 0
}

// resultLine is the last line of a single-workload run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func modeName(traced bool) string {
	if traced {
		return "per_layer"
	}
	return "end_to_end"
}

// runOne measures one workload in this process, so that the peak resident
// set it reports is that workload's alone.
func runOne(sp *spec, seed uint64, seconds int, traced, quick bool, out string) error {
	tmp, err := os.MkdirTemp(out, "tmp-")
	if err != nil {
		return err
	}
	// Spill files and checkpoints go away on every way out: return, error,
	// and the signals a driver stops a run with.
	defer os.RemoveAll(tmp)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(tmp)
		os.Exit(130)
	}()

	p := params{seed: seed, seconds: time.Duration(seconds) * time.Second, setups: 5, minReps: 3, out: out, tmp: tmp}
	if quick {
		sp = sp.quick()
		p.quick, p.seconds, p.setups, p.minReps = true, 0, 1, 1
	}
	measure, defs := measureEndToEnd, endToEnd
	if traced {
		measure, defs = measureLayers, perLayer
	}
	o, err := measure(sp, p)
	if err != nil {
		return err
	}
	printOutcome(sp.name, defs, o)
	data, err := json.Marshal(o)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, sp.name+"."+modeName(traced)+".json"), data, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(resultLine{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: o.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printOutcome(workload string, defs []metricDef, o *outcome) {
	fmt.Printf("%s: %d operations, %d failed\n", workload, o.Attempted, o.Failed)
	for _, f := range o.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	for _, d := range defs {
		v, ok := o.Metrics[d.name]
		if !ok {
			continue
		}
		fmt.Printf("  %-30s %14.6g %-10s", d.name, v.Value, v.Unit)
		if s, ok := o.Spread[d.name]; ok {
			fmt.Printf(" (n=%d, quartiles %.6g … %.6g)", s.N, s.Q1, s.Q3)
		}
		if t, ok := o.Tails[d.name]; ok {
			fmt.Printf(" (p%.0f of n=%d)", t.Percentile, t.N)
		}
		fmt.Println()
	}
	if len(o.Spans) > 0 {
		fmt.Printf("  %-30s %8s %12s %12s\n", "span", "calls", "total s", "self s")
		for _, n := range o.Spans {
			fmt.Printf("  %-30s %8d %12.6f %12.6f\n", n.Name, n.Calls, n.Total, n.Self)
		}
	}
}

// resultFile is what a full run writes and -agree reads.
type resultFile struct {
	Schema int `json:"schema"`
	Meta   struct {
		NumCPU     int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go"`
		Commit     string `json:"commit"`
		Seed       uint64 `json:"seed"`
		Seconds    int    `json:"seconds"`
		Quick      bool   `json:"quick,omitempty"`
	} `json:"meta"`
	OpsTotal  int `json:"ops_total"`
	OpsFailed int `json:"ops_failed"`
	// Workloads maps a workload to its outcome in each mode, keyed
	// "end_to_end" and "per_layer".
	Workloads map[string]map[string]*outcome `json:"workloads"`
}

// commit names the commit the result was measured at: the build's VCS stamp,
// or, under `go run`, which does not stamp, what git says about the working
// directory. A checkout that is not a repository gives "unknown".
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := string(bytes.TrimSpace(head))
	if changes, err := exec.Command("git", "status", "--porcelain").Output(); err != nil || len(changes) > 0 {
		rev += "+uncommitted"
	}
	return rev
}

// collect runs every workload in both modes through measure and sums up the
// operations.
func collect(seed uint64, seconds int, quick bool, measure func(sp *spec, traced bool) *outcome) *resultFile {
	var rf resultFile
	rf.Schema = 1
	rf.Meta.NumCPU, rf.Meta.GOMAXPROCS = runtime.NumCPU(), runtime.GOMAXPROCS(0)
	rf.Meta.GoVersion, rf.Meta.Commit = runtime.Version(), commit()
	rf.Meta.Seed, rf.Meta.Seconds, rf.Meta.Quick = seed, seconds, quick
	rf.Workloads = map[string]map[string]*outcome{}
	for _, sp := range specs {
		rf.Workloads[sp.name] = map[string]*outcome{}
		for _, traced := range []bool{false, true} {
			o := measure(sp, traced)
			rf.Workloads[sp.name][modeName(traced)] = o
			rf.OpsTotal += o.Attempted
			rf.OpsFailed += o.Failed
		}
	}
	return &rf
}

func (rf *resultFile) write(path string) error {
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload in both modes, each in a child process of its
// own, and writes the combined result to out/result.json.
func runAll(seed uint64, seconds int, quick bool, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	rf := collect(seed, seconds, quick, func(sp *spec, traced bool) *outcome {
		return runChild(exe, sp.name, seed, seconds, traced, quick, out)
	})
	path := filepath.Join(out, "result.json")
	if err := rf.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("ops_total %d, ops_failed %d; result in %s\n", rf.OpsTotal, rf.OpsFailed, path)
	if rf.OpsFailed > 0 {
		return 1
	}
	return 0
}

// childTimeout is how long one workload run may take before it is killed;
// a run takes about 20 s.
const childTimeout = 170 * time.Second

// runChild runs one workload and mode in a child process and reads back the
// outcome it wrote. A child that dies, hangs or writes nothing is one failed
// operation carrying the error text.
func runChild(exe, workload string, seed uint64, seconds int, traced, quick bool, out string) *outcome {
	mode := 0
	if traced {
		mode = 1
	}
	path := filepath.Join(out, workload+"."+modeName(traced)+".json")
	os.Remove(path)
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(mode), "-out", out, fmt.Sprintf("-quick=%t", quick))
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = os.Stdout, &stderr
	err := cmd.Run()
	os.Stderr.Write(stderr.Bytes())
	o := newOutcome()
	if err == nil {
		var data []byte
		if data, err = os.ReadFile(path); err == nil {
			err = json.Unmarshal(data, o)
		}
	}
	if err != nil {
		o = newOutcome()
		o.op(workload+" "+modeName(traced), fmt.Errorf("%v: %s", err, bytes.TrimSpace(stderr.Bytes())))
	}
	return o
}
