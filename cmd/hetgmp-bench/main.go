// Command hetgmp-bench regenerates the tables and figures of the HET-GMP
// paper's evaluation on the simulated substrate.
//
// Usage:
//
//	hetgmp-bench [-exp id[,id...]] [-scale f] [-dim n] [-batch n] [-epochs n] [-seed n] [-quick]
//	hetgmp-bench -perf [-perfout file] [-perfscales f,f,...] [-seed n]
//
// With no -exp flag every experiment runs in the paper's order. Experiment
// IDs: fig1, fig3, fig7, fig8, table2, fig9a, fig9b, table3, fig10,
// capacity.
//
// -perf runs the partitioner performance-baseline harness instead of the
// paper experiments: it times the sequential reference greedy against the
// parallel chunked-delta implementation at growing graph scales plus one
// simulated training epoch, and writes the report to -perfout (default
// BENCH_partition.json).
//
// Wall-clock training throughput and memory are measured by the repository
// benchmark instead: go run ./benchmark (see benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"hetgmp/internal/experiments"
	"hetgmp/internal/perfbench"
)

func main() {
	// A zero flag means "experiments.Defaults()"; the help text quotes those
	// values from the same call so the two cannot drift.
	def := experiments.Defaults()
	var (
		expFlag = flag.String("exp", "", "comma-separated experiment IDs (default: all)")
		scale   = flag.Float64("scale", 0, fmt.Sprintf("dataset scale factor (default %g)", def.Scale))
		dim     = flag.Int("dim", 0, fmt.Sprintf("embedding dimension (default %d)", def.Dim))
		batch   = flag.Int("batch", 0, fmt.Sprintf("per-worker batch size (default %d)", def.Batch))
		epochs  = flag.Int("epochs", 0, fmt.Sprintf("training epochs for end-to-end runs (default %d)", def.Epochs))
		seed    = flag.Uint64("seed", 0, fmt.Sprintf("random seed (default %d)", def.Seed))
		quick   = flag.Bool("quick", false, "trim datasets and arms for a fast pass")
		check   = flag.Bool("check", false, "enable runtime invariant checking on every training run")
		list    = flag.Bool("list", false, "list experiment IDs and exit")

		perf       = flag.Bool("perf", false, "run the partitioner perf-baseline harness and exit")
		perfOut    = flag.String("perfout", "BENCH_partition.json", "perf harness report path")
		perfScales = flag.String("perfscales", "", "comma-separated dataset scales for -perf (default 1e-3,2.5e-3,5e-3)")

		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hetgmp-bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "hetgmp-bench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hetgmp-bench: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "hetgmp-bench: %v\n", err)
			}
			f.Close()
		}()
	}

	if *list {
		for _, id := range experiments.Order {
			fmt.Println(id)
		}
		return
	}

	if *perf {
		opts := perfbench.Options{Seed: *seed, TrainEpoch: true}
		if *perfScales != "" {
			for _, s := range strings.Split(*perfScales, ",") {
				v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
				if err != nil {
					fmt.Fprintf(os.Stderr, "hetgmp-bench: bad -perfscales entry %q: %v\n", s, err)
					os.Exit(2)
				}
				opts.Scales = append(opts.Scales, v)
			}
		}
		rep, err := perfbench.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hetgmp-bench: perf: %v\n", err)
			os.Exit(1)
		}
		if err := rep.WriteJSON(*perfOut); err != nil {
			fmt.Fprintf(os.Stderr, "hetgmp-bench: perf: %v\n", err)
			os.Exit(1)
		}
		for _, sr := range rep.Scales {
			fmt.Printf("scale %-8g %8d samples: reference %12d ns/op, chunked %12d ns/op, speedup %.2fx, remote ratio %.4f\n",
				sr.Scale, sr.Samples, sr.Reference.NsPerOp, sr.Chunked.NsPerOp, sr.Speedup, sr.RemoteRatio)
		}
		if rep.Epoch != nil {
			fmt.Printf("epoch at scale %g: %.2fs wall, %d iterations, %d samples, comm fraction %.1f%%\n",
				rep.Epoch.Scale, rep.Epoch.WallSeconds, rep.Epoch.Iterations, rep.Epoch.SamplesProcessed,
				100*rep.Epoch.CommFraction)
			if len(rep.Epoch.Phases) > 0 {
				names := make([]string, 0, len(rep.Epoch.Phases))
				for name := range rep.Epoch.Phases {
					names = append(names, name)
				}
				sort.Strings(names)
				fmt.Printf("  phase breakdown (summed sim s):")
				for _, name := range names {
					fmt.Printf(" %s=%.4g", name, rep.Epoch.Phases[name])
				}
				fmt.Println()
			}
		}
		fmt.Printf("report written to %s (GOMAXPROCS=%d)\n", *perfOut, rep.GOMAXPROCS)
		return
	}

	p := experiments.Params{
		Scale: *scale, Dim: *dim, Batch: *batch,
		Epochs: *epochs, Seed: *seed, Quick: *quick,
		CheckInvariants: *check,
	}

	ids := experiments.Order
	if *expFlag != "" {
		ids = strings.Split(*expFlag, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		run, ok := experiments.Registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "hetgmp-bench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		res, err := run(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hetgmp-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(res.String())
		fmt.Printf("[%s completed in %s]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
