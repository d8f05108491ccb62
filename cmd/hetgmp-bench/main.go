// Command hetgmp-bench regenerates the tables and figures of the HET-GMP
// paper's evaluation on the simulated substrate.
//
// Usage:
//
//	hetgmp-bench [-exp id[,id...]] [-scale f] [-dim n] [-batch n] [-epochs n] [-seed n] [-quick]
//	hetgmp-bench -perf [-perfout file] [-perfscales f,f,...] [-seed n]
//	hetgmp-bench -perf-train [-perftrainout file] [-perftrainscale f] [-gomaxprocs n,n,...] [-seed n]
//	hetgmp-bench -perf-train-verify file
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
// -perf-train runs the end-to-end training throughput harness: full
// Trainer.Run timings under the Reference execution strategy vs the
// optimized one (persistent pool, arena deltas, parallel commit,
// batch-parallel dense path, pipelined batch prep) at every GOMAXPROCS in
// the -gomaxprocs matrix (default 1,4,8), plus the queue→commit allocation
// microbenchmark, written to -perftrainout (default BENCH_train.json).
// -perf-train-verify checks a committed report against the harness config
// hash, for the CI perf gate.
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

		perfTrain       = flag.Bool("perf-train", false, "run the end-to-end training throughput harness and exit")
		perfTrainOut    = flag.String("perftrainout", "BENCH_train.json", "train harness report path")
		perfTrainScale  = flag.Float64("perftrainscale", 0, "dataset scale for -perf-train (default 2.5e-3)")
		perfTrainProcs  = flag.String("gomaxprocs", "", "comma-separated GOMAXPROCS matrix for -perf-train (default 1,4,8)")
		perfTrainVerify = flag.String("perf-train-verify", "", "verify a committed train report against the harness config and exit")
		memBudget       = flag.Int64("mem-budget", 0, "embedding-value byte budget for -perf-train: the optimized pass runs the tiered store with the hot cache sized to fit (remainder spilled cold)")
		tierHotRows     = flag.Int("tier-hot-rows", 0, "hot-cache rows for -perf-train's tiered optimized pass (overrides -mem-budget sizing)")
		tierColdRows    = flag.Int("tier-cold-rows", 0, "cold-spill rows for -perf-train's tiered optimized pass")

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

	if *perfTrainVerify != "" {
		rep, err := perfbench.VerifyTrainReport(*perfTrainVerify, perfbench.TrainOptions{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hetgmp-bench: perf-train-verify: %v\n", err)
			os.Exit(1)
		}
		if len(rep.Matrix) > 0 {
			procs := make([]string, len(rep.Matrix))
			for i, cell := range rep.Matrix {
				procs[i] = strconv.Itoa(cell.GOMAXPROCS)
			}
			fmt.Printf("%s: config hash %s matches harness config (schema %d, matrix GOMAXPROCS=%s, scaling %.2fx, commit arena %d allocs/op)\n",
				*perfTrainVerify, rep.Meta.ConfigHash, rep.Meta.Schema,
				strings.Join(procs, ","), rep.ScalingSpeedup, rep.Commit.Arena.AllocsPerOp)
		} else {
			fmt.Printf("%s: config hash %s matches harness config (legacy schema %d, GOMAXPROCS=%d, speedup %.2fx, commit arena %d allocs/op)\n",
				*perfTrainVerify, rep.Meta.ConfigHash, rep.Meta.Schema,
				rep.LegacyGOMAXPROCS, rep.LegacySpeedup, rep.Commit.Arena.AllocsPerOp)
		}
		return
	}

	if *perfTrain {
		opts := perfbench.TrainOptions{
			Seed: *seed, Scale: *perfTrainScale,
			MemBudgetBytes: *memBudget, HotRows: *tierHotRows, ColdRows: *tierColdRows,
		}
		if *perfTrainProcs != "" {
			for _, s := range strings.Split(*perfTrainProcs, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || v <= 0 {
					fmt.Fprintf(os.Stderr, "hetgmp-bench: bad -gomaxprocs entry %q (want positive integers)\n", s)
					os.Exit(2)
				}
				opts.Procs = append(opts.Procs, v)
			}
		}
		rep, err := perfbench.RunTrain(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hetgmp-bench: perf-train: %v\n", err)
			os.Exit(1)
		}
		if err := rep.WriteJSON(*perfTrainOut); err != nil {
			fmt.Fprintf(os.Stderr, "hetgmp-bench: perf-train: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("train scale %-8g %8d samples, %d iterations, host %d CPUs\n",
			rep.Scale, rep.Samples, rep.Iterations, rep.NumCPU)
		for _, cell := range rep.Matrix {
			fmt.Printf("  GOMAXPROCS=%-2d reference %12d ns/iter (%d allocs/iter, %8.0f samples/s), optimized %12d ns/iter (%d allocs/iter, %8.0f samples/s), speedup %.2fx\n",
				cell.GOMAXPROCS,
				cell.Reference.NsPerIter, cell.Reference.AllocsPerIter, cell.Reference.SamplesPerSec,
				cell.Optimized.NsPerIter, cell.Optimized.AllocsPerIter, cell.Optimized.SamplesPerSec,
				cell.Speedup)
			if ts := cell.Tiers; ts != nil {
				fmt.Printf("               tiered: %d hot / %d cold rows, read hit %.1f%%, commit hit %.1f%%, %d promotions, footprint %d bytes (flat ref %d)\n",
					ts.HotRows, ts.ColdRows, 100*ts.ReadHitRate, 100*ts.CommitHitRate,
					ts.Promotions, cell.PeakFootprintBytes, cell.RefFootprintBytes)
			}
		}
		fmt.Printf("scaling speedup (opt@%d vs ref@%d): %.2fx\n",
			rep.Matrix[len(rep.Matrix)-1].GOMAXPROCS, rep.Matrix[0].GOMAXPROCS, rep.ScalingSpeedup)
		fmt.Printf("queue→commit (%d updates/op): reference %d ns/op %d allocs/op, arena %d ns/op %d allocs/op\n",
			rep.Commit.UpdatesPerOp,
			rep.Commit.Reference.NsPerOp, rep.Commit.Reference.AllocsPerOp,
			rep.Commit.Arena.NsPerOp, rep.Commit.Arena.AllocsPerOp)
		fmt.Printf("report written to %s (schema %d)\n", *perfTrainOut, rep.Meta.Schema)
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
