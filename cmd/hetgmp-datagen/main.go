// Command hetgmp-datagen generates a synthetic CTR dataset — either one of
// the paper's presets (Table 1 shapes) or a fully custom configuration —
// and writes it in the text format that cmd/hetgmp-partition loads with
// -file. cmd/hetgmp-train generates its datasets itself and reads no file.
//
// Usage:
//
//	hetgmp-datagen -preset criteo -scale 1e-3 -o criteo.hgmp
//	hetgmp-datagen -fields 30 -samples 100000 -features 50000 -clusters 8 -o custom.hgmp
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"hetgmp/internal/bigraph"
	"hetgmp/internal/dataset"
	"hetgmp/internal/report"
)

func main() {
	var (
		preset   = flag.String("preset", "", "paper preset (avazu|criteo|company); empty for custom")
		scale    = flag.Float64("scale", 1e-3, "preset scale factor")
		out      = flag.String("o", "", "output file (default stdout)")
		fields   = flag.Int("fields", 20, "custom: categorical fields")
		samples  = flag.Int("samples", 50000, "custom: sample count")
		features = flag.Int("features", 20000, "custom: total vocabulary")
		zipf     = flag.Float64("zipf", 1.05, "custom: feature popularity exponent")
		clusters = flag.Int("clusters", 16, "custom: latent co-access clusters")
		noise    = flag.Float64("noise", 0.35, "custom: cluster escape probability")
		seed     = flag.Uint64("seed", 22, "random seed")
		stats    = flag.Bool("stats", true, "print dataset statistics to stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hetgmp-datagen:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "hetgmp-datagen:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hetgmp-datagen:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hetgmp-datagen:", err)
			}
			f.Close()
		}()
	}

	var (
		ds  *dataset.Dataset
		err error
	)
	if *preset != "" {
		ds, err = dataset.New(*preset, *scale, *seed)
	} else {
		ds, err = dataset.Generate(dataset.Config{
			Name:          "custom",
			NumFields:     *fields,
			NumSamples:    *samples,
			NumFeatures:   *features,
			ZipfExponent:  *zipf,
			NumClusters:   *clusters,
			ClusterNoise:  *noise,
			SuperClusters: 4,
			SuperNoise:    0.5,
			FieldSkew:     1.1,
			Seed:          *seed,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetgmp-datagen:", err)
		os.Exit(1)
	}

	if *stats {
		st := ds.Stats()
		g := bigraph.FromDataset(ds)
		deg := g.DegreeStats()
		fmt.Fprintf(os.Stderr, "dataset %s: %d samples, %d features, %d fields, %.1f%% positive\n",
			st.Name, st.NumSamples, st.NumFeatures, st.NumFields, 100*st.PosRate)
		fmt.Fprintf(os.Stderr, "degree skew: max=%d mean=%.1f top1%%=%s top10%%=%s\n",
			deg.Max, deg.Mean, report.Percent(deg.Top1Share), report.Percent(deg.Top10Share))
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hetgmp-datagen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := dataset.Save(w, ds); err != nil {
		fmt.Fprintln(os.Stderr, "hetgmp-datagen:", err)
		os.Exit(1)
	}
}
