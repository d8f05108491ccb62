package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"hetgmp/internal/comm"
	"hetgmp/internal/engine"
	"hetgmp/internal/partition"
)

// params is how one workload run is asked for.
type params struct {
	seed uint64
	// seconds is how long the timed repetitions go on.
	seconds time.Duration
	// setups and minReps are 5 and 3; -quick makes them 1 and 1.
	setups, minReps int
	quick           bool
	// out receives the trace file; tmp holds spill and checkpoint files
	// and is removed when the benchmark exits.
	out, tmp string
}

// fingerprint is what every run of one workload and seed must reproduce
// exactly, whatever the GOMAXPROCS, storage tiers, transport or wrappers.
type fingerprint struct {
	auc, simTime float64
	iterations   int
	samples      int64
	traffic      comm.Breakdown
}

func fingerprintOf(r *engine.Result) fingerprint {
	return fingerprint{r.FinalAUC, r.TotalSimTime, r.Iterations, r.SamplesProcessed, r.Breakdown}
}

func (f fingerprint) String() string {
	return fmt.Sprintf("auc %v, sim time %v, %d iterations, %d samples, %d bytes",
		f.auc, f.simTime, f.iterations, f.samples, f.traffic.TotalBytes())
}

// same fails unless every rank reproduced want.
func same(want fingerprint, results []*engine.Result) error {
	for i, r := range results {
		if got := fingerprintOf(r); got != want {
			return fmt.Errorf("rank %d: %v; want %v", i, got, want)
		}
	}
	return nil
}

// checkpointHash is the SHA-256 of the trainer's checkpoint bytes.
func checkpointHash(t *engine.Trainer) (string, error) {
	h := sha256.New()
	if err := t.SaveCheckpoint(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// sameCheckpoints fails unless every rank of j holds the checkpoint want;
// an empty want takes rank 0's. It returns the common hash.
func sameCheckpoints(j *job, want string) (string, error) {
	for i, r := range j.ranks {
		got, err := checkpointHash(r.trainer)
		if err != nil {
			return "", err
		}
		if want == "" {
			want = got
		}
		if got != want {
			return "", fmt.Errorf("rank %d checkpoint %.12s, want %.12s", i, got, want)
		}
	}
	return want, nil
}

// settledRSS is the process's resident set, in MiB, once the garbage is
// collected and the freed pages are returned to the system: what the live
// job occupies. The high-water mark (ru_maxrss) also counts how far the
// collector happened to lag, which moves by tens of per cent from run to
// run; it is reported per layer, without a bound.
func settledRSS() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	if data, err := os.ReadFile("/proc/self/statm"); err == nil {
		var size, resident int64
		if _, err := fmt.Sscan(string(data), &size, &resident); err == nil {
			return float64(resident*int64(os.Getpagesize())) / (1 << 20)
		}
	}
	_, peak := rusage() // no procfs: the high-water mark is all there is
	return peak
}

func rusage() (cpu float64, maxRSSMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measureEndToEnd is a run with tracing off: set-ups, one warm-up, then
// timed repetitions on fresh trainers until p.seconds have passed, and the
// checks of what they computed.
func measureEndToEnd(sp *spec, p params) (*outcome, error) {
	o := newOutcome()
	tr := newTracer(sp.name)

	var j *job
	var setups []float64
	for i := 0; i < p.setups; i++ {
		if j != nil {
			// A user sets up once per process: the next set-up must not
			// pay for collecting this one.
			j.close()
			j = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if j, err = setup(sp, p.seed, tr, p.tmp); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer j.close()

	warm, _, err := j.run()
	if err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	want := fingerprintOf(warm[0])

	var rates []float64
	deadline := time.Now().Add(p.seconds)
	for len(rates) < p.minReps || time.Now().Before(deadline) {
		if err := j.build(variant{}, noParent); err != nil {
			return nil, fmt.Errorf("fresh trainer: %w", err)
		}
		results, wall, err := j.run()
		if err == nil {
			err = same(want, results)
		}
		o.op(fmt.Sprintf("timed run %d", len(rates)+1), err)
		if err != nil {
			break
		}
		rates = append(rates, float64(results[0].SamplesProcessed)/wall.Seconds())
	}
	// The last run's trainers are still open: every rank's table, model
	// and optimizer state, and the inputs they were built from.
	rss := settledRSS()

	if want.auc < sp.aucFloor {
		o.op("final AUC", fmt.Errorf("%.4f is below the floor %.4f", want.auc, sp.aucFloor))
	} else {
		o.op("final AUC", nil)
	}
	if o.Failed == 0 && (sp.tiered || sp.tcp) {
		// The last timed run's trainers are still open: their checkpoint
		// must be the one a flat, single-process run of the same job writes.
		twin := j.derived(func(s *spec) { s.tiered, s.tcp = false, false })
		defer twin.close()
		o.op("checkpoint equals the flat single-process run's", func() error {
			if err := twin.build(variant{}, noParent); err != nil {
				return err
			}
			results, _, err := twin.run()
			if err != nil {
				return err
			}
			if err := same(want, results); err != nil {
				return err
			}
			hash, err := sameCheckpoints(twin, "")
			if err != nil {
				return err
			}
			_, err = sameCheckpoints(j, hash)
			return err
		}())
	}

	o.set(endToEnd, map[string]float64{
		"train_samples_per_s": median(rates),
		"setup_s":             median(setups),
		"rss_mb":              rss,
		"final_auc":           want.auc,
	})
	o.Spread["train_samples_per_s"] = summarize(rates)
	o.Spread["setup_s"] = summarize(setups)
	return o, nil
}

// measureLayers is a run with tracing on: one set-up with a span per stage,
// the embed probe, a warm-up under the invariant checker, untraced runs to
// compare against, the traced run, a traced run at GOMAXPROCS=1 whose
// shares add up, and the comm probe.
func measureLayers(sp *spec, p params) (*outcome, error) {
	o := newOutcome()
	tr := newTracer(sp.name)
	l := &ledger{m: map[string]float64{}, tails: o.Tails, quick: p.quick}
	m := l.m
	defer func() {
		o.set(perLayer, m)
		o.Spans = timesByName(tr.snapshot())
		if err := tr.write(filepath.Join(p.out, sp.name+".trace.json")); err != nil {
			o.op("trace file", err)
		}
	}()

	j, err := setup(sp, p.seed, tr, p.tmp)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer j.close()
	r0 := j.ranks[0]
	in := r0.in
	l.setup(index(tr.snapshot()))
	edges := float64(in.graph.NumEdges())
	q := partition.Evaluate(in.graph, in.assign, nil)
	m["dataset.train_samples"] = float64(len(in.train.Samples))
	m["bigraph.edges"] = edges
	m["partition.medges_per_s"] = edges / 1e6 / m["partition.hybrid_s"]
	m["partition.local_fraction"] = q.LocalFraction
	m["partition.replication_factor"] = q.ReplicationFactor
	m["engine.footprint_mb"] = float64(r0.trainer.Footprint().Bytes) / (1 << 20)

	// The set-up's trainer has not trained: the embed probe gets its table.
	var embedEpoch float64
	if err = embedProbe(r0, tr, p.tmp); err == nil {
		embedEpoch, err = l.embedProbe(index(tr.snapshot()), r0)
	}
	o.op("embed probe", err)

	// The warm-up runs under the invariant checker: its timing is discarded
	// anyway, and the runs that are timed stay free of the checker's cost.
	if err := j.build(variant{check: true}, noParent); err != nil {
		return nil, fmt.Errorf("fresh trainer: %w", err)
	}
	warm, _, err := j.run()
	if err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	want := fingerprintOf(warm[0])
	if c := warm[0].Invariants; c.Checks == 0 || c.Violations != 0 {
		err = fmt.Errorf("%d checks, %d violations", c.Checks, c.Violations)
	}
	o.op("invariants", err)

	var walls []float64
	for i := 0; i < p.minReps; i++ {
		if err := j.build(variant{}, noParent); err != nil {
			return nil, fmt.Errorf("fresh trainer: %w", err)
		}
		results, wall, err := j.run()
		if err == nil {
			err = same(want, results)
		}
		o.op(fmt.Sprintf("untraced run %d", i+1), err)
		if err != nil {
			return o, nil
		}
		walls = append(walls, wall.Seconds())
	}

	// traced builds wrapped trainers, runs them, and requires the result the
	// unwrapped runs gave: the wrappers must not change what is computed.
	traced := func(what string) (*engine.Result, float64, float64, bool) {
		if err := j.build(variant{traced: true}, noParent); err != nil {
			o.op(what, err)
			return nil, 0, 0, false
		}
		cpu0, _ := rusage()
		results, wall, err := j.run()
		cpu1, _ := rusage()
		if err == nil {
			err = same(want, results)
		}
		o.op(what, err)
		if err != nil {
			return nil, 0, 0, false
		}
		return results[0], wall.Seconds(), cpu1 - cpu0, true
	}
	res, wall, cpu, ok := traced("traced run reproduces the untraced runs")
	if !ok {
		return o, nil
	}
	o.op("trace accounting", l.tracedRun(index(tr.snapshot()), j, res, wall, cpu))
	m["engine.trace_overhead_frac"] = wall/median(walls) - 1
	_, m["engine.maxrss_mb"] = rusage()

	start := time.Now()
	r0.trainer.Evaluate()
	m["engine.eval_ms"] = time.Since(start).Seconds() * 1e3
	o.op("checkpoint save", func() error {
		path := filepath.Join(p.tmp, "trainer.ckpt")
		defer os.Remove(path)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		start := time.Now()
		if err := r0.trainer.SaveCheckpoint(f); err != nil {
			return err
		}
		m["engine.ckpt_save_ms"] = time.Since(start).Seconds() * 1e3
		return nil
	}())

	// The same traced run on one P, where layers cannot overlap.
	prev := runtime.GOMAXPROCS(1)
	_, wallP1, _, ok := traced("GOMAXPROCS=1 run reproduces the untraced runs")
	runtime.GOMAXPROCS(prev)
	if !ok {
		return o, nil
	}
	m["engine.parallel_speedup"] = wallP1 / wall
	o.op("shares at GOMAXPROCS=1", l.sharesAtP1(index(tr.snapshot()), j, wallP1, embedEpoch*float64(sp.epochs)))

	err = commProbe(tr, 4*r0.denseParams, p.quick)
	if err == nil {
		err = l.commProbe(index(tr.snapshot()))
	}
	o.op("comm probe", err)
	return o, nil
}
