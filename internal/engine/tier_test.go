package engine

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"hetgmp/internal/consistency"
	"hetgmp/internal/embed"
	"hetgmp/internal/obs"
	"hetgmp/internal/obs/analyze"
)

// tierTestConfig returns a tier layout sized for the fixture dataset: the
// 1/8 most accessed rows hot (within the acceptance bar's ≤25%) and the
// less accessed half spilled to the cold tier.
func tierTestConfig(features int) embed.TierConfig {
	return embed.TierConfig{HotRows: features / 8, ColdRows: features / 2}
}

// runClosed is run() plus resource cleanup: tiered trainers own spill files.
func runClosed(t *testing.T, cfg Config) *Result {
	t.Helper()
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTieredTrainingBitIdenticalToFlat is the end-to-end acceptance bar:
// full training runs through the tiered store — hot budget 1/8 of the
// table, half the rows cold-spilled — must produce bit-identical clocks,
// convergence history, AUC, simulated time, traffic, and checkpoint bytes
// to the flat store, at GOMAXPROCS 1, 4 and 8.
func TestTieredTrainingBitIdenticalToFlat(t *testing.T) {
	f := newFixture(t)
	assign := hybridAssign(t, f, f.topo.NumWorkers())
	base := func() Config {
		return protocolConfig(t, f, assign, consistency.GraphBounded, 4, 2)
	}

	flatCfg := base()
	flatTr, err := NewTrainer(flatCfg)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := flatTr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if flat.TierStats != nil {
		t.Fatal("flat run reports tier stats")
	}
	var flatCkpt bytes.Buffer
	if err := flatTr.SaveCheckpoint(&flatCkpt); err != nil {
		t.Fatal(err)
	}
	if err := flatTr.Close(); err != nil {
		t.Fatal(err)
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		cfg := base()
		cfg.Tiers = tierTestConfig(f.train.NumFeatures)
		tr, err := NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tiered, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}

		if !reflect.DeepEqual(tiered.History, flat.History) {
			t.Errorf("GOMAXPROCS=%d: history diverges from flat", procs)
		}
		if tiered.FinalAUC != flat.FinalAUC {
			t.Errorf("GOMAXPROCS=%d: AUC %v, flat %v", procs, tiered.FinalAUC, flat.FinalAUC)
		}
		if tiered.TotalSimTime != flat.TotalSimTime {
			t.Errorf("GOMAXPROCS=%d: sim time %v, flat %v", procs, tiered.TotalSimTime, flat.TotalSimTime)
		}
		if tiered.Breakdown != flat.Breakdown {
			t.Errorf("GOMAXPROCS=%d: traffic %+v, flat %+v", procs, tiered.Breakdown, flat.Breakdown)
		}
		var ckpt bytes.Buffer
		if err := tr.SaveCheckpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ckpt.Bytes(), flatCkpt.Bytes()) {
			t.Errorf("GOMAXPROCS=%d: tiered checkpoint differs from flat", procs)
		}

		ts := tiered.TierStats
		if ts == nil {
			t.Fatal("tiered run exports no tier stats")
		}
		if ts.ReadHot == 0 || ts.ReadWarm == 0 || ts.ReadCold == 0 {
			t.Errorf("GOMAXPROCS=%d: a tier served no reads: %+v", procs, ts)
		}
		if ts.ReadHot == 0 || ts.Promotions != 0 {
			t.Errorf("GOMAXPROCS=%d: want hot reads and no promotions from static tiers: %+v", procs, ts)
		}
		// The acceptance shape: total value footprint ≥ 4× the hot budget.
		if total := ts.HotBytes + ts.WarmBytes + ts.ColdBytes; total < 4*ts.HotBytes {
			t.Errorf("GOMAXPROCS=%d: footprint %d not ≥ 4× hot budget %d", procs, total, ts.HotBytes)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTieredNoObserverEffect extends the no-observer-effect relation to the
// tiered store: attaching metrics, tracing, and the report analyzer to a
// tiered run must not perturb the simulation, and the resulting capacity
// block must carry a tiers ledger that passes VerifyCapacity.
func TestTieredNoObserverEffect(t *testing.T) {
	f := newFixture(t)
	tiers := tierTestConfig(f.train.NumFeatures)

	plainCfg := obsConfig(t, f, 5, nil, nil)
	plainCfg.Tiers = tiers
	plain := runClosed(t, plainCfg)

	reg := obs.NewRegistry(f.topo.NumWorkers())
	tracedCfg := obsConfig(t, f, 5, reg, obs.NewTracer())
	tracedCfg.Tiers = tiers
	tracedCfg.Report = true
	traced := runClosed(t, tracedCfg)

	if !reflect.DeepEqual(plain.History, traced.History) {
		t.Errorf("history diverges with telemetry on")
	}
	if plain.FinalAUC != traced.FinalAUC {
		t.Errorf("final AUC %v (off) vs %v (on)", plain.FinalAUC, traced.FinalAUC)
	}
	if plain.TotalSimTime != traced.TotalSimTime {
		t.Errorf("sim time %v (off) vs %v (on)", plain.TotalSimTime, traced.TotalSimTime)
	}
	if plain.Breakdown != traced.Breakdown {
		t.Errorf("traffic breakdown diverges with telemetry on")
	}
	// The ledger itself is part of the deterministic surface: same counts
	// whether or not anyone was watching.
	if plain.TierStats == nil || traced.TierStats == nil {
		t.Fatal("tier stats missing")
	}
	if *plain.TierStats != *traced.TierStats {
		t.Errorf("tier ledger diverges with telemetry on:\n  off: %+v\n  on:  %+v",
			*plain.TierStats, *traced.TierStats)
	}

	if traced.Report == nil || traced.Report.Capacity == nil {
		t.Fatal("instrumented run produced no capacity block")
	}
	c := traced.Report.Capacity
	if c.Tiers == nil {
		t.Fatal("capacity block has no tiers ledger on a tiered run")
	}
	if err := analyze.VerifyCapacity(c); err != nil {
		t.Fatalf("tiered capacity block inconsistent: %v", err)
	}
	if c.Tiers.HotBytes != traced.TierStats.HotBytes ||
		c.Tiers.Promotions != traced.TierStats.Promotions {
		t.Errorf("report ledger %+v disagrees with result ledger %+v", c.Tiers, traced.TierStats)
	}
	// The tier gauges must have reached the metrics snapshot.
	for _, name := range []string{"table.tier.hot_rows", "table.tier.read_hot", "table.tier.commit_hot"} {
		if _, ok := traced.Metrics.Get(name); !ok {
			t.Errorf("metric %s missing from snapshot", name)
		}
	}
}

// TestVerifyCapacityRejectsTamperedTiers pins the negative arm of the
// capacity gate: editing any byte column of the tiers ledger breaks the
// cross-check against the measured footprint.
func TestVerifyCapacityRejectsTamperedTiers(t *testing.T) {
	f := newFixture(t)
	reg := obs.NewRegistry(f.topo.NumWorkers())
	cfg := obsConfig(t, f, 5, reg, obs.NewTracer())
	cfg.Tiers = tierTestConfig(f.train.NumFeatures)
	cfg.Report = true
	res := runClosed(t, cfg)
	c := res.Report.Capacity
	if c == nil || c.Tiers == nil {
		t.Fatal("no tiered capacity block")
	}
	if err := analyze.VerifyCapacity(c); err != nil {
		t.Fatalf("untampered block rejected: %v", err)
	}
	tamper := func(mutate func(*analyze.TierStat)) error {
		clone := *c.Tiers
		mutate(&clone)
		tampered := *c
		tampered.Tiers = &clone
		return analyze.VerifyCapacity(&tampered)
	}
	if err := tamper(func(ts *analyze.TierStat) { ts.HotBytes += 4096 }); err == nil {
		t.Error("inflated hot_bytes passed the gate")
	}
	if err := tamper(func(ts *analyze.TierStat) { ts.ColdBytes = 0 }); err == nil {
		t.Error("zeroed cold_bytes passed the gate")
	}
	if err := tamper(func(ts *analyze.TierStat) { ts.Promotions = -1 }); err == nil {
		t.Error("negative promotions passed the gate")
	}
	if err := tamper(func(ts *analyze.TierStat) { ts.Demotions = ts.Promotions + 1 }); err == nil {
		t.Error("demotions > promotions passed the gate")
	}
}
