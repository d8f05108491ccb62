package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"hetgmp/internal/consistency"
)

// Pinned fingerprints of the fixture run below. They were recorded from the
// seed's serial execution (one goroutine spawned per worker per iteration,
// serial dense reduce and commit, serial dense grid walk, per-update heap
// deltas) before that path was deleted, and the parallel path reproduced
// them exactly, so they now stand in for it as the oracle. The flat, tiered
// and every-GOMAXPROCS runs share one value: none of them may change a bit.
const (
	fingerprintModelParallel = "4ab87a45c91476be6b05fc66a12dbfcbae0c5ac9412e5322f0992b3c14b4bfb4"
	fingerprintPS            = "e68ca7fee4e67c47f3c4e426b550c65863aac497ea25b023ca2e2d761bdbc9b2"
)

// runFingerprint trains cfg and hashes everything the run exposes: final
// AUC, simulated time, the evaluation history, the Theorem-1 step norms,
// the traffic breakdown and matrix (floats by their bits), and the
// checkpoint bytes.
func runFingerprint(t *testing.T, cfg Config) string {
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
	h := sha256.New()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	f := math.Float64bits
	put(f(res.FinalAUC), f(res.TotalSimTime))
	put(uint64(len(res.History)))
	for _, p := range res.History {
		put(uint64(p.Iteration), uint64(p.Epoch), f(p.SimTime), f(p.AUC), f(p.Loss))
	}
	put(uint64(len(res.StepNorms)))
	for _, v := range res.StepNorms {
		put(f(v))
	}
	for c := range res.Breakdown.Bytes {
		put(uint64(res.Breakdown.Bytes[c]), f(res.Breakdown.Seconds[c]))
	}
	put(uint64(len(res.TrafficMatrix)))
	for _, row := range res.TrafficMatrix {
		put(uint64(len(row)))
		for _, v := range row {
			put(uint64(v))
		}
	}
	var ckpt bytes.Buffer
	if err := tr.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	h.Write(ckpt.Bytes())
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunFingerprintPinned holds a replicated, graph-bounded two-epoch run
// to its pinned fingerprint: flat at GOMAXPROCS 1 and 8, tiered (hot 1/8,
// cold 1/2) at 8, and parameter-server mode. Batches of 160 rows span three
// dense grid ranges.
//
// amd64 only: the dense kernels there are assembly that never fuses a
// multiply-add, while on other targets the Go compiler may fuse x*y+z in
// the portable loops, which changes the bits (but not the determinism the
// GOMAXPROCS comparisons check).
func TestRunFingerprintPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fingerprints are pinned for amd64's unfused kernels; %s may fuse multiply-adds", runtime.GOARCH)
	}
	f := newFixture(t)
	assign := hybridAssign(t, f, f.topo.NumWorkers())
	cases := []struct {
		name   string
		procs  int
		mutate func(*Config)
		want   string
	}{
		{"flat", 1, nil, fingerprintModelParallel},
		{"flat", 8, nil, fingerprintModelParallel},
		{"tiered", 8, func(c *Config) { c.Tiers = tierTestConfig(f.train.NumFeatures) }, fingerprintModelParallel},
		{"ps", 8, func(c *Config) { c.PS = &PSConfig{Hosts: 2} }, fingerprintPS},
	}
	for _, c := range cases {
		cfg := protocolConfig(t, f, assign, consistency.GraphBounded, 4, 2)
		cfg.BatchPerWorker = 160
		cfg.TrackConvergence = true
		if c.mutate != nil {
			c.mutate(&cfg)
		}
		old := runtime.GOMAXPROCS(c.procs)
		got := runFingerprint(t, cfg)
		runtime.GOMAXPROCS(old)
		if got != c.want {
			t.Errorf("%s at GOMAXPROCS=%d: fingerprint %s, pinned %s", c.name, c.procs, got, c.want)
		}
	}
}
