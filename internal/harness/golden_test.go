package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"plfs/internal/plfs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenBrownout is the small brownout schedule the golden runs share:
// volume 0 browned 64x for steps 2-3 of six, repair ticking.
func goldenBrownout(backend string, hedged bool, replicas int) BrownoutJob {
	return BrownoutJob{
		Seed: 3, Backend: backend,
		Ranks: 4, Steps: 6, OpsPerRank: 4, OpSize: 32 << 10,
		BrownVol: 0, BrownFactor: 64, BrownFrom: 2, BrownTo: 4,
		Repair: true,
		Opt: plfs.Options{
			IndexMode: plfs.ParallelIndexRead, NumSubdirs: 4,
			SpreadContainers: true, SpreadSubdirs: true,
			HedgedReads: hedged, IndexReplicas: replicas,
		},
	}
}

// goldenSaturation is a two-tenant run through one gated batch class.
func goldenSaturation(backend string) SaturationJob {
	return SaturationJob{
		Seed: 3, Backend: backend,
		Svc: plfs.ServiceOptions{
			CacheBudgetBytes: 8 << 20,
			Classes:          []plfs.ClassConfig{{Name: "batch", MaxInFlight: 2}},
		},
		Tenants: []SaturationTenant{
			{Name: "t0", Class: "batch", Ranks: 2, Containers: 2, OpsPerRank: 4, OpSize: 32 << 10},
			{Name: "t1", Class: "batch", Ranks: 3, Containers: 2, OpsPerRank: 4, OpSize: 32 << 10},
		},
	}
}

// TestRunnerGolden pins the full reports of the side runners — meta-storm,
// brownout and saturation — at one small seed, so a change to how the
// harness assembles the simulated cluster cannot move a simulated value
// unnoticed.  Regenerate with
// `go test ./internal/harness -run TestRunnerGolden -update` and review
// the diff.
func TestRunnerGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func() (any, error)
	}{
		{"metastorm-static", func() (any, error) {
			return RunMetaStorm(MetaStormJob{Seed: 3, Ranks: 64})
		}},
		{"metastorm-batched", func() (any, error) {
			return RunMetaStorm(MetaStormJob{Seed: 3, Ranks: 64, BulkCreate: true})
		}},
		{"metastorm-rebalanced", func() (any, error) {
			return RunMetaStorm(MetaStormJob{Seed: 3, Ranks: 64, BulkCreate: true, Rebalance: true})
		}},
		{"brownout-naive-posix", func() (any, error) {
			return RunBrownout(goldenBrownout(BackendPosix, false, 0))
		}},
		{"brownout-healed-posix", func() (any, error) {
			return RunBrownout(goldenBrownout(BackendPosix, true, 2))
		}},
		{"brownout-healed-objfs", func() (any, error) {
			return RunBrownout(goldenBrownout(BackendObjfs, true, 2))
		}},
		{"saturation-posix", func() (any, error) {
			return RunSaturation(goldenSaturation(BackendPosix))
		}},
		{"saturation-objfs", func() (any, error) {
			return RunSaturation(goldenSaturation(BackendObjfs))
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			rep, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			golden := filepath.Join("testdata", c.name+".golden.json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", golden, len(got))
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report drifted from %s (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s",
					golden, got, want)
			}
		})
	}
}
