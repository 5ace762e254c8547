package harness_test

import (
	"reflect"
	"testing"

	"plfs/internal/harness"
	"plfs/internal/mpi"
	"plfs/internal/pfs"
	"plfs/internal/workloads"
)

// TestAllFiguresRunQuick smoke-runs every figure and ablation at Quick
// scale with a single repetition: every experiment must complete and
// produce non-empty tables with the expected series.
func TestAllFiguresRunQuick(t *testing.T) {
	opts := harness.Options{Scale: harness.Quick, Reps: 1}
	for _, fig := range harness.Figures() {
		fig := fig
		t.Run(fig.ID, func(t *testing.T) {
			tabs, err := fig.Run(opts)
			if err != nil {
				t.Fatalf("%s: %v", fig.ID, err)
			}
			if len(tabs) == 0 {
				t.Fatalf("%s produced no tables", fig.ID)
			}
			for _, tab := range tabs {
				if len(tab.Points()) == 0 {
					t.Fatalf("%s: empty table %q", fig.ID, tab.Title)
				}
				for _, p := range tab.Points() {
					if p.N < 1 {
						t.Fatalf("%s: point with no observations: %+v", fig.ID, p)
					}
				}
			}
		})
	}
}

func TestFindFigure(t *testing.T) {
	if _, ok := harness.FindFigure("fig4"); !ok {
		t.Fatal("fig4 not found")
	}
	if _, ok := harness.FindFigure("nope"); ok {
		t.Fatal("bogus figure found")
	}
}

// TestRunZeroCfgDefaults pins the cluster defaults of harness.Run: a Job
// that leaves Cfg and Net zero runs on pfs.SmallCluster() over
// mpi.DefaultNet() — the same result as spelling them out — instead of
// dividing by a zero node count.
func TestRunZeroCfgDefaults(t *testing.T) {
	job := harness.Job{Seed: 1, Ranks: 4, Kernel: workloads.MPIIOTest(1<<16, 1<<14), UsePLFS: true, ReadBack: true}
	got, err := harness.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	job.Cfg, job.Net = pfs.SmallCluster(), mpi.DefaultNet()
	want, err := harness.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if got.BytesPerRank == 0 {
		t.Fatalf("zero Cfg/Net run moved no data: %+v", got)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("zero Cfg/Net result %+v, want the explicit defaults' %+v", got, want)
	}
}
