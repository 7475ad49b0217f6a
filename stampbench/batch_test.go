package main

import (
	"testing"

	"github.com/stamp-go/stamp/internal/apps/genome"
)

// TestRunBatchMinimumRounds runs a small app with no time budget: the
// warm-up round is discarded and exactly the minimum rounds are measured,
// each repetition verified, on every runtime.
func TestRunBatchMinimumRounds(t *testing.T) {
	a := genome.New(genome.Config{GeneLength: 64, SegmentLength: 16, Segments: 1024, Seed: 1})
	rec := newRecorder()
	br, err := runBatch([]builtApp{{name: "genome", app: a}}, 0, true, rec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if br.rounds != 3 || br.attempted != 3*len(runtimes) || br.failed != 0 {
		t.Errorf("rounds %d attempted %d failed %d, want 3, %d, 0", br.rounds, br.attempted, br.failed, 3*len(runtimes))
	}
	for _, r := range runtimes {
		tot := br.rt[r.key]
		if len(tot.regions["genome"]) != 3 || tot.stats.Commits == 0 || tot.threadNs <= 0 {
			t.Errorf("%s: regions %v commits %d", r.key, tot.regions["genome"], tot.stats.Commits)
		}
	}
	if self := selfTimes(rec.snapshot()); self["region"] <= 0 || self["verify"] <= 0 {
		t.Errorf("repetition spans missing: %v", self)
	}
}
