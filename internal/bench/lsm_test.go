package bench

import (
	lix "github.com/lix-go/lix"
	"testing"
)

// TestRunLSMSmoke runs the storage-engine benchmark at a tiny scale and
// checks the contract the CI gate depends on: six results across the two
// engines, the absent-key filter probe passing (RunLSM errors if filters
// skip under 90%), and the LSM checkpoint result carrying the blocking
// >= 2x floor against the snapshot engine's checkpoint rate, and the LSM
// recovery result carrying its floor against the snapshot engine's.
func TestRunLSMSmoke(t *testing.T) {
	cfg := LSMConfig{N: 20_000, Writes: 6_000, Checkpoints: 3, Reads: 8_000, Seed: 3}
	tables, results, err := RunLSM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 2 {
		t.Fatalf("want 1 table with 2 rows, got %+v", tables)
	}
	if len(results) != 6 {
		t.Fatalf("want 6 results, got %d", len(results))
	}
	byName := make(map[string]BenchResult, len(results))
	for _, r := range results {
		if r.OpsPerSec <= 0 {
			t.Errorf("%s: non-positive throughput %v", r.Name, r.OpsPerSec)
		}
		byName[r.Name] = r
	}
	for _, engine := range []string{lix.EngineSnapshot, lix.EngineLSM} {
		for _, phase := range []string{"write", "checkpoint", "recover"} {
			if _, ok := byName[LSMResultName(phase, engine)]; !ok {
				t.Fatalf("missing result %s", LSMResultName(phase, engine))
			}
		}
	}
	ckpt := byName[LSMResultName("checkpoint", lix.EngineLSM)]
	if want := LSMResultName("checkpoint", lix.EngineSnapshot); ckpt.MinRatioOf != want || ckpt.MinRatio != 2 {
		t.Errorf("LSM checkpoint gate = (%q, %v), want (%q, 2)", ckpt.MinRatioOf, ckpt.MinRatio, want)
	}
	rec := byName[LSMResultName("recover", lix.EngineLSM)]
	if want := LSMResultName("recover", lix.EngineSnapshot); rec.MinRatioOf != want || rec.MinRatio != LSMRecoverFloor {
		t.Errorf("LSM recover gate = (%q, %v), want (%q, %v)", rec.MinRatioOf, rec.MinRatio, want, LSMRecoverFloor)
	}
}
