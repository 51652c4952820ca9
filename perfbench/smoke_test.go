package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeEveryWorkload builds the benchmark, runs every workload for a
// short while in both modes, and checks that the result line carries
// every metric BENCHMARK.json names, with its unit, and nothing else.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the table %d", len(spec.Workloads), len(workloads))
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, wl := range spec.Workloads {
		if _, err := findWorkload(wl.Name); err != nil {
			t.Fatal(err)
		}
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			cmd := exec.Command(bin, "--workload", wl.Name, "--seed", "1", "--seconds", "2", "--trace", []string{"0", "1"}[trace])
			cmd.Dir = dir
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace %d: %v\n%s", wl.Name, trace, err, out)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v failed=%d attempted=%d", wl.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, want %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: metric %s missing", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %d: metric %s unit %q, want %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				case !strings.Contains(string(out), m.Name+" "):
					t.Errorf("%s trace %d: metric %s not printed by name", wl.Name, trace, m.Name)
				}
			}
		}
	}
}
