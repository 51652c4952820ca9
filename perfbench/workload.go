package main

import (
	"fmt"

	"github.com/lix-go/lix/internal/dataset"
)

// Every workload is served by one server process with this many ShardRW
// shards (the configuration that is safe behind several connections) and
// loaded by this many client connections, each with its own key partition.
// In the closed loop each connection sends lockstep batches of window
// requests.
const (
	numShards = 4
	numConns  = 2
	window    = 32
)

// lagBoundMS invalidates an open-loop run whose generator sent a request
// this much later than it was due: the offered rate was not held.
const lagBoundMS = 500

// workload is one traffic mix over one data set and stack configuration.
// The fractions of one op stream sum to 1.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	Dist    dataset.Kind `json:"dist"`
	Records int          `json:"records"`
	Kind    string       `json:"kind"`
	// Durable serves from a directory with EngineLSM and FsyncAlways at
	// the default checkpoint cadence, and is killed with SIGKILL and
	// restarted on the same directory after the measured phase.
	Durable bool `json:"durable"`

	GetFrac  float64 `json:"get_frac"`
	SetFrac  float64 `json:"set_frac"`
	DelFrac  float64 `json:"del_frac"`
	ScanFrac float64 `json:"scan_frac"`
	// ZipfGets draws GET keys with dataset.ZipfKeys; otherwise GETs are
	// uniform over the existing keys.
	ZipfGets bool `json:"zipf_gets"`
	// FreshSetFrac is the share of SETs that insert a fresh key between
	// existing ones (dataset.LookupMix with hitFrac 0); the rest overwrite
	// existing keys.
	FreshSetFrac float64 `json:"fresh_set_frac"`
	// ScanLen is the expected number of records per SCAN (dataset.Ranges).
	ScanLen int `json:"scan_len"`

	// OpenRate is the open-loop rate summed over connections.
	OpenRate int `json:"open_rate_ops_per_s"`
}

// recordBytes is the size of one record: a uint64 key and a uint64 value.
const recordBytes = 16

// workloads is the benchmark's workload table. BENCHMARK.json carries each
// name and why line; the parameters live here and are printed with every
// result.
var workloads = []workload{
	{
		Name:     "read-hot",
		Why:      "2M lognormal keys in ALEX, ~32 MB in memory; 95% Zipf GET, 5% SET; serve/wire, obs, shard, predict+search; no disk; closed loop, then open loop at 30k ops/s",
		Dist:     dataset.Lognormal,
		Records:  2_000_000,
		Kind:     "alex",
		GetFrac:  0.95,
		SetFrac:  0.05,
		ZipfGets: true,
		OpenRate: 30_000,
	},
	{
		Name:         "write-durable",
		Why:          "1M uniform keys, ALEX over LSM, fsync always, ~16 MB fits; 20% GET, 70% SET (half fresh), 10% DEL; WAL, fsync, flush, compaction; SIGKILL+recover; open 4k ops/s",
		Dist:         dataset.Uniform,
		Records:      1_000_000,
		Kind:         "alex",
		Durable:      true,
		GetFrac:      0.20,
		SetFrac:      0.70,
		DelFrac:      0.10,
		FreshSetFrac: 0.5,
		OpenRate:     4_000,
	},
	{
		Name:     "scan-paged",
		Why:      "2M clustered keys in paged-pgm, 4x256 frames x 4 KiB = 4 MiB pool vs 32 MB records; 65% GET, 30% SCAN of ~100, 5% SET; pool misses, fences, scan fan-out; open 10k ops/s",
		Dist:     dataset.Clustered,
		Records:  2_000_000,
		Kind:     "paged-pgm",
		GetFrac:  0.65,
		SetFrac:  0.05,
		ScanFrac: 0.30,
		ScanLen:  100,
		OpenRate: 10_000,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			w := workloads[i]
			return &w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// validate rejects a mix the reply checker cannot predict exactly. SCAN
// results cover both connections' partitions, so a workload with SCANs
// must keep its key set fixed: no fresh SETs and no DELs.
func (w *workload) validate() error {
	sum := w.GetFrac + w.SetFrac + w.DelFrac + w.ScanFrac
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("workload %s: op fractions sum to %v", w.Name, sum)
	}
	if w.ScanFrac > 0 && (w.DelFrac > 0 || w.FreshSetFrac > 0) {
		return fmt.Errorf("workload %s: SCANs need a fixed key set", w.Name)
	}
	return nil
}
