// Command perfbench is the served-stack benchmark. Each run generates a
// workload's records and op streams from a seed, hands the records to a
// fresh server process built from the public lix API, drives it over TCP
// loopback from two connections, checks every reply, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload read-hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from a traced server run and the in-process layer
// ladder. Run it through run.sh, which builds it first. The same binary
// is the server ("perfbench server", see server.go).
//
// go test in this directory runs the reply-checker tests and a short
// smoke run of every workload (-short skips the smoke run).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// clientProcs is the client's GOMAXPROCS: one P per sender and receiver
// goroutine plus one, so a sender blocked in nanosleep never delays a
// receiver. The server keeps the default.
const clientProcs = 2*numConns + 1

// clientGCPercent makes the client collect rarely: a collection would
// stall its receivers and show up as server latency, and the client
// allocates little.
const clientGCPercent = 800

// runDeadline stops a run that hangs: every server is killed and the
// client exits non-zero without a result.
const runDeadline = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "server" {
		if err := serverMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench server:", err)
			os.Exit(1)
		}
		return
	}
	if err := clientMain(os.Args[1:]); err != nil {
		killAll()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects the metrics of one run and prints each as it is set.
type report struct {
	metrics map[string]metric
}

func (r *report) set(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("%-38s %16.4f %-6s %s\n", name, v, unit, note)
}

func clientMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "read-hot", "workload name")
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 10, "measured seconds per run")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(clientProcs)
	debug.SetGCPercent(clientGCPercent)
	time.AfterFunc(runDeadline, func() {
		killAll()
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runDeadline)
		os.Exit(1)
	})

	work, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	// The ladder's paged kinds create their page files under TMPDIR.
	os.Setenv("TMPDIR", work)

	printProvenance(w, *seed, *seconds, *trace)
	d, err := newData(w, *seed)
	if err != nil {
		return err
	}
	fails := &failures{out: os.Stdout}
	rep := &report{metrics: map[string]metric{}}
	dur := time.Duration(*seconds) * time.Second
	var attempted int64
	if *trace == 0 {
		attempted, err = endToEnd(w, d, dur, work, fails, rep)
	} else {
		attempted, err = traced(w, d, dur, work, fails, rep)
	}
	if err != nil {
		return err
	}
	failed := fails.n.Load()
	fmt.Printf("%-38s %16.6f %-6s failed %d of %d attempted\n", "failed_frac",
		float64(failed)/float64(attempted), "frac", failed, attempted)
	out, err := json.Marshal(result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
