// Command perfbench is the repository benchmark. It runs one workload
// against the solver library and its serving layer, times it end to end,
// checks every output for correctness and, with -trace 1, attributes the
// time to the layers it calls.
//
//	bash perfbench/run.sh --workload dsfrun-dense --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	dsfrun-dense  what `dsfrun -in <file> -algo det` does, op after op
//	sweep-sparse  SolveBatch calls (rand, 2 workers) over planted instances
//	serve-rw      an in-process dsfserve driven by two closed-loop callers,
//	              one of them updating its instance's demands
//
// Every run does a fixed number of ops, derived from -seconds and never
// cut short by time. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. Lines before it
// give the run's metadata, every metric with its unit and sample count,
// and the exact-count fingerprint compared against workloads.json.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// scaled sizes a workload's per-ten-seconds count to the requested run
// length, so the op count depends on -seconds but never on the clock.
func (c config) scaled(per10s int) int {
	return max(1, (per10s*c.seconds+5)/10)
}

// checkError is a correctness failure: an output that is not what the
// program must produce. It names where it happened.
type checkError struct {
	workload string
	op       int
	seed     int64
	msg      string
}

func (e *checkError) Error() string {
	return fmt.Sprintf("correctness failure: workload %s, op %d, seed %d: %s", e.workload, e.op, e.seed, e.msg)
}

func (c config) fail(op int, format string, args ...any) error {
	return &checkError{workload: c.workload, op: op, seed: c.seed, msg: fmt.Sprintf(format, args...)}
}

var workloads = map[string]func(config) (*report, error){
	"dsfrun-dense": runDense,
	"sweep-sparse": runSweep,
	"serve-rw":     runServe,
}

// workloadsJSON documents every workload and holds its recorded
// fingerprints; see fingerprintStatus.
//
//go:embed workloads.json
var workloadsJSON []byte

type workloadDoc struct {
	Workloads map[string]struct {
		Fingerprints map[string]map[string]float64 `json:"fingerprints"`
	} `json:"workloads"`
}

// fingerprintKey identifies the inputs a fingerprint was recorded for.
func fingerprintKey(seed int64, ops int) string { return fmt.Sprintf("seed=%d,ops=%d", seed, ops) }

// fingerprintStatus compares the run's exact counts with the ones
// recorded for the same workload, seed and op count. A mismatch means the
// solvers now compute something else; it is reported, not failed, so a
// deliberate change reads as a change and not as noise.
func fingerprintStatus(cfg config, rep *report) (string, []string) {
	var doc workloadDoc
	if err := json.Unmarshal(workloadsJSON, &doc); err != nil {
		return "unreadable", []string{err.Error()}
	}
	want, ok := doc.Workloads[cfg.workload].Fingerprints[fingerprintKey(cfg.seed, rep.ops)]
	if !ok {
		return "unrecorded", nil
	}
	var diffs []string
	for _, k := range sortedKeys(rep.fingerprint) {
		if w, ok := want[k]; !ok || w != rep.fingerprint[k] {
			diffs = append(diffs, fmt.Sprintf("%s: recorded %v, now %v", k, want[k], rep.fingerprint[k]))
		}
	}
	if len(diffs) > 0 {
		return "mismatch", diffs
	}
	return "match", nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// resultMetric is one entry of the result object's metrics map.
type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: dsfrun-dense, sweep-sparse or serve-rw")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; instances, Zipf draws and update events derive from it")
	flag.IntVar(&cfg.seconds, "seconds", 10, "run length the op count is sized for (ops are fixed, never cut off by time)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	wl, ok := workloads[cfg.workload]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want dsfrun-dense, sweep-sparse or serve-rw)\n", cfg.workload)
		return 2
	case cfg.seconds < 1 || cfg.seconds > 600:
		fmt.Fprintf(os.Stderr, "perfbench: -seconds %d out of range 1..600\n", cfg.seconds)
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintf(os.Stderr, "perfbench: -trace %d: want 0 or 1\n", trace)
		return 2
	}

	rep, err := wl(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		var ce *checkError
		if errors.As(err, &ce) {
			printResult(false, 1, 1, nil)
		}
		return 1
	}

	fpStatus, diffs := fingerprintStatus(cfg, rep)
	meta := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": trace,
		"ops": rep.ops, "commit": commit(), "source_digest": sourceDigest("."),
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"cpu": cpuModel(), "fingerprint": fpStatus,
	}
	metaJSON, _ := json.Marshal(meta) // a map of plain values always encodes
	fmt.Println("meta", string(metaJSON))

	metrics := rep.e2e
	if cfg.trace {
		metrics = fillLayers(rep.layers)
	}
	printed := map[string]bool{}
	for _, m := range metrics {
		fmt.Printf("metric %-36s %14.6g %-6s samples=%d\n", m.Name, m.Value, m.Unit, m.Samples)
		printed[m.Name] = true
	}
	for _, m := range rep.info {
		if printed[m.Name] {
			continue
		}
		fmt.Printf("info   %-36s %14.6g %-6s samples=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	fpJSON, _ := json.Marshal(rep.fingerprint) // float values always encode
	fmt.Printf("fingerprint %s %s %s\n", fpStatus, fingerprintKey(cfg.seed, rep.ops), fpJSON)
	for _, d := range diffs {
		fmt.Println("fingerprint-mismatch", d)
	}
	// A run stops at its first failed op, so a finished run failed none.
	printResult(true, rep.ops, 0, metrics)
	return 0
}

func printResult(correct bool, attempted, failed int, ms []metric) {
	res := struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]resultMetric `json:"metrics"`
	}{correct, attempted, failed, map[string]resultMetric{}}
	for _, m := range ms {
		res.Metrics[m.Name] = resultMetric{m.Value, m.Unit}
	}
	out, _ := json.Marshal(res) // plain values always encode
	fmt.Println(string(out))
}

// commit is the git commit run.sh found, or "unknown" outside a git
// checkout (the source digest identifies the tree either way).
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// traceFile is where a traced run writes its spans.
func traceFile(cfg config) string {
	return filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
}

// splitmix derives the i-th seed of a stream from the workload seed.
func splitmix(seed int64, stream, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	s := int64(z &^ (1 << 63))
	if s == 0 {
		s = 1
	}
	return s
}

// setupRuns is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up (a cold heap, a noisy neighbour) does not
// move it.
const setupRuns = 5

// medianSetup runs setup n times and returns the median duration with the
// state of the last run, which the timed phase then uses. release, when
// non-nil, frees each state that is superseded.
func medianSetup[T any](n int, setup func() (T, error), release func(T)) (T, time.Duration, error) {
	var last T
	durs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && release != nil {
			release(last)
		}
		t0 := time.Now()
		st, err := setup()
		if err != nil {
			return last, 0, err
		}
		durs = append(durs, float64(time.Since(t0)))
		last = st
	}
	return last, time.Duration(percentile(durs, 0.5)), nil
}
