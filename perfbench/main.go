// Command perfbench is the serving benchmark. It hosts the stack adhocserve
// deploys — engine, KV store and server on loopback, wired to one obs
// registry, with a disk WAL and background checkpoints on the durable
// workload — in its own process, drives it through internal/client with two
// pooled connections, checks the workload's correctness oracle, and prints
// one JSON result as its last line of output.
//
//	bash perfbench/run.sh --workload forum-browse --seed 1 --seconds 30 --trace 0
//
// Each run sets up several times (setup_s is their median), warms up, runs
// a closed-loop phase and an open-loop phase, then runs the oracle. With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it times a
// closed-loop stretch untraced, then traces the rest and reports the
// per-layer metrics and writes the spans under .bench_build/spans.
// BENCHMARK.json at the repository root names the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Each run sets the stack up at least minSetups times and until setupBudget
// has passed, at most maxSetups times; setup_s is the median. Cheap set-ups
// repeat more, so their median stays steady.
const (
	minSetups   = 3
	maxSetups   = 50
	setupBudget = 2 * time.Second
)

// checkpointEvery is the background checkpoint interval on the durable
// workload: two checkpoints in each 15 s phase of a 30 s run, the last one
// 3 s before the phase ends. Each stalls the engine for about half a second
// and writes and syncs a 30-40 MB file; with one every 4 s, the workload's
// figures varied more from run to run.
const checkpointEvery = 6 * time.Second

type config struct {
	w     *workload
	seed  int64
	dur   time.Duration
	trace bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli runs the benchmark and returns the exit code: 0 for correct runs, 1
// if a run failed or an oracle found a violation, 2 for bad arguments.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: checkout-hot, forum-browse, orders-durable or all")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "measured seconds (closed-loop plus open-loop phase)")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ws := workloads
	if *name != "all" {
		ws = nil
		if w := workloadByName(*name); w != nil {
			ws = []*workload{w}
		}
	}
	if len(ws) == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s, or all), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	code := 0
	for _, w := range ws {
		cfg := config{w: w, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
		code = max(code, runOne(cfg, stdout, stderr))
	}
	return code
}

// runOne runs one workload and prints its host line and result line.
func runOne(cfg config, stdout, stderr io.Writer) int {
	w := cfg.w
	host, _ := json.Marshal(hostInfo(cfg))
	fmt.Fprintf(stdout, "%s\n", host)
	res, violation, err := run(cfg, nil)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if violation != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: oracle violation:\n%s\n", w.name, cfg.seed, firstLines(violation.Error(), 20))
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if violation != nil {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func firstLines(s string, n int) string {
	lines := strings.Split(s, "\n")
	if len(lines) > n {
		lines = append(lines[:n], fmt.Sprintf("... and %d more", len(lines)-n))
	}
	return strings.Join(lines, "\n")
}

// hostInfo stamps a report with the host and the inputs.
func hostInfo(cfg config) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{"host": map[string]any{
		"cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "commit": commit,
	}, "workload": cfg.w.name, "seed": cfg.seed, "seconds": cfg.dur.Seconds(), "trace": cfg.trace}
}

// tamper, when set (tests only), alters the outcome after the run, before
// the stack shuts down and the oracle runs.
type tamper func(s *stack, l *ledger) error

// run performs one benchmark run. It returns the result (Correct false on
// an oracle violation, which is also returned) or an error that prevents
// any result.
func run(cfg config, tamp tamper) (*result, error, error) {
	w := cfg.w
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	if err := os.MkdirAll(filepath.Join(".bench_build", "data"), 0o755); err != nil {
		return nil, nil, err
	}

	var s *stack
	var setups, recovers []float64
	for begin := time.Now(); len(setups) < minSetups || (len(setups) < maxSetups && time.Since(begin) < setupBudget); {
		i := len(setups)
		if s != nil {
			if err := discard(s); err != nil {
				return nil, nil, err
			}
			s = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if s, err = build(w, cfg.seed, dataDir(w, i), tr); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		recovers = append(recovers, float64(s.recover)/1e6)
	}
	closed := false
	defer func() {
		if !closed {
			_ = discard(s)
		}
	}()

	// Streams: 0-1 warm-up, 2-3 closed loop, 4-5 untraced closed loop of a
	// traced run, 9 open loop.
	closedLoop(s, cfg.seed, 0, cfg.dur/10, nil)

	m := &measure{s: s, tr: tr, cfg: cfg}
	if cfg.trace {
		m.untraced = m.closedPhase(4, cfg.dur/4)
		tr.on.Store(true)
		m.start()
		m.closed = m.closedPhase(2, cfg.dur/4)
	} else {
		m.start()
		m.closed = m.closedPhase(2, cfg.dur/2)
	}
	m.open = m.openPhase(9, cfg.dur/2)
	m.stop()
	if tr != nil {
		tr.on.Store(false)
	}

	l := s.merged()
	if tamp != nil {
		if err := tamp(s, &l); err != nil {
			return nil, nil, err
		}
	}
	closed = true
	cerr := s.close()
	violation := check(s, l)
	if m.ckptErr != nil {
		violation = errors.Join(violation, m.ckptErr)
	}
	if cerr != nil {
		violation = errors.Join(violation, fmt.Errorf("shutdown: %w", cerr))
	}
	removeDirs(w)

	res := &result{Correct: violation == nil, Metrics: map[string]metric{}}
	for _, p := range []*phase{&m.closed, &m.open} {
		a, f := p.counts()
		res.Attempted += a
		res.Failed += f
	}
	if cfg.trace {
		// Tracing is off: no span is added from here on.
		spans := tr.all()
		link(spans)
		m.perLayer(res.Metrics, spans, recovers)
		if err := writeSpans(filepath.Join(".bench_build", "spans", w.name+".jsonl"), spans); err != nil {
			return nil, nil, err
		}
	} else {
		m.endToEnd(res.Metrics, median(setups))
	}
	return res, violation, nil
}

// discard closes a stack and deletes its data directory.
func discard(s *stack) error {
	err := s.close()
	if s.dir != "" {
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// removeDirs deletes this process's data directories.
func removeDirs(w *workload) {
	for i := 0; i < maxSetups; i++ {
		_ = os.RemoveAll(dataDir(w, i))
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set size in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // kilobytes on Linux
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
