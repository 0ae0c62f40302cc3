// Command perfbench is the end-to-end benchmark of the trapquorum
// object store: a loopback fleet of TCP node daemons in this process,
// driven through the public trapquorum.ObjectStore API, with every
// byte read back checked against seed-generated content.
//
// One command, run from the repository root, builds it and prints
// every metric of one workload by name and with its unit, the failed
// and attempted op counts, and a final JSON line:
//
//	bash perfbench/run.sh --workload get-384k --seed 1 --seconds 20 --trace 0
//
// The workloads are get-384k, update-4k and recode-under-load; see
// METRICS.md. --seed fixes every input: object content, key choice,
// the read/write mix and the WriteAt payloads, all generated before
// any timing starts. --seconds is the timed window; recode-under-load
// sizes its drain from it instead. --trace 0 gives the end-to-end
// metrics with no wrapper installed. --trace 1 runs the workload once
// with spans recorded at every layer boundary (client RPC, server
// engine, chunk store, wire bytes), then once untraced, and prints the
// per-layer metrics and the tracing overhead; the spans are written to
// .bench_build/spans-<workload>.tsv.
//
// Two candidates are left out for their measured run-to-run spread on
// a 2-vCPU VM. A 16 MiB streaming workload had a set-up of about 3 ms,
// which differed by 9-11% between two sets of runs, and too few ops
// for a percentile; its encode kernels are still timed by the preloads
// in setup_s and by the recode drain. Fleets on diskstore are the
// other. With real fsync on the VM's disk, a 4 KiB WriteAt's p50
// ranged over 2.44-2.97 ms and set-up over 2.7-4.9 s. Here, five seeds
// gave read_p50_ms an IQR of 20% of its median with fsync on every
// mutation, and ops_s one of 40% without fsync. tmpfs, which would
// avoid both, lies outside the checkout this benchmark may write to.
// So every fleet runs on memstore, and the traced update-4k run
// replays captured chunk-store Puts into a diskstore with default
// options, to keep that layer in the per-layer split.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: get-384k, update-4k or recode-under-load")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run giving the per-layer metrics")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload get-384k|update-4k|recode-under-load, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	work := os.Getenv("CARGO_TARGET_DIR")
	if work == "" {
		work = ".bench_build"
	}
	root, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		fatal(err)
	}

	fmt.Printf("workload %s seed %d seconds %d trace %d GOMAXPROCS %d NumCPU %d\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, root: root}
	var r *report
	if *trace == 1 {
		cfg.spansPath = filepath.Join(work, "spans-"+w.name+".tsv")
		r, err = runTraced(context.Background(), cfg)
	} else {
		r, err = runUntraced(context.Background(), cfg)
	}
	os.RemoveAll(root)
	if err != nil {
		fatal(err)
	}
	r.print(os.Stdout)
	if !r.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type runConfig struct {
	w         *workload
	seed      int64
	seconds   int
	root      string // scratch directory for the diskstore probe
	spansPath string // where the traced run writes its spans
}

// setUp boots a fleet and preloads every object, returning the fleet,
// the set-up's wall time and the preload Puts' latencies.
func setUp(ctx context.Context, cfg runConfig, in *inputs, tr *tracer) (*fleet, time.Duration, []time.Duration, error) {
	w := cfg.w
	quiesce()
	start := time.Now()
	f, err := bootFleet(ctx, w.nodes, w.spares, w.blockSize, tr)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("boot fleet: %w", err)
	}
	lat, err := preload(ctx, f.store, in.keys, in.content, runtime.NumCPU())
	if err != nil {
		f.close()
		return nil, 0, nil, err
	}
	return f, time.Since(start), lat, nil
}

// quiesce runs before every set-up, untimed: it returns the memory a
// torn-down fleet freed to the OS, so every set-up starts from the
// same footprint.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runUntraced measures the end-to-end metrics: w.setups set-ups (all
// but the last torn down), then one timed window on the last fleet.
func runUntraced(ctx context.Context, cfg runConfig) (*report, error) {
	w := cfg.w
	in := genInputs(w, cfg.seed, cfg.seconds)
	var setups, putP50s []float64
	var f *fleet
	for i := 0; i < w.setups; i++ {
		var d time.Duration
		var lat []time.Duration
		var err error
		f, d, lat, err = setUp(ctx, cfg, in, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		putP50s = append(putP50s, ms(percentile(lat, 0.50)))
		if i < w.setups-1 {
			if err := f.close(); err != nil {
				return nil, err
			}
		}
	}
	d := time.Duration(cfg.seconds) * time.Second
	stopCPU := sampleCPU()
	win, err := w.window(ctx, f, in, d)
	cpu := stopCPU()
	if cerr := f.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	r := newReport(win)
	slices := cut(win, w.slices, cpu)
	r.add("setup_s", median(setups), "s")
	r.add("ops_s", sliceMedian(slices, func(s slice) float64 { return float64(s.ops) / s.secs }), "1/s")
	r.add("read_p50_ms", sliceMedian(slices, func(s slice) float64 { return ms(percentile(s.reads, 0.50)) }), "ms")
	r.add("read_p95_ms", sliceMedian(slices, func(s slice) float64 { return ms(percentile(s.reads, 0.95)) }), "ms")
	if len(win.writes) > 0 {
		r.add("write_p50_ms", sliceMedian(slices, func(s slice) float64 { return ms(percentile(s.writes, 0.50)) }), "ms")
	} else {
		r.add("write_p50_ms", median(putP50s), "ms")
	}
	goodput := sliceMedian(slices, func(s slice) float64 { return float64(s.ops) * win.opBytes / 1e6 / s.secs })
	if win.drain > 0 {
		goodput = float64(win.drainBytes) / 1e6 / win.drain.Seconds()
	}
	r.add("goodput_mb_s", goodput, "MB/s")
	r.add("cpu_ms_per_op", sliceMedian(slices, func(s slice) float64 { return ms(s.cpu) / float64(max(s.ops, 1)) }), "ms")
	r.add("peak_rss_mb", peakRSSMB(), "MB")
	var reads []time.Duration
	for _, s := range win.reads {
		reads = append(reads, s.lat)
	}
	r.note(fmt.Sprintf("read_p99_ms %.4g over the whole window (not gated: on update-4k host stalls of 1-2 ms make it spread about 20%% between runs)",
		ms(percentile(reads, 0.99))))
	r.note(fmt.Sprintf("samples: %d reads, %d writes in a %.3f s window cut into %d slices; %d set-ups (setup_s each: %v)",
		len(win.reads), len(win.writes), win.wall.Seconds(), len(slices), w.setups, setups))
	if n := len(win.reads); n < 1000 {
		r.note(fmt.Sprintf("read_p99_ms rests on %d samples, fewer than 10 beyond the p99", n))
	}
	if n := len(win.reads) / len(slices); n < 200 {
		r.note(fmt.Sprintf("read_p95_ms rests on %d samples per slice, fewer than 10 beyond the p95", n))
	}
	return r, nil
}

// slice is one equal part of the timed window, by op issue time.
type slice struct {
	secs          float64
	ops           int
	reads, writes []time.Duration
	cpu           time.Duration
}

// cut splits the window into n equal slices by op issue time. cpu
// gives the process CPU time at an instant.
func cut(win *window, n int, cpu func(time.Time) time.Duration) []slice {
	ss := make([]slice, n)
	width := win.wall / time.Duration(n)
	for i := range ss {
		from := win.start.Add(width * time.Duration(i))
		ss[i].secs = width.Seconds()
		ss[i].cpu = cpu(from.Add(width)) - cpu(from)
	}
	idx := func(at time.Duration) int { return min(max(int(at/width), 0), n-1) }
	for _, s := range win.reads {
		i := idx(s.at)
		ss[i].reads = append(ss[i].reads, s.lat)
		ss[i].ops++
	}
	for _, s := range win.writes {
		i := idx(s.at)
		ss[i].writes = append(ss[i].writes, s.lat)
		ss[i].ops++
	}
	return ss
}

// sliceMedian is the median over the slices of f. A run on a shared
// host sees bursts of other load that last a second or two; the median
// of a few slices of the window keeps one burst from moving the run's
// figure, where a figure over the whole window would take it in.
func sliceMedian(ss []slice, f func(slice) float64) float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = f(s)
	}
	return median(vs)
}

// sampleCPU samples the process CPU time every 10 ms until the
// returned function is called. That function returns the CPU time at
// any instant of the sampled span, interpolated between samples.
func sampleCPU() func() func(time.Time) time.Duration {
	type mark struct {
		at  time.Time
		cpu time.Duration
	}
	marks := []mark{{time.Now(), cpuTime()}}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				marks = append(marks, mark{time.Now(), cpuTime()})
				return
			case <-tick.C:
				marks = append(marks, mark{time.Now(), cpuTime()})
			}
		}
	}()
	return func() func(time.Time) time.Duration {
		close(stop)
		<-done
		return func(t time.Time) time.Duration {
			i := sort.Search(len(marks), func(i int) bool { return !marks[i].at.Before(t) })
			switch {
			case i == 0:
				return marks[0].cpu
			case i == len(marks):
				return marks[len(marks)-1].cpu
			}
			a, b := marks[i-1], marks[i]
			frac := float64(t.Sub(a.at)) / float64(max(b.at.Sub(a.at), 1))
			return a.cpu + time.Duration(frac*float64(b.cpu-a.cpu))
		}
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru rusage
	getrusage(&ru)
	return ru.user + ru.sys
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile is the nearest-rank q-quantile of the durations, 0 for
// none.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// report is one run's output: a line per metric, then the JSON result.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
	notes     []string
	failures  []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(w *window) *report {
	return &report{
		Correct: w.failed == 0, Attempted: max(w.attempted, 1), Failed: w.failed,
		Metrics: map[string]metric{}, failures: w.failures,
	}
}

func (r *report) add(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
}

func (r *report) note(s string) { r.notes = append(r.notes, s) }

func (r *report) print(out *os.File) {
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(out, "%-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(out, "note:", n)
	}
	fmt.Fprintf(out, "failed %d of %d attempted ops\n", r.Failed, r.Attempted)
	for _, f := range r.failures {
		fmt.Fprintln(out, "failure:", f)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(out, string(line))
}
