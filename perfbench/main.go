// Command perfbench is govirt's benchmark. It drives the program in one
// process, only through its public packages, with one of three
// closed-loop workloads generated from a seed:
//
//   - api-calls: two remote clients of one govirtd (test driver, unix
//     socket), so the RPC stack carries the time;
//   - monitor-sweep: bulk inventory sweeps of a qsim govirtd beside an
//     operator issuing writes on a fixed schedule, so the driver and
//     simulator carry the time;
//   - fleet-ops: a fleet controller scheduling, retiring, toggling,
//     migrating and planning across a memnet fleet, so the fleet, watch
//     and migrate layers carry the time.
//
// Every output is checked against a model the benchmark keeps for
// itself. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run records spans around each call the benchmark makes into a layer,
// writes them to a span file when the run ends and reports the
// per-layer metrics instead. See README.md for the workloads, metrics
// and reference figures. Run it through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload api-calls --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/logging"
)

var quiet = logging.NewQuiet(logging.Error)

// size scales a workload's inputs. The benchmark runs at fullSize; the
// package test runs every workload at tinySize with all its checks.
type size struct {
	apiDomains   int           // domains each api-calls client defines
	sweepDomains int           // domains on the monitor-sweep daemon
	writeEvery   time.Duration // monitor-sweep operator schedule
	fleetHosts   int           // fleet-ops daemons
	fleetDomains int           // fleet-ops seeded domains per daemon
}

var (
	fullSize = size{apiDomains: 200, sweepDomains: 300, writeEvery: 10 * time.Millisecond, fleetHosts: 32, fleetDomains: 100}
	tinySize = size{apiDomains: 6, sweepDomains: 12, writeEvery: 2 * time.Millisecond, fleetHosts: 3, fleetDomains: 4}
)

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	size     size   // input sizes
	dir      string // run directory for sockets, relative to the working directory
	spans    string // span file a traced run writes
}

// workload is one system under test plus the load that drives it. A
// fresh value is built for every set-up, so repeated set-ups do the
// same work.
type workload interface {
	// setUp starts the daemons, connects, seeds and warms up.
	setUp() error
	// run drives the load in whole rounds until the deadline passes.
	run(deadline time.Time)
	// verify checks the final state against the model.
	verify()
	// layers adds the traced run's per-layer metrics.
	layers(l layerSet, w window)
	// tearDown stops everything setUp started and waits for it.
	tearDown()
}

// workloads maps a workload name to its constructor.
var workloads = map[string]func(e *env) workload{
	"api-calls":     newAPICalls,
	"monitor-sweep": newMonitorSweep,
	"fleet-ops":     newFleetOps,
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		o       options
		seconds int
		trace   int
	)
	flag.StringVar(&o.workload, "workload", "", "workload: api-calls, monitor-sweep or fleet-ops")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need -seconds >= 1 and -trace 0|1")
		return 2
	}
	o.duration = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	o.size = fullSize
	o.dir = filepath.Join(".bench_build", "run", fmt.Sprintf("%d", os.Getpid()))
	o.spans = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	res, err := execute(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// execute runs one benchmark run: the set-ups, the measured window, the
// checks and, when tracing, the per-layer measurements.
//
// An untraced run cuts the window into windowSlices equal slices and
// sets the system up afresh, setupsPerSlice times, before each slice,
// so the set-ups it times are spread over the whole run rather than
// bunched at its start. A traced run measures the whole window as one
// slice on one set-up.
func execute(o options) (result, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(o.dir)
	e := &env{opts: o, parts: windowSlices}
	perSlice := setupsPerSlice
	if o.trace {
		e.tr = newTracer()
		e.parts, perSlice = 1, 1
	}

	var (
		w      workload
		setups []float64
	)
	defer func() {
		if w != nil {
			tearDown(w)
		}
	}()
	// setUp tears the current system down and sets up a fresh one.
	setUp := func(timed bool) error {
		if w != nil {
			tearDown(w)
			w = nil
		}
		runtime.GC()
		cand := workloads[o.workload](e)
		checks := e.chk.failures()
		t0 := time.Now()
		err := cand.setUp()
		took := time.Since(t0)
		if err == nil && e.chk.failures() > checks {
			err = fmt.Errorf("%d check(s) failed; first of the run: %s", e.chk.failures()-checks, e.chk.first())
		}
		if err != nil {
			tearDown(cand)
			return fmt.Errorf("%s set-up %d: %w", o.workload, len(setups)+1, err)
		}
		if timed {
			setups = append(setups, took.Seconds())
		}
		w = cand
		return nil
	}
	// The first set-up runs cold and is not timed.
	if err := setUp(false); err != nil {
		return result{}, err
	}

	slice := o.duration / time.Duration(e.parts)
	var samples [][2]procSample // each slice's first and last process state
	var heap *heapSampler
	for i := 0; i < e.parts; i++ {
		for j := 0; j < perSlice; j++ {
			if err := setUp(true); err != nil {
				return result{}, err
			}
		}
		e.part = i
		e.tr.clear() // spans from set-up and warm-up are not part of the run
		runtime.GC()
		if o.trace {
			heap = startHeapSampler()
		}
		before := sampleProcess()
		w.run(before.at.Add(slice))
		samples = append(samples, [2]procSample{before, sampleProcess()})
		if heap != nil {
			heap.stop()
		}
		if e.failures() == 0 {
			w.verify()
		}
	}

	st, parts := e.merge()
	res := result{
		Correct:   e.chk.failures() == 0,
		Attempted: st.attempted(),
		Failed:    st.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted == 0 {
		return result{}, errors.New("no operation completed in the measured window")
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d check(s) failed; first: %s\n", e.chk.failures(), e.chk.first())
	}
	if o.trace {
		before, after := samples[0][0], samples[0][1]
		win := window{before: before, after: after, elapsed: after.at.Sub(before.at), stats: st, heap: heap}
		l := newLayerSet()
		w.layers(l, win)
		addTraceLayers(l, e.tr, win)
		if err := e.tr.write(o.spans, o, st.attempted()); err != nil {
			return result{}, fmt.Errorf("span file: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", o.spans)
		res.Metrics = l.metrics()
		return res, nil
	}
	addEndToEnd(res.Metrics, setups, parts, samples)
	logKinds(st, setups)
	return res, nil
}

// logKinds prints each operation kind's count and latency quantiles,
// and the set-up times, to standard error.
func logKinds(st *stats, setups []float64) {
	fmt.Fprintf(os.Stderr, "perfbench: set-ups %.4f s\n", setups)
	all := st.durations(func(k kindInfo) bool { return k.all })
	fmt.Fprintf(os.Stderr, "perfbench: all operations: n=%d p50=%.4f p99=%.4f ms over the whole window\n",
		len(all), ms(percentile(all, 50)), ms(percentile(all, 99)))
	for k, lat := range st.lat {
		if len(lat) == 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: %-16s n=%-8d p10=%.4f p50=%.4f p90=%.4f p99=%.4f ms\n",
			kinds[k].name, len(lat), ms(percentile(lat, 10)), ms(percentile(lat, 50)),
			ms(percentile(lat, 90)), ms(percentile(lat, 99)))
	}
}

// windowSlices is how many equal slices an untraced run's measured
// window is cut into. Each end-to-end figure except setup_s and
// max_rss_mib is taken per slice and reported as the median over the
// slices, so a burst of interference in one part of the window does not
// move it.
const windowSlices = 5

// setupsPerSlice is how many timed set-ups an untraced run makes before
// each slice; setup_s is the median of all of them.
const setupsPerSlice = 2

// tearDownLimit bounds a tear-down. A normal one takes milliseconds.
const tearDownLimit = 5 * time.Second

// tearDown tears w down, giving up after tearDownLimit:
// fleet.Registry.Close can deadlock against a watch event in flight
// (F3 in README.md), and a run must still end. An abandoned tear-down
// leaves its goroutines blocked until the process exits.
func tearDown(w workload) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.tearDown()
	}()
	select {
	case <-done:
	case <-time.After(tearDownLimit):
		fmt.Fprintf(os.Stderr, "perfbench: tear-down still blocked after %v; abandoned (F3)\n", tearDownLimit)
	}
}

// addEndToEnd fills the metrics a user of the system would see. samples
// holds the process state at the start and the end of each slice.
func addEndToEnd(m map[string]metric, setups []float64, parts []*stats, samples [][2]procSample) {
	var rate, p50, p99, read, write, cpu, allocs []float64
	for i, st := range parts {
		ops := float64(st.loopOps())
		if ops == 0 {
			continue
		}
		from, to := samples[i][0], samples[i][1]
		rate = append(rate, ops/to.at.Sub(from.at).Seconds())
		all := st.durations(func(k kindInfo) bool { return k.all })
		p50 = append(p50, ms(percentile(all, 50)))
		p99 = append(p99, ms(percentile(all, 99)))
		read = append(read, ms(percentile(st.durations(func(k kindInfo) bool { return k.class == classRead }), 50)))
		write = append(write, ms(percentile(st.durations(func(k kindInfo) bool { return k.class == classWrite }), 50)))
		cpu = append(cpu, float64(to.cpu-from.cpu)/1e6/ops)
		allocs = append(allocs, float64(to.mallocs-from.mallocs)/ops)
	}
	m["setup_s"] = metric{median(setups), "s"}
	m["ops_per_s"] = metric{median(rate), "1/s"}
	m["p50_ms"] = metric{median(p50), "ms"}
	m["p99_ms"] = metric{median(p99), "ms"}
	m["read_p50_ms"] = metric{median(read), "ms"}
	m["write_p50_ms"] = metric{median(write), "ms"}
	m["cpu_ms_per_op"] = metric{median(cpu), "ms"}
	m["allocs_per_op"] = metric{median(allocs), "count"}
	m["max_rss_mib"] = metric{float64(samples[len(samples)-1][1].maxRSSKiB) / 1024, "MiB"}
}

// median returns the median of xs (0 for none).
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

// percentile returns the nearest-rank p-th percentile of sorted ds.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	idx := int(float64(len(ds))*p/100+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ds) {
		idx = len(ds) - 1
	}
	return ds[idx]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
