package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// layerMetrics lists every per-layer metric with its unit, in the order
// BENCHMARK.json gives them. A traced run prints all of them; a layer
// the workload never calls into reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"rpc.encode_us", "us"},
	{"rpc.decode_us", "us"},
	{"rpc.bytes_per_call", "B"},
	{"rpc.frames_per_op", "count"},
	{"transport.unix_rtt_us", "us"},
	{"transport.mem_rtt_us", "us"},
	{"daemon.queue_wait_us", "us"},
	{"daemon.jobs_per_op", "count"},
	{"driver.sweep_ms", "ms"},
	{"driver.info_us", "us"},
	{"sweep.rows", "count"},
	{"sweep.missing_rows", "count"},
	{"remote.sweep_decode_us", "us"},
	{"rpc.sweep_reply_kib", "KiB"},
	{"fleet.summaries_us", "us"},
	{"fleet.inventory_us", "us"},
	{"fleet.plan_ms", "ms"},
	{"fleet.refresh_ms", "ms"},
	{"fleet.schedule_ms", "ms"},
	{"fleet.schedule_attempts", "count"},
	{"fleet.sweeps", "count"},
	{"fleet.targeted_fetches", "count"},
	{"fleet.resyncs", "count"},
	{"fleet.fetches_per_event", "count"},
	{"fleet.phantom_active", "count"},
	{"watch.propagate_ms", "ms"},
	{"watch.delivered", "count"},
	{"watch.coalesced", "count"},
	{"watch.dropped", "count"},
	{"migrate.move_ms", "ms"},
	{"migrate.chunks_per_move", "count"},
	{"migrate.iterations", "count"},
	{"migrate.model_total_ms", "ms"},
	{"migrate.model_downtime_ms", "ms"},
	{"scale.settle_s", "s"},
	{"scale.seed_s", "s"},
	{"go.gc_cycles_per_kop", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.heap_peak_mib", "MiB"},
	{"trace.ops_per_s", "1/s"},
	{"trace.spans_per_op", "count"},
	{"self.bench_us_per_op", "us"},
	{"self.core_us_per_op", "us"},
	{"self.fleet_us_per_op", "us"},
	{"self.watch_us_per_op", "us"},
	{"self.migrate_us_per_op", "us"},
}

// endToEndMetrics lists the end-to-end metrics with their units.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"max_rss_mib", "MiB"},
}

// layerSet collects a traced run's per-layer values.
type layerSet map[string]float64

func newLayerSet() layerSet {
	l := layerSet{}
	for _, m := range layerMetrics {
		l[m.name] = 0
	}
	return l
}

// set stores one value; the name must be a declared per-layer metric.
func (l layerSet) set(name string, v float64) {
	if _, ok := l[name]; !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	l[name] = v
}

func (l layerSet) metrics() map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{l[m.name], m.unit}
	}
	return out
}

// window is the measured part of a run, as the traced run's per-layer
// code sees it.
type window struct {
	before, after procSample
	elapsed       time.Duration
	stats         *stats
	heap          *heapSampler
}

// ops is the number of operations the window attempted.
func (w window) ops() float64 { return float64(w.stats.attempted()) }

// counter returns the change of a telemetry counter over the window.
func (w window) counter(name string) float64 {
	return float64(w.after.counters[name] - w.before.counters[name])
}

// telemetry counters the per-layer metrics read.
var sampledCounters = []string{
	"rpc_tx_bytes_total",
	"rpc_tx_frames_total",
	"remote_calls_total",
	"events_delivered_total",
	"events_coalesced_total",
	"events_dropped_total",
	"migration_chunks_tx_total",
}

const queueWaitHistogram = `daemon_queue_wait_seconds{server="govirtd"}`

// procSample is the process state at one instant.
type procSample struct {
	at        time.Time
	cpu       time.Duration // user + system
	mallocs   uint64
	numGC     uint32
	pauseNs   uint64
	maxRSSKiB int64
	counters  map[string]uint64
	queueWait telemetry.HistogramSnapshot
}

func sampleProcess() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := procSample{
		at:        time.Now(),
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:   ms.Mallocs,
		numGC:     ms.NumGC,
		pauseNs:   ms.PauseTotalNs,
		maxRSSKiB: ru.Maxrss,
		counters:  make(map[string]uint64, len(sampledCounters)),
		queueWait: telemetry.Default.Histogram(queueWaitHistogram).Snapshot(),
	}
	for _, name := range sampledCounters {
		s.counters[name] = telemetry.Default.Counter(name).Value()
	}
	return s
}

// heapSampler records the peak live heap while a traced run measures.
type heapSampler struct {
	stopc chan struct{}
	done  sync.WaitGroup
	peak  uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > h.peak {
				h.peak = v.Uint64()
			}
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampler and waits for it.
func (h *heapSampler) stop() {
	close(h.stopc)
	h.done.Wait()
}

// addCommonLayers sets the metrics every workload measures the same
// way: rpc and daemon counters over the window.
func addCommonLayers(l layerSet, w window) {
	if calls := w.counter("remote_calls_total"); calls > 0 {
		l.set("rpc.bytes_per_call", w.counter("rpc_tx_bytes_total")/calls)
	}
	l.set("rpc.frames_per_op", w.counter("rpc_tx_frames_total")/w.ops())
	jobs := w.after.queueWait.Count - w.before.queueWait.Count
	if jobs > 0 {
		l.set("daemon.queue_wait_us", float64(w.after.queueWait.SumNs-w.before.queueWait.SumNs)/float64(jobs)/1e3)
	}
	l.set("daemon.jobs_per_op", float64(jobs)/w.ops())
	l.set("watch.delivered", w.counter("events_delivered_total")/w.ops())
	l.set("watch.coalesced", w.counter("events_coalesced_total")/w.ops())
	l.set("watch.dropped", w.counter("events_dropped_total")/w.ops())
}

// addTraceLayers sets the Go runtime, tracing and self-time metrics.
func addTraceLayers(l layerSet, tr *tracer, w window) {
	ops := w.ops()
	gcs := float64(w.after.numGC - w.before.numGC)
	l.set("go.gc_cycles_per_kop", gcs/ops*1000)
	if gcs > 0 {
		l.set("go.gc_pause_ms", float64(w.after.pauseNs-w.before.pauseNs)/gcs/1e6)
	}
	if w.heap != nil {
		l.set("go.heap_peak_mib", float64(w.heap.peak)/(1<<20))
	}
	l.set("trace.ops_per_s", float64(w.stats.loopOps())/w.elapsed.Seconds())
	l.set("trace.spans_per_op", float64(tr.spanCount())/ops)
	for layer, d := range tr.selfTimes() {
		name := "self." + layer + "_us_per_op"
		if _, ok := l[name]; ok {
			l.set(name, us(d)/ops)
		}
	}
}

// replayCodec times rpc.Marshal and rpc.Unmarshal over the messages a
// workload sends and receives, reps times each, and sets rpc.encode_us
// and rpc.decode_us to the mean per message.
func replayCodec(l layerSet, msgs []interface{}, reps int) error {
	if len(msgs) == 0 {
		return nil
	}
	bufs := make([][]byte, len(msgs))
	var enc, dec time.Duration
	for i, m := range msgs {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			b, err := rpc.Marshal(m)
			if err != nil {
				return fmt.Errorf("marshal %T: %w", m, err)
			}
			bufs[i] = b
		}
		enc += time.Since(t0)
	}
	for i, m := range msgs {
		typ := reflect.TypeOf(m).Elem()
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			v := reflect.New(typ).Interface()
			if err := rpc.Unmarshal(bufs[i], v); err != nil {
				return fmt.Errorf("unmarshal %T: %w", m, err)
			}
		}
		dec += time.Since(t0)
		// The replay must reproduce the message it encoded.
		v := reflect.New(typ).Interface()
		_ = rpc.Unmarshal(bufs[i], v)
		if !reflect.DeepEqual(v, m) {
			return fmt.Errorf("codec replay of %T does not round-trip", m)
		}
	}
	n := float64(len(msgs) * reps)
	l.set("rpc.encode_us", us(enc)/n)
	l.set("rpc.decode_us", us(dec)/n)
	return nil
}

// probeTransport times the same driver-free call (GetHostname) over a
// unix socket and over memnet to one probe daemon, interleaving blocks
// of calls, and sets the median round trip of each.
func probeTransport(l layerSet, dir string, calls int) error {
	d := daemon.New(quiet)
	defer d.Shutdown()
	srv, err := d.AddServer("probe", 1, 2, 1, daemon.ClientLimits{})
	if err != nil {
		return err
	}
	srv.AddProgram(daemon.NewRemoteProgram(srv))
	sock := filepath.Join(dir, "probe.sock")
	if err := srv.ListenUnix(sock, daemon.ServiceConfig{}); err != nil {
		return err
	}
	ep := fmt.Sprintf("perfbench-probe-%d", probeSeq.Add(1))
	if err := srv.ListenMem(ep, daemon.ServiceConfig{}); err != nil {
		return err
	}
	cu, err := core.Open(unixURI("test", "/empty", sock))
	if err != nil {
		return err
	}
	defer cu.Close()
	cm, err := core.Open("test+mem://" + ep + "/empty")
	if err != nil {
		return err
	}
	defer cm.Close()
	conns := []*core.Connect{cu, cm}
	lat := [2][]time.Duration{}
	const block = 100
	for done := 0; done < calls+block; done += block {
		for i, c := range conns {
			for j := 0; j < block; j++ {
				t0 := time.Now()
				if _, err := c.Hostname(); err != nil {
					return err
				}
				if done >= block { // the first block warms both paths up
					lat[i] = append(lat[i], time.Since(t0))
				}
			}
		}
	}
	for i := range lat {
		sort.Slice(lat[i], func(a, b int) bool { return lat[i][a] < lat[i][b] })
	}
	l.set("transport.unix_rtt_us", us(percentile(lat[0], 50)))
	l.set("transport.mem_rtt_us", us(percentile(lat[1], 50)))
	return nil
}

// twinSweep times the in-process twin driver drv, which holds the same
// domains as the workload's daemon: the median bulk sweep, the median
// single DomainInfo of an active domain and the rows a sweep returns.
// It returns the last sweep for the decode replay.
func twinSweep(l layerSet, drv core.DriverConn, sweeps int) (core.NodeInventory, error) {
	var inv core.NodeInventory
	lat := make([]time.Duration, 0, sweeps)
	for i := 0; i <= sweeps; i++ {
		t0 := time.Now()
		if err := core.CollectInventoryInto(drv, &inv); err != nil {
			return inv, err
		}
		if i > 0 {
			lat = append(lat, time.Since(t0))
		}
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	l.set("driver.sweep_ms", ms(percentile(lat, 50)))
	l.set("sweep.rows", float64(len(inv.Domains)))

	var infos []time.Duration
	for rep := 0; rep < 5; rep++ {
		for _, row := range inv.Domains {
			if row.Info.State != core.DomainRunning {
				continue
			}
			t0 := time.Now()
			if _, err := drv.DomainInfo(row.Name); err != nil {
				return inv, err
			}
			infos = append(infos, time.Since(t0))
		}
	}
	sort.Slice(infos, func(a, b int) bool { return infos[a] < infos[b] })
	l.set("driver.info_us", us(percentile(infos, 50)))
	return inv, nil
}

// sweepReply is the NodeInventory reply as the remote driver decodes it.
type sweepReply struct {
	Node    wire.NodeInfoReply
	Domains []core.NamedDomainInfo
}

// replaySweepDecode encodes inv as a NodeInventory reply and times a
// copy of the decode in remote.(*Conn).NodeInventoryInto over it: the
// same reply struct, seeded with the previous reply's row storage and
// model string, through rpc.Unmarshal. The remote driver keeps that
// decode inside its RPC call, so it cannot be timed alone; a change to
// how NodeInventoryInto decodes moves this figure only once the copy
// here is changed to match.
func replaySweepDecode(l layerSet, inv core.NodeInventory, reps int) error {
	src := sweepReply{
		Node: wire.NodeInfoReply{
			Model: inv.Node.Model, MemoryKiB: inv.Node.MemoryKiB, CPUs: uint32(inv.Node.CPUs),
			MHz: uint32(inv.Node.MHz), NUMANodes: uint32(inv.Node.NUMANodes),
			Sockets: uint32(inv.Node.Sockets), Cores: uint32(inv.Node.Cores), Threads: uint32(inv.Node.Threads),
		},
		Domains: inv.Domains,
	}
	data, err := rpc.Marshal(&src)
	if err != nil {
		return err
	}
	l.set("rpc.sweep_reply_kib", float64(len(data))/1024)
	var prev sweepReply
	lat := make([]time.Duration, 0, reps)
	for i := 0; i <= reps; i++ {
		r := sweepReply{Domains: prev.Domains}
		r.Node.Model = prev.Node.Model
		t0 := time.Now()
		if err := rpc.Unmarshal(data, &r); err != nil {
			return err
		}
		if i > 0 {
			lat = append(lat, time.Since(t0))
		}
		prev = r
	}
	if !reflect.DeepEqual(prev.Domains, src.Domains) {
		return fmt.Errorf("sweep decode replay does not round-trip")
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	l.set("remote.sweep_decode_us", us(percentile(lat, 50)))
	return nil
}

// unixURI builds a remote URI for a driver behind a unix socket.
func unixURI(driver, path, sock string) string {
	return driver + "+unix://" + path + "?socket=" + strings.ReplaceAll(sock, "/", "%2F")
}

// probeSeq numbers the probe daemons' memnet endpoints.
var probeSeq atomic.Int64
