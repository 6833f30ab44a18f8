package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// kind names one timed operation type. Each kind belongs to at most one
// latency class and says whether it counts as an operation.
type kind int

const (
	// api-calls
	kInfo      kind = iota // lookup + Info
	kXML                   // DomainXML
	kNodeInfo              // NodeInfo
	kStats                 // DomainStats
	kDefine                // define + undefine a scratch domain
	kLifecycle             // create or destroy
	kPause                 // suspend or resume
	kSetMem                // SetMemory

	// monitor-sweep (its operator reuses kLifecycle, kPause and kSetMem)
	kSweep // NodeInventoryInto

	// fleet-ops
	kSchedule    // Registry.Schedule
	kRetire      // destroy + undefine on the domain's host
	kToggle      // toggleWrite + propagate, as one operation
	kToggleWrite // the create or destroy call of a toggle
	kPropagate   // from the daemon's answer until the registry's record shows it
	kMigrate     // migrate.MigrateContext between two hosts
	kPlan        // dry-run PlanRebalance over the registry inventory

	numKinds
)

type latencyClass int

const (
	classNone latencyClass = iota
	classRead
	classWrite
)

// kindInfo describes a kind. all marks kinds that are operations: they
// count as attempted, enter p50_ms/p99_ms and, unless an open-loop
// recorder took them, count for ops_per_s. class feeds
// read_p50_ms/write_p50_ms.
type kindInfo struct {
	name  string
	class latencyClass
	all   bool
}

var kinds = [numKinds]kindInfo{
	kInfo:        {"info", classRead, true},
	kXML:         {"xml", classRead, true},
	kNodeInfo:    {"nodeinfo", classRead, true},
	kStats:       {"stats", classRead, true},
	kDefine:      {"define-undefine", classWrite, true},
	kLifecycle:   {"create-destroy", classWrite, true},
	kPause:       {"suspend-resume", classWrite, true},
	kSetMem:      {"setmem", classWrite, true},
	kSweep:       {"sweep", classRead, true},
	kSchedule:    {"schedule", classWrite, true},
	kRetire:      {"retire", classNone, true},
	kToggle:      {"toggle", classNone, true},
	kToggleWrite: {"toggle-write", classNone, false},
	kPropagate:   {"propagate", classRead, false},
	kMigrate:     {"migrate", classNone, true},
	kPlan:        {"plan", classNone, true},
}

// rootSpan names each kind's operation span ("bench:<kind>").
var rootSpan = func() (out [numKinds]string) {
	for k := range kinds {
		out[k] = "bench:" + kinds[k].name
	}
	return out
}()

// recorder collects one load goroutine's latencies in one slice of the
// measured window; it is not shared. Latencies are kept as nanoseconds
// in 32 bits, so the benchmark's own bookkeeping adds little to the
// process's memory.
type recorder struct {
	part     int // the window slice
	lat      [numKinds][]uint32
	failed   int64
	openLoop bool // operator writes: counted as operations but not as closed-loop ones
}

func (r *recorder) add(k kind, d time.Duration) {
	r.lat[k] = append(r.lat[k], uint32(min(d, math.MaxUint32)))
}

// stats is the merge of every recorder of a run.
type stats struct {
	lat    [numKinds][]time.Duration // each sorted
	loop   [numKinds]int64
	failed int64
}

// attempted counts the operations tried: completed plus failed.
func (s *stats) attempted() int64 {
	n := s.failed
	for k := range s.lat {
		if kinds[k].all {
			n += int64(len(s.lat[k]))
		}
	}
	return n
}

// loopOps counts the completed closed-loop operations.
func (s *stats) loopOps() int64 {
	var n int64
	for k := range s.loop {
		n += s.loop[k]
	}
	return n
}

// durations returns the sorted latencies of every kind keep selects.
func (s *stats) durations(keep func(kindInfo) bool) []time.Duration {
	var out []time.Duration
	for k := range s.lat {
		if keep(kinds[k]) {
			out = append(out, s.lat[k]...)
		}
	}
	slices.Sort(out)
	return out
}

// count returns the number of completed operations of kind k.
func (s *stats) count(k kind) int64 { return int64(len(s.lat[k])) }

// env is what the workloads share with the harness: the options, the
// tracer, the correctness checker and the recorders of the run.
type env struct {
	opts  options
	tr    *tracer
	chk   checker
	parts int // slices of the measured window
	part  int // the slice being measured

	mu   sync.Mutex
	recs []*recorder
}

// recorder returns a new recorder for one load goroutine in the slice
// being measured. openLoop marks a goroutine whose operations are not
// closed-loop ones.
func (e *env) recorder(openLoop bool) *recorder {
	r := &recorder{part: e.part, openLoop: openLoop}
	e.mu.Lock()
	e.recs = append(e.recs, r)
	e.mu.Unlock()
	return r
}

// fail records an operation that returned an error.
func (e *env) fail(r *recorder, op string, err error) {
	r.failed++
	e.chk.log(fmt.Sprintf("%s failed: %v", op, err))
}

// failures counts failed operations so far.
func (e *env) failures() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var n int64
	for _, r := range e.recs {
		n += r.failed
	}
	return n
}

// merge combines the recorders once the load goroutines have ended:
// the whole window, and each of its slices.
func (e *env) merge() (*stats, []*stats) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := &stats{}
	parts := make([]*stats, e.parts)
	for i := range parts {
		parts[i] = &stats{}
	}
	for _, r := range e.recs {
		st.failed += r.failed
		p := parts[r.part]
		for k, lat := range r.lat {
			for _, ns := range lat {
				p.lat[k] = append(p.lat[k], time.Duration(ns))
			}
			if kinds[k].all && !r.openLoop {
				p.loop[k] += int64(len(lat))
			}
		}
	}
	for _, p := range parts {
		for k := range p.lat {
			st.lat[k] = append(st.lat[k], p.lat[k]...)
			st.loop[k] += p.loop[k]
		}
	}
	for _, s := range append(parts, st) {
		for k := range s.lat {
			slices.Sort(s.lat[k])
		}
	}
	return st, parts
}

// checker counts outputs that disagree with the model.
type checker struct {
	mu    sync.Mutex
	n     int64
	msgs  []string
	notes int
}

// failf records one disagreement.
func (c *checker) failf(format string, args ...interface{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if len(c.msgs) < 5 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// log prints a diagnostic, at most a few per run.
func (c *checker) log(msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.notes < 5 {
		c.notes++
		fmt.Fprintln(os.Stderr, "perfbench:", msg)
	}
}

func (c *checker) failures() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *checker) first() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.msgs) == 0 {
		return ""
	}
	return c.msgs[0]
}

// spinFor is how long a polling wait yields the processor instead of
// sleeping. A Go timer sleep shorter than a millisecond can overshoot to
// about a millisecond when the process is otherwise idle, which would
// swamp the sub-millisecond latencies the waits time.
const spinFor = 2 * time.Millisecond

// pause is one step of a polling wait that has run for waited: a yield
// for the first spinFor, a short sleep after that.
func pause(waited time.Duration) {
	if waited < spinFor {
		runtime.Gosched()
		return
	}
	time.Sleep(100 * time.Microsecond)
}

// waitUntil returns at t. It sleeps in the kernel rather than on a Go
// timer, which can overshoot a sub-millisecond deadline by about a
// millisecond when the process is otherwise idle.
func waitUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}
