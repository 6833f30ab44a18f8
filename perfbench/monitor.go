package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/drivers/qemu"
	"repro/internal/drivers/remote"
	drvtest "repro/internal/drivers/test"
	"repro/internal/wire"
)

// operatorDeck is one round of monitor-sweep operator writes.
var operatorDeck = []kind{kSetMem, kSetMem, kSetMem, kSetMem, kPause, kPause, kPause, kLifecycle, kLifecycle, kLifecycle}

// sweepDomain is a modelDomain plus two versions, each odd while a
// write to the domain is in flight and bumped again when it has
// answered: ver counts every write, destroys only destroys.
type sweepDomain struct {
	modelDomain
	ver      uint32
	destroys uint32
}

// monitorSweep is the monitor-sweep workload: one govirtd on the qsim
// driver behind a unix socket and one connection shared by a
// closed-loop sweeper and an operator writing on a fixed schedule.
type monitorSweep struct {
	e       *env
	d       *daemon.Daemon
	conn    *core.Connect
	doms    []*sweepDomain
	index   map[string]int // domain name → position in doms; read-only after set-up
	rng     *rand.Rand     // operator's generator
	turns   turns          // operator's write directions
	mu      sync.Mutex     // guards the model while the operator writes
	inv     core.NodeInventory
	vers    []uint32        // sweeper scratch: versions before a sweep
	dvers   []uint32        // sweeper scratch: destroy versions before a sweep
	seen    []bool          // sweeper scratch: rows seen in a sweep
	missing int             // rows of defined domains a sweep left out
	late    []time.Duration // how late the operator issued each write
}

func newMonitorSweep(e *env) workload { return &monitorSweep{e: e} }

func (m *monitorSweep) setUp() error {
	qemu.Register(quiet)
	drvtest.Register(quiet)
	remote.Register()
	sock := filepath.Join(m.e.opts.dir, "qsim.sock")
	var err error
	if m.d, err = startDaemon(sock); err != nil {
		return err
	}
	if m.conn, err = core.Open(unixURI("qsim", "/system", sock)); err != nil {
		return err
	}
	m.rng = rand.New(rand.NewSource(m.e.opts.seed))
	n := m.e.opts.size.sweepDomains
	m.index = make(map[string]int, n)
	for i, sh := range shapes(m.rng, n, 256, 17) {
		d := &sweepDomain{modelDomain: modelDomain{
			name: fmt.Sprintf("m%03d", i), vcpus: sh.vcpus, state: core.DomainShutoff,
		}}
		d.defKiB, d.curKiB = sh.memMiB*1024, sh.memMiB*1024
		if d.dom, err = m.conn.DefineDomain(domainXML("qsim", d.name, sh.memMiB, d.vcpus, 2000)); err != nil {
			return err
		}
		d.uuid = d.dom.UUID()
		if sh.running {
			if err := d.dom.Create(); err != nil {
				return err
			}
			d.state = core.DomainRunning
		}
		m.index[d.name] = i
		m.doms = append(m.doms, d)
	}
	// Warm-up: sweeps and one unrecorded operator round.
	for i := 0; i < 10; i++ {
		if err := m.sweep(&recorder{}); err != nil {
			return err
		}
	}
	warm := &recorder{}
	for _, k := range operatorDeck {
		m.write(warm, k, time.Now())
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d write(s) failed", warm.failed)
	}
	m.late, m.missing = m.late[:0], 0
	return nil
}

func (m *monitorSweep) run(deadline time.Time) {
	var wg sync.WaitGroup
	sweeper := m.e.recorder(false)
	operator := m.e.recorder(true)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			if err := m.sweep(sweeper); err != nil {
				m.e.fail(sweeper, "sweep", err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		every := m.e.opts.size.writeEvery
		due := time.Now()
		for time.Now().Before(deadline) {
			deck := append([]kind(nil), operatorDeck...)
			m.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			for _, k := range deck {
				due = due.Add(every)
				waitUntil(due)
				m.write(operator, k, due)
			}
		}
	}()
	wg.Wait()
}

// sweep runs one bulk sweep and checks it: every defined domain exactly
// once, and the rows of domains no write touched meanwhile as modelled.
func (m *monitorSweep) sweep(rec *recorder) error {
	tr := m.e.tr
	op := tr.op()
	root := tr.begin("bench:sweep", -1, op)
	defer tr.end(root)
	vers, dvers := m.vers[:0], m.dvers[:0]
	m.mu.Lock()
	for _, d := range m.doms {
		vers = append(vers, d.ver)
		dvers = append(dvers, d.destroys)
	}
	m.mu.Unlock()
	m.vers, m.dvers = vers, dvers

	t0 := time.Now()
	sp := tr.begin("core:NodeInventoryInto", root, op)
	err := m.conn.NodeInventoryInto(&m.inv)
	tr.end(sp)
	took := time.Since(t0)
	if err != nil {
		return err
	}
	rec.add(kSweep, took)
	m.checkSweep(vers, dvers)
	return nil
}

// checkSweep checks m.inv against the model: every defined domain at
// most once, and exactly once unless a destroy of it overlapped the
// sweep. Nil vers and dvers check every row; otherwise only rows of
// domains whose version is even and unchanged since vers was taken.
func (m *monitorSweep) checkSweep(vers, dvers []uint32) {
	chk := &m.e.chk
	if len(m.seen) != len(m.doms) {
		m.seen = make([]bool, len(m.doms))
	}
	seen := m.seen
	clear(seen)
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, row := range m.inv.Domains {
		i, ok := m.index[row.Name]
		if !ok {
			chk.failf("sweep returned unknown domain %q", row.Name)
			continue
		}
		if seen[i] {
			chk.failf("sweep returned %s twice", row.Name)
		}
		seen[i] = true
		d := m.doms[i]
		if vers != nil && (vers[i]%2 == 1 || d.ver != vers[i]) {
			continue // a write to this domain overlapped the sweep
		}
		if want := d.expectInfo(); !infoMatches(row.Info, want) {
			chk.failf("sweep row %s: got %+v, want %+v", d.name, row.Info, want)
		}
	}
	for i, d := range m.doms {
		if seen[i] {
			continue
		}
		if dvers != nil && (dvers[i]%2 == 1 || d.destroys != dvers[i]) {
			// Destroyed while the sweep ran: the driver drops the row
			// of a domain that is still defined (see README.md).
			m.missing++
			continue
		}
		chk.failf("sweep omitted %s", d.name)
	}
}

// write issues one operator write due at due and times it from then.
func (m *monitorSweep) write(rec *recorder, k kind, due time.Time) {
	tr := m.e.tr
	op := tr.op()
	root := tr.begin(rootSpan[k], -1, op)
	defer tr.end(root)

	m.mu.Lock()
	var d *sweepDomain
	switch k {
	case kLifecycle:
		d = m.pick(m.turns.lifecycle())
	case kPause:
		d = m.pick(m.turns.pause())
	case kSetMem:
		d = m.pick(isActive)
	}
	if d == nil { // no domain in the state the operation needs
		k, d = kLifecycle, m.pick(anyDomain)
	}
	kib := d.defKiB / 4 * uint64(2+m.rng.Intn(3))
	state := d.state
	destroy := k == kLifecycle && state != core.DomainShutoff
	d.ver++
	if destroy {
		d.destroys++
	}
	m.mu.Unlock()

	m.late = append(m.late, time.Since(due))
	var (
		err  error
		next = state
		name string
	)
	switch {
	case k == kSetMem:
		name = "core:Domain.SetMemory"
	case k == kPause && state == core.DomainPaused:
		name, next = "core:Domain.Resume", core.DomainRunning
	case k == kPause:
		name, next = "core:Domain.Suspend", core.DomainPaused
	case state == core.DomainShutoff:
		name, next = "core:Domain.Create", core.DomainRunning
	default:
		name, next = "core:Domain.Destroy", core.DomainShutoff
	}
	sp := tr.begin(name, root, op)
	switch name {
	case "core:Domain.SetMemory":
		err = d.dom.SetMemory(kib)
	case "core:Domain.Resume":
		err = d.dom.Resume()
	case "core:Domain.Suspend":
		err = d.dom.Suspend()
	case "core:Domain.Create":
		err = d.dom.Create()
	default:
		err = d.dom.Destroy()
	}
	tr.end(sp)
	took := time.Since(due)

	m.mu.Lock()
	if err == nil {
		switch {
		case k == kSetMem:
			d.curKiB = kib
		case next == core.DomainShutoff:
			d.state, d.curKiB = next, d.defKiB
		default:
			d.state = next
		}
	}
	d.ver++
	if destroy {
		d.destroys++
	}
	m.mu.Unlock()
	if err != nil {
		m.e.fail(rec, kinds[k].name+" "+d.name, err)
		return
	}
	rec.add(k, took)
}

// pick returns a seeded domain satisfying ok; the caller holds m.mu.
func (m *monitorSweep) pick(ok func(*modelDomain) bool) *sweepDomain {
	start := m.rng.Intn(len(m.doms))
	for i := range m.doms {
		if d := m.doms[(start+i)%len(m.doms)]; ok(&d.modelDomain) {
			return d
		}
	}
	return nil
}

func (m *monitorSweep) verify() {
	if err := m.conn.NodeInventoryInto(&m.inv); err != nil {
		m.e.chk.failf("final sweep: %v", err)
		return
	}
	m.checkSweep(nil, nil)
}

func (m *monitorSweep) layers(l layerSet, w window) {
	addCommonLayers(l, w)
	chk := &m.e.chk
	if len(m.late) > 0 {
		lateSorted := append([]time.Duration(nil), m.late...)
		slices.Sort(lateSorted)
		fmt.Fprintf(os.Stderr, "perfbench: operator issued writes %.3f ms late (median), %.3f ms (p99)\n",
			ms(percentile(lateSorted, 50)), ms(percentile(lateSorted, 99)))
	}
	if n := w.stats.count(kSweep); n > 0 {
		l.set("sweep.missing_rows", float64(m.missing)/float64(n))
	}
	doms := make([]*modelDomain, len(m.doms))
	var msgs []interface{}
	for i, d := range m.doms {
		doms[i] = &d.modelDomain
		msgs = append(msgs, &wire.NameArgs{Name: d.name}, &wire.SetMemoryArgs{Name: d.name, MemKiB: d.curKiB})
	}
	if err := replayCodec(l, msgs, 50); err != nil {
		chk.failf("codec replay: %v", err)
	}
	if err := probeTransport(l, m.e.opts.dir, 2000); err != nil {
		chk.failf("transport probe: %v", err)
	}
	twin, err := twinOf("qsim", doms)
	if err != nil {
		chk.failf("twin driver: %v", err)
		return
	}
	defer twin.Close()
	inv, err := twinSweep(l, twin, 20)
	if err != nil {
		chk.failf("twin sweep: %v", err)
		return
	}
	if err := replaySweepDecode(l, inv, 200); err != nil {
		chk.failf("sweep decode replay: %v", err)
	}
}

func (m *monitorSweep) tearDown() {
	if m.conn != nil {
		m.conn.Close()
	}
	if m.d != nil {
		m.d.Shutdown()
	}
}
