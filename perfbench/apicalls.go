package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/drivers/remote"
	drvtest "repro/internal/drivers/test"
	"repro/internal/uri"
	"repro/internal/wire"
	"repro/internal/xmlspec"
)

// apiDeck is one round of an api-calls client: 14 reads and 6 writes,
// shuffled per round by the client's seeded generator.
var apiDeck = []kind{
	kInfo, kInfo, kInfo, kInfo, kInfo, kInfo,
	kXML, kXML, kXML,
	kNodeInfo, kNodeInfo,
	kStats, kStats, kStats,
	kDefine,
	kLifecycle, kLifecycle,
	kPause, kPause,
	kSetMem,
}

// apiClients is the number of client connections (and load goroutines).
const apiClients = 2

// modelDomain is the benchmark's own record of one domain.
type modelDomain struct {
	name   string
	uuid   string
	defKiB uint64 // defined memory
	curKiB uint64 // current balloon while active
	vcpus  int
	state  core.DomainState
	dom    *core.Domain
}

// expectInfo is the DomainInfo the model predicts for d.
func (d *modelDomain) expectInfo() core.DomainInfo {
	if d.state == core.DomainShutoff {
		return core.DomainInfo{State: core.DomainShutoff, MaxMemKiB: d.defKiB, VCPUs: d.vcpus}
	}
	return core.DomainInfo{State: d.state, MaxMemKiB: d.defKiB, MemKiB: d.curKiB, VCPUs: d.vcpus}
}

// infoMatches compares the fields the model predicts (CPU time is the
// simulator's own clock and is not modelled).
func infoMatches(got, want core.DomainInfo) bool {
	return got.State == want.State && got.MaxMemKiB == want.MaxMemKiB &&
		got.MemKiB == want.MemKiB && got.VCPUs == want.VCPUs
}

// domainXML is the definition the benchmark uses for every domain.
func domainXML(driver, name string, memMiB uint64, vcpus int, dirty int) string {
	return fmt.Sprintf(`<domain type='%s'><name>%s</name><description>cpu_util=0.3 dirty_pages_sec=%d</description><memory unit='MiB'>%d</memory><vcpu>%d</vcpu><os><type arch='x86_64'>hvm</type></os></domain>`,
		driver, name, dirty, memMiB, vcpus)
}

// apiClient is one client connection with the domains it defined.
type apiClient struct {
	id      int
	conn    *core.Connect
	rng     *rand.Rand
	doms    []*modelDomain
	node    core.NodeInfo
	scratch string
	turns   turns
}

// apiCalls is the api-calls workload: one govirtd on the test driver
// behind a unix socket, two client connections, each a closed loop over
// its own seeded domains.
type apiCalls struct {
	e       *env
	d       *daemon.Daemon
	sock    string
	clients []*apiClient
}

func newAPICalls(e *env) workload { return &apiCalls{e: e} }

// startDaemon starts a govirtd with one unix listener at sock.
func startDaemon(sock string) (*daemon.Daemon, error) {
	d := daemon.New(quiet)
	srv, err := d.AddServer("govirtd", 2, 8, 2, daemon.ClientLimits{MaxClients: 64})
	if err != nil {
		d.Shutdown()
		return nil, err
	}
	srv.AddProgram(daemon.NewRemoteProgram(srv))
	if err := srv.ListenUnix(sock, daemon.ServiceConfig{}); err != nil {
		d.Shutdown()
		return nil, err
	}
	return d, nil
}

func (a *apiCalls) setUp() error {
	drvtest.Register(quiet)
	remote.Register()
	a.sock = filepath.Join(a.e.opts.dir, "api.sock")
	var err error
	a.d, err = startDaemon(a.sock)
	if err != nil {
		return err
	}
	n := a.e.opts.size.apiDomains
	for i := 0; i < apiClients; i++ {
		conn, err := core.Open(unixURI("test", "/empty", a.sock))
		if err != nil {
			return err
		}
		cl := &apiClient{
			id: i, conn: conn,
			rng:     rand.New(rand.NewSource(a.e.opts.seed*1000 + int64(i))),
			scratch: fmt.Sprintf("c%d-scratch", i),
		}
		a.clients = append(a.clients, cl)
		if cl.node, err = conn.NodeInfo(); err != nil {
			return err
		}
		for j, sh := range shapes(cl.rng, n, 128, 4) {
			md := &modelDomain{name: fmt.Sprintf("c%d-%03d", i, j), vcpus: sh.vcpus}
			md.defKiB, md.curKiB = sh.memMiB*1024, sh.memMiB*1024
			if md.dom, err = conn.DefineDomain(domainXML("test", md.name, sh.memMiB, md.vcpus, 800)); err != nil {
				return err
			}
			md.uuid = md.dom.UUID()
			md.state = core.DomainShutoff
			if sh.running {
				if err := md.dom.Create(); err != nil {
					return err
				}
				md.state = core.DomainRunning
			}
			cl.doms = append(cl.doms, md)
		}
	}
	// Warm-up: unrecorded rounds per client.
	for _, cl := range a.clients {
		warm := &recorder{}
		for r := 0; r < 50; r++ {
			a.round(cl, warm)
		}
		if warm.failed > 0 {
			return fmt.Errorf("warm-up: %d operation(s) failed", warm.failed)
		}
	}
	return nil
}

func (a *apiCalls) run(deadline time.Time) {
	var wg sync.WaitGroup
	for _, cl := range a.clients {
		wg.Add(1)
		rec := a.e.recorder(false)
		go func(cl *apiClient) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				a.round(cl, rec)
			}
		}(cl)
	}
	wg.Wait()
}

// round runs one shuffled deck of operations.
func (a *apiCalls) round(cl *apiClient, rec *recorder) {
	deck := append([]kind(nil), apiDeck...)
	cl.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	for _, k := range deck {
		a.do(cl, rec, k)
	}
}

// shape is a domain's seeded size and initial state.
type shape struct {
	memMiB  uint64
	vcpus   int
	running bool
}

// shapes returns n domain shapes in the same proportions for every
// seed — memory in steps of stepMiB up to 4 steps, 1/2/4 vCPUs, and a
// share of runningPer20 in 20 started — with the seed choosing which
// domain gets which, so seeds differ in their inputs but not in the
// work a sweep or a round does.
func shapes(rng *rand.Rand, n int, stepMiB uint64, runningPer20 int) []shape {
	mem := make([]uint64, n)
	vcpus := make([]int, n)
	running := make([]bool, n)
	for i := 0; i < n; i++ {
		mem[i] = stepMiB * uint64(1+i%4)
		vcpus[i] = []int{1, 2, 4}[i%3]
		running[i] = i%20 < runningPer20
	}
	rng.Shuffle(n, func(i, j int) { mem[i], mem[j] = mem[j], mem[i] })
	rng.Shuffle(n, func(i, j int) { vcpus[i], vcpus[j] = vcpus[j], vcpus[i] })
	rng.Shuffle(n, func(i, j int) { running[i], running[j] = running[j], running[i] })
	out := make([]shape, n)
	for i := range out {
		out[i] = shape{memMiB: mem[i], vcpus: vcpus[i], running: running[i]}
	}
	return out
}

// pick returns a seeded domain of cl that satisfies ok, or nil.
func pick(rng *rand.Rand, doms []*modelDomain, ok func(*modelDomain) bool) *modelDomain {
	start := rng.Intn(len(doms))
	for i := range doms {
		if d := doms[(start+i)%len(doms)]; ok(d) {
			return d
		}
	}
	return nil
}

func isActive(d *modelDomain) bool  { return d.state != core.DomainShutoff }
func isRunning(d *modelDomain) bool { return d.state == core.DomainRunning }
func isPaused(d *modelDomain) bool  { return d.state == core.DomainPaused }
func isOff(d *modelDomain) bool     { return d.state == core.DomainShutoff }
func anyDomain(*modelDomain) bool   { return true }

// turns alternates the direction of lifecycle writes (destroy, create,
// destroy, ...) and of pause writes (suspend, resume, ...), so the
// shares of running, paused and stopped domains stay level through a
// run however long it is.
type turns struct{ started, resumed bool }

// lifecycle returns the state the next lifecycle write needs.
func (t *turns) lifecycle() func(*modelDomain) bool {
	t.started = !t.started
	if t.started {
		return isRunning // destroy
	}
	return isOff // create
}

// pause returns the state the next pause write needs.
func (t *turns) pause() func(*modelDomain) bool {
	t.resumed = !t.resumed
	if t.resumed {
		return isRunning // suspend
	}
	return isPaused // resume
}

// do runs and times one operation and checks its output.
func (a *apiCalls) do(cl *apiClient, rec *recorder, k kind) {
	tr, chk := a.e.tr, &a.e.chk
	op := tr.op()
	root := tr.begin(rootSpan[k], -1, op)
	defer tr.end(root)
	var (
		err error
		d   *modelDomain
	)
	want := anyDomain
	switch k {
	case kLifecycle:
		want = cl.turns.lifecycle()
	case kPause:
		want = cl.turns.pause()
	case kSetMem:
		want = isActive
	}
	if d = pick(cl.rng, cl.doms, want); d == nil {
		// No domain is in the state the write needs: start or stop one.
		k, d = kLifecycle, pick(cl.rng, cl.doms, anyDomain)
	}
	t0 := time.Now()
	switch k {
	case kInfo:
		sp := tr.begin("core:LookupDomain", root, op)
		dom, lerr := cl.conn.LookupDomain(d.name)
		tr.end(sp)
		if err = lerr; err == nil {
			sp = tr.begin("core:Domain.Info", root, op)
			info, ierr := dom.Info()
			tr.end(sp)
			if err = ierr; err == nil {
				if dom.Name() != d.name || dom.UUID() != d.uuid {
					chk.failf("lookup %s: got %s/%s, want uuid %s", d.name, dom.Name(), dom.UUID(), d.uuid)
				}
				if want := d.expectInfo(); !infoMatches(info, want) {
					chk.failf("info %s: got %+v, want %+v", d.name, info, want)
				}
			}
		}
	case kXML:
		sp := tr.begin("core:Domain.XML", root, op)
		doc, xerr := d.dom.XML()
		tr.end(sp)
		if err = xerr; err == nil {
			def, perr := xmlspec.ParseDomain([]byte(doc))
			switch {
			case perr != nil:
				chk.failf("xml %s: %v", d.name, perr)
			case def.Name != d.name || def.MemoryKiBOrZero() != d.defKiB || int(def.VCPU.Count) != d.vcpus:
				chk.failf("xml %s: got name %s, %d KiB, %d vcpus", d.name, def.Name, def.MemoryKiBOrZero(), def.VCPU.Count)
			}
		}
	case kNodeInfo:
		sp := tr.begin("core:NodeInfo", root, op)
		node, nerr := cl.conn.NodeInfo()
		tr.end(sp)
		if err = nerr; err == nil && node != cl.node {
			chk.failf("nodeinfo changed: %+v, want %+v", node, cl.node)
		}
	case kStats:
		sp := tr.begin("core:Domain.Stats", root, op)
		st, serr := d.dom.Stats()
		tr.end(sp)
		if err = serr; err == nil {
			got := core.DomainInfo{State: st.State, MaxMemKiB: st.MaxMemKiB, MemKiB: st.MemKiB, VCPUs: st.VCPUs}
			if want := d.expectInfo(); !infoMatches(got, want) {
				chk.failf("stats %s: got %+v, want %+v", d.name, got, want)
			}
		}
	case kDefine:
		err = a.defineUndefine(cl, root, op)
	case kLifecycle:
		if isActive(d) {
			sp := tr.begin("core:Domain.Destroy", root, op)
			err = d.dom.Destroy()
			tr.end(sp)
			if err == nil {
				d.state, d.curKiB = core.DomainShutoff, d.defKiB
			}
		} else {
			sp := tr.begin("core:Domain.Create", root, op)
			err = d.dom.Create()
			tr.end(sp)
			if err == nil {
				d.state = core.DomainRunning
			}
		}
	case kPause:
		if d.state == core.DomainPaused {
			sp := tr.begin("core:Domain.Resume", root, op)
			err = d.dom.Resume()
			tr.end(sp)
			if err == nil {
				d.state = core.DomainRunning
			}
		} else {
			sp := tr.begin("core:Domain.Suspend", root, op)
			err = d.dom.Suspend()
			tr.end(sp)
			if err == nil {
				d.state = core.DomainPaused
			}
		}
	case kSetMem:
		kib := d.defKiB / 4 * uint64(2+cl.rng.Intn(3)) // 1/2, 3/4 or all of it
		sp := tr.begin("core:Domain.SetMemory", root, op)
		err = d.dom.SetMemory(kib)
		tr.end(sp)
		if err == nil {
			d.curKiB = kib
		}
	}
	took := time.Since(t0)
	if err != nil {
		a.e.fail(rec, kinds[k].name+" "+d.name, err)
		return
	}
	rec.add(k, took)
}

// defineUndefine defines the client's scratch domain, undefines it and
// checks that it is gone.
func (a *apiCalls) defineUndefine(cl *apiClient, root int32, op int64) error {
	tr := a.e.tr
	sp := tr.begin("core:DefineDomain", root, op)
	dom, err := cl.conn.DefineDomain(domainXML("test", cl.scratch, 128, 1, 800))
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("core:Domain.Undefine", root, op)
	err = dom.Undefine()
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("core:LookupDomain", root, op)
	_, err = cl.conn.LookupDomain(cl.scratch)
	tr.end(sp)
	if !core.IsCode(err, core.ErrNoDomain) {
		a.e.chk.failf("scratch domain %s still resolves after undefine (err %v)", cl.scratch, err)
	}
	return nil
}

func (a *apiCalls) verify() {
	chk := &a.e.chk
	for _, cl := range a.clients {
		for _, d := range cl.doms {
			dom, err := cl.conn.LookupDomain(d.name)
			if err != nil {
				chk.failf("final lookup %s: %v", d.name, err)
				continue
			}
			info, err := dom.Info()
			if err != nil {
				chk.failf("final info %s: %v", d.name, err)
				continue
			}
			if want := d.expectInfo(); !infoMatches(info, want) {
				chk.failf("final info %s: got %+v, want %+v", d.name, info, want)
			}
		}
		if _, err := cl.conn.LookupDomain(cl.scratch); !core.IsCode(err, core.ErrNoDomain) {
			chk.failf("final: scratch domain %s resolves (err %v)", cl.scratch, err)
		}
	}
}

func (a *apiCalls) layers(l layerSet, w window) {
	addCommonLayers(l, w)
	chk := &a.e.chk
	cl := a.clients[0]
	var msgs []interface{}
	for _, d := range cl.doms {
		info := d.expectInfo()
		msgs = append(msgs,
			&wire.NameArgs{Name: d.name},
			&wire.DomainMetaReply{Meta: wire.DomainMeta{Name: d.name, UUID: d.uuid, ID: -1}},
			&wire.DomainInfoReply{State: uint32(info.State), MaxMemKiB: info.MaxMemKiB, MemKiB: info.MemKiB, VCPUs: uint32(info.VCPUs)},
			&wire.SetMemoryArgs{Name: d.name, MemKiB: d.curKiB},
			&wire.XMLArgs{XML: domainXML("test", d.name, d.defKiB/1024, d.vcpus, 800)},
		)
	}
	msgs = append(msgs, &wire.NodeInfoReply{Model: cl.node.Model, MemoryKiB: cl.node.MemoryKiB, CPUs: uint32(cl.node.CPUs)})
	if err := replayCodec(l, msgs, 50); err != nil {
		chk.failf("codec replay: %v", err)
	}
	if err := probeTransport(l, a.e.opts.dir, 2000); err != nil {
		chk.failf("transport probe: %v", err)
	}
	twin, err := twinOf("test", cl.doms)
	if err != nil {
		chk.failf("twin driver: %v", err)
		return
	}
	defer twin.Close()
	inv, err := twinSweep(l, twin, 50)
	if err != nil {
		chk.failf("twin sweep: %v", err)
		return
	}
	if err := replaySweepDecode(l, inv, 200); err != nil {
		chk.failf("sweep decode replay: %v", err)
	}
}

// twinOf opens an in-process driver of the given scheme and gives it the
// model's domains in their modelled state.
func twinOf(driver string, doms []*modelDomain) (core.DriverConn, error) {
	u := &uri.URI{Driver: driver, Path: "/empty"}
	if driver != "test" {
		u.Path = "/system"
	}
	c, err := core.Open(u.String())
	if err != nil {
		return nil, err
	}
	drv := c.Driver()
	for _, d := range doms {
		if _, err := drv.DefineDomain(domainXML(driver, d.name, d.defKiB/1024, d.vcpus, 800)); err != nil {
			return nil, err
		}
		if d.state == core.DomainShutoff {
			continue
		}
		if err := drv.CreateDomain(d.name); err != nil {
			return nil, err
		}
		if d.curKiB != d.defKiB {
			if err := drv.SetDomainMemory(d.name, d.curKiB); err != nil {
				return nil, err
			}
		}
		if d.state == core.DomainPaused {
			if err := drv.SuspendDomain(d.name); err != nil {
				return nil, err
			}
		}
	}
	return drv, nil
}

func (a *apiCalls) tearDown() {
	for _, cl := range a.clients {
		cl.conn.Close()
	}
	if a.d != nil {
		a.d.Shutdown()
	}
}
