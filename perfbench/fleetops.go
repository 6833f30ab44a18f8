package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/drivers/remote"
	drvtest "repro/internal/drivers/test"
	"repro/internal/fleet"
	"repro/internal/migrate"
	"repro/internal/scale"
	"repro/internal/wire"
)

// fleetDeck is one round of the fleet-ops controller. Schedules and
// retirements balance, so the fleet's population stays level.
var fleetDeck = []kind{kSchedule, kSchedule, kRetire, kRetire, kToggle, kToggle, kToggle, kMigrate, kMigrate, kPlan}

// Seeded domains as scale.SeedDomains defines them: its naming, 256 MiB.
const (
	seededMemKiB = 256 * 1024
	// switchoverNs is the post-copy downtime the migration model charges.
	switchoverNs = 20_000_000
	// defaultMaxDowntimeMs is the migration engine's downtime target
	// when the configuration leaves it 0, as the shipped fleet.conf does.
	defaultMaxDowntimeMs = 300
	// waitLimit bounds every wait for the registry.
	waitLimit = 10 * time.Second
)

// fleetDomain is the benchmark's record of one fleet domain.
type fleetDomain struct {
	name    string
	host    string
	memKiB  uint64
	vcpus   int
	running bool
}

// fleetOps is the fleet-ops workload: a scale.Launch fleet of memnet
// daemons on the test driver with the registry in its default watch
// mode, and one controller loop.
type fleetOps struct {
	e        *env
	f        *scale.Fleet
	rng      *rand.Rand
	doms     []*fleetDomain // live domains, in a seeded order
	hostIdx  map[string]int // host name → position in Summaries
	seq      int            // scheduled domains so far
	stopNext bool           // direction of the next toggle
	rebal    fleet.RebalanceOptions

	// Layer accounting for the traced run.
	schedAttempts int
	sumCalls      int
	sumTime       time.Duration
	invCalls      int
	invTime       time.Duration
	planTimes     []time.Duration
	moves         int
	iterations    int
	modelTotal    time.Duration
	modelDown     time.Duration
	ws0, ws1      fleet.WatchStats
	phantom       int
}

func newFleetOps(e *env) workload { return &fleetOps{e: e} }

func (fo *fleetOps) setUp() error {
	drvtest.Register(quiet)
	remote.Register()
	sz := fo.e.opts.size
	fo.rng = rand.New(rand.NewSource(fo.e.opts.seed))
	fc := fleet.DefaultFileConfig()
	fo.rebal = fc.RebalanceConfig()
	var err error
	fo.f, err = scale.Launch(scale.Options{
		Hosts: sz.fleetHosts, DomainsPerHost: sz.fleetDomains,
		DomainMemMiB: seededMemKiB / 1024, Log: quiet,
	})
	if err != nil {
		return err
	}
	if err := fo.f.SeedDomains(); err != nil {
		return err
	}
	fo.hostIdx = make(map[string]int, len(fo.f.Names))
	for hi, h := range fo.f.Names {
		fo.hostIdx[h] = hi
		for di := 0; di < sz.fleetDomains; di++ {
			fo.doms = append(fo.doms, &fleetDomain{
				name: fmt.Sprintf("d%04d-%04d", hi, di), host: h, memKiB: seededMemKiB, vcpus: 1, running: true,
			})
		}
	}
	fo.rng.Shuffle(len(fo.doms), func(i, j int) { fo.doms[i], fo.doms[j] = fo.doms[j], fo.doms[i] })
	// Warm-up: unrecorded rounds.
	warm := &recorder{}
	for r := 0; r < 10; r++ {
		fo.round(warm)
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d operation(s) failed", warm.failed)
	}
	fo.planTimes = fo.planTimes[:0]
	fo.schedAttempts, fo.sumCalls, fo.sumTime, fo.invCalls, fo.invTime = 0, 0, 0, 0, 0
	fo.moves, fo.iterations, fo.modelTotal, fo.modelDown = 0, 0, 0, 0
	return nil
}

func (fo *fleetOps) run(deadline time.Time) {
	rec := fo.e.recorder(false)
	fo.ws0 = fo.f.Reg.WatchStats()
	for time.Now().Before(deadline) {
		fo.round(rec)
	}
	fo.ws1 = fo.f.Reg.WatchStats()
}

// round runs one shuffled deck of controller operations.
func (fo *fleetOps) round(rec *recorder) {
	deck := append([]kind(nil), fleetDeck...)
	fo.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	for _, k := range deck {
		var err error
		switch k {
		case kSchedule:
			err = fo.schedule(rec)
		case kRetire:
			err = fo.retire(rec)
		case kToggle:
			err = fo.toggle(rec)
		case kMigrate:
			err = fo.migrate(rec)
		case kPlan:
			err = fo.plan(rec)
		}
		if err != nil {
			fo.e.fail(rec, kinds[k].name, err)
		}
	}
}

// pickDomain returns a seeded live domain satisfying ok, or nil.
func (fo *fleetOps) pickDomain(ok func(*fleetDomain) bool) (*fleetDomain, int) {
	start := fo.rng.Intn(len(fo.doms))
	for i := range fo.doms {
		j := (start + i) % len(fo.doms)
		if ok(fo.doms[j]) {
			return fo.doms[j], j
		}
	}
	return nil, -1
}

// checkOnHost checks, by the daemon's own answer, that name is defined
// on host in the given state.
func (fo *fleetOps) checkOnHost(host, name string, running bool, root int32, op int64) error {
	tr := fo.e.tr
	conn, err := fo.f.Reg.Host(host)
	if err != nil {
		return err
	}
	sp := tr.begin("core:LookupDomain", root, op)
	dom, err := conn.LookupDomain(name)
	tr.end(sp)
	if err != nil {
		fo.e.chk.failf("%s is not on %s by the daemon's answer: %v", name, host, err)
		return nil
	}
	sp = tr.begin("core:Domain.Info", root, op)
	info, err := dom.Info()
	tr.end(sp)
	if err != nil {
		return err
	}
	if (info.State == core.DomainRunning) != running {
		fo.e.chk.failf("%s on %s is %v, want running=%v", name, host, info.State, running)
	}
	return nil
}

// checkGone checks, by the daemon's own answer, that name is not on host.
func (fo *fleetOps) checkGone(host, name string, root int32, op int64) error {
	tr := fo.e.tr
	conn, err := fo.f.Reg.Host(host)
	if err != nil {
		return err
	}
	sp := tr.begin("core:LookupDomain", root, op)
	_, err = conn.LookupDomain(name)
	tr.end(sp)
	if !core.IsCode(err, core.ErrNoDomain) {
		fo.e.chk.failf("%s still resolves on %s (err %v)", name, host, err)
	}
	return nil
}

func (fo *fleetOps) schedule(rec *recorder) error {
	tr := fo.e.tr
	op := tr.op()
	root := tr.begin(rootSpan[kSchedule], -1, op)
	defer tr.end(root)
	fo.seq++
	memMiB := uint64(128 << fo.rng.Intn(3))
	d := &fleetDomain{name: fmt.Sprintf("s%06d", fo.seq), memKiB: memMiB * 1024, vcpus: 1 + fo.rng.Intn(2), running: true}
	xml := domainXML("test", d.name, memMiB, d.vcpus, []int{500, 5000, 20000}[fo.rng.Intn(3)])

	t0 := time.Now()
	sp := tr.begin("fleet:Schedule", root, op)
	p, err := fo.f.Reg.Schedule(xml)
	tr.end(sp)
	took := time.Since(t0)
	if err != nil {
		return err
	}
	fo.schedAttempts += p.Attempts
	d.host = p.Host
	if p.Domain == nil || p.Domain.Name() != d.name {
		fo.e.chk.failf("schedule of %s returned the wrong domain", d.name)
	}
	fo.doms = append(fo.doms, d)
	if err := fo.checkOnHost(d.host, d.name, true, root, op); err != nil {
		return err
	}
	if err := fo.settle(d, root, op); err != nil {
		return err
	}
	rec.add(kSchedule, took)
	return nil
}

// settle waits, untimed, until the registry holds a record of d on its
// host. The registry learns a placed or migrated domain through a
// targeted fetch; a lifecycle event the watch stream applies while that
// fetch is in flight is overwritten by the fetch's older answer and
// stays lost (F4 in README.md). Touching the domain again only once
// the fetch has landed keeps the workload off that fault. A wait that
// runs out is a failed check and fails the operation.
func (fo *fleetOps) settle(d *fleetDomain, root int32, op int64) error {
	if _, ok := fo.waitRecord(d.host, d.name, core.DomainRunning, math.MaxUint64, root, op); !ok {
		fo.e.chk.failf("registry never showed %s on %s", d.name, d.host)
		return fmt.Errorf("registry never showed %s on %s", d.name, d.host)
	}
	return nil
}

func (fo *fleetOps) retire(rec *recorder) error {
	tr := fo.e.tr
	op := tr.op()
	root := tr.begin(rootSpan[kRetire], -1, op)
	defer tr.end(root)
	d, i := fo.pickDomain(func(*fleetDomain) bool { return true })
	conn, err := fo.f.Reg.Host(d.host)
	if err != nil {
		return err
	}
	t0 := time.Now()
	sp := tr.begin("core:LookupDomain", root, op)
	dom, err := conn.LookupDomain(d.name)
	tr.end(sp)
	if err != nil {
		return err
	}
	if d.running {
		sp = tr.begin("core:Domain.Destroy", root, op)
		err = dom.Destroy()
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	sp = tr.begin("core:Domain.Undefine", root, op)
	err = dom.Undefine()
	tr.end(sp)
	took := time.Since(t0)
	if err != nil {
		return err
	}
	last := len(fo.doms) - 1
	fo.doms[i] = fo.doms[last]
	fo.doms = fo.doms[:last]
	if err := fo.checkGone(d.host, d.name, root, op); err != nil {
		return err
	}
	rec.add(kRetire, took)
	return nil
}

// toggle starts or stops a domain on its daemon and waits until the
// registry's record for it shows the change.
func (fo *fleetOps) toggle(rec *recorder) error {
	tr := fo.e.tr
	op := tr.op()
	root := tr.begin(rootSpan[kToggle], -1, op)
	defer tr.end(root)
	// Alternate stops and starts, so the running share stays level.
	fo.stopNext = !fo.stopNext
	d, _ := fo.pickDomain(func(d *fleetDomain) bool { return d.running == fo.stopNext })
	if d == nil {
		d, _ = fo.pickDomain(func(*fleetDomain) bool { return true })
	}
	conn, err := fo.f.Reg.Host(d.host)
	if err != nil {
		return err
	}
	gen0 := fo.summaries(root, op)[fo.hostIdx[d.host]].Gen

	t0 := time.Now()
	sp := tr.begin("core:LookupDomain", root, op)
	dom, err := conn.LookupDomain(d.name)
	tr.end(sp)
	if err != nil {
		return err
	}
	if d.running {
		sp = tr.begin("core:Domain.Destroy", root, op)
		err = dom.Destroy()
	} else {
		sp = tr.begin("core:Domain.Create", root, op)
		err = dom.Create()
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	t1 := time.Now()
	d.running = !d.running
	want := core.DomainShutoff
	if d.running {
		want = core.DomainRunning
	}
	seen, ok := fo.waitRecord(d.host, d.name, want, gen0, root, op)
	if !ok {
		fo.e.chk.failf("registry never showed %s as %v on %s", d.name, want, d.host)
		return fmt.Errorf("registry never showed %s as %v on %s", d.name, want, d.host)
	}
	rec.add(kToggleWrite, t1.Sub(t0))
	rec.add(kPropagate, seen.Sub(t1))
	rec.add(kToggle, seen.Sub(t0))
	return nil
}

// summaries reads the registry's per-host summaries, timing the call.
func (fo *fleetOps) summaries(parent int32, op int64) []fleet.HostSummary {
	sp := fo.e.tr.begin("fleet:Summaries", parent, op)
	t0 := time.Now()
	s := fo.f.Reg.Summaries()
	fo.sumTime += time.Since(t0)
	fo.sumCalls++
	fo.e.tr.end(sp)
	return s
}

// inventory reads the registry's full inventory, timing the call.
func (fo *fleetOps) inventory(parent int32, op int64) []fleet.HostInventory {
	sp := fo.e.tr.begin("fleet:Inventory", parent, op)
	t0 := time.Now()
	inv := fo.f.Reg.Inventory()
	fo.invTime += time.Since(t0)
	fo.invCalls++
	fo.e.tr.end(sp)
	return inv
}

// waitRecord waits until the registry's record of name on host is in
// state want. It polls the cheap summaries and reads the full inventory
// only after the host's generation moved past gen, so the wait costs
// little CPU beyond the polling loop itself (see pause). It returns
// when the generation change that showed the record was first seen.
func (fo *fleetOps) waitRecord(host, name string, want core.DomainState, gen uint64, parent int32, op int64) (time.Time, bool) {
	tr := fo.e.tr
	sp := tr.begin("watch:wait", parent, op)
	defer tr.end(sp)
	hi := fo.hostIdx[host]
	start := time.Now()
	limit := start.Add(waitLimit)
	for {
		g := fo.summaries(sp, op)[hi].Gen
		seen := time.Now()
		if g != gen {
			gen = g
			inv := fo.inventory(sp, op)
			for _, r := range inv[hi].Domains {
				if r.Name == name && r.State == want {
					return seen, true
				}
			}
		}
		if seen.After(limit) {
			return seen, false
		}
		pause(seen.Sub(start))
	}
}

// migrate live-migrates a running domain between two hosts over the
// registry's connections with the shipped fleet.conf settings; a seeded
// share of moves uses four parallel streams, and of those half post-copy.
func (fo *fleetOps) migrate(rec *recorder) error {
	tr := fo.e.tr
	op := tr.op()
	root := tr.begin(rootSpan[kMigrate], -1, op)
	defer tr.end(root)
	d, _ := fo.pickDomain(func(d *fleetDomain) bool { return d.running })
	if d == nil {
		return fmt.Errorf("no running domain to migrate")
	}
	dst := fo.f.Names[(fo.hostIdx[d.host]+1+fo.rng.Intn(len(fo.f.Names)-1))%len(fo.f.Names)]
	opts := fo.rebal.Migrate
	opts.UndefineSource = true
	switch fo.rng.Intn(4) {
	case 0:
		opts.ParallelStreams = 4
	case 1:
		opts.ParallelStreams, opts.PostCopy = 4, true
	}
	srcConn, err := fo.f.Reg.Host(d.host)
	if err != nil {
		return err
	}
	dstConn, err := fo.f.Reg.Host(dst)
	if err != nil {
		return err
	}
	t0 := time.Now()
	sp := tr.begin("core:LookupDomain", root, op)
	dom, err := srcConn.LookupDomain(d.name)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("migrate:MigrateContext", root, op)
	res, err := migrate.MigrateContext(context.Background(), dom, dstConn, opts)
	tr.end(sp)
	took := time.Since(t0)
	if err != nil {
		return err
	}
	fo.moves++
	fo.iterations += res.Iterations
	fo.modelTotal += time.Duration(res.TotalTimeNs)
	fo.modelDown += time.Duration(res.DowntimeNs)

	chk := &fo.e.chk
	if opts.PostCopy {
		if res.Mode != migrate.ModePostCopy || res.DowntimeNs != switchoverNs {
			chk.failf("post-copy move of %s: mode %s, downtime %d ns, want %d", d.name, res.Mode, res.DowntimeNs, switchoverNs)
		}
	} else {
		target := uint64(opts.MaxDowntimeMs)
		if target == 0 {
			target = defaultMaxDowntimeMs
		}
		if !res.Converged || res.DowntimeNs > target*1_000_000 || res.TransferredKiB < d.memKiB {
			chk.failf("pre-copy move of %s: converged=%v downtime %.1f ms (target %d) transferred %d KiB of %d",
				d.name, res.Converged, res.DowntimeMs(), target, res.TransferredKiB, d.memKiB)
		}
	}
	src := d.host
	d.host = dst
	if err := fo.checkOnHost(dst, d.name, true, root, op); err != nil {
		return err
	}
	if err := fo.checkGone(src, d.name, root, op); err != nil {
		return err
	}
	if err := fo.settle(d, root, op); err != nil {
		return err
	}
	rec.add(kMigrate, took)
	return nil
}

// plan runs a dry-run rebalance plan over the registry's inventory and
// checks that the moves, played in order, each take an active domain
// off the host it is on.
func (fo *fleetOps) plan(rec *recorder) error {
	tr := fo.e.tr
	op := tr.op()
	root := tr.begin(rootSpan[kPlan], -1, op)
	defer tr.end(root)
	t0 := time.Now()
	invs := fo.inventory(root, op)
	sp := tr.begin("fleet:PlanRebalance", root, op)
	t1 := time.Now()
	moves, _, _, _ := fleet.PlanRebalance(invs, fo.rebal)
	fo.planTimes = append(fo.planTimes, time.Since(t1))
	tr.end(sp)
	rec.add(kPlan, time.Since(t0))
	if len(moves) == 0 {
		return nil
	}
	// Played in order, every move takes an active domain off the host
	// it is on by then (the planner may move one domain twice).
	where := map[string]string{}
	for _, inv := range invs {
		for _, r := range inv.Domains {
			if r.Active() {
				where[r.Name] = inv.Host
			}
		}
	}
	for _, mv := range moves {
		if mv.From == mv.To || where[mv.Domain] != mv.From {
			fo.e.chk.failf("plan moves %s from %q to %q; it is active on %q", mv.Domain, mv.From, mv.To, where[mv.Domain])
		}
		where[mv.Domain] = mv.To
	}
	return nil
}

// verify checks the daemons against the model, then waits for the
// registry's per-domain records to agree with the daemons. Summary
// counts are left out of the check: the registry can count a placed
// domain twice (F1 in README.md); the run reports that as
// fleet.phantom_active instead.
func (fo *fleetOps) verify() {
	chk := &fo.e.chk
	want := make([]map[string]bool, len(fo.f.Names)) // name → running, per host
	for i := range want {
		want[i] = map[string]bool{}
	}
	for _, d := range fo.doms {
		want[fo.hostIdx[d.host]][d.name] = d.running
	}
	for hi, h := range fo.f.Names {
		conn, err := fo.f.Reg.Host(h)
		if err != nil {
			chk.failf("final: host %s: %v", h, err)
			return
		}
		rows, err := conn.DomainListInfo(0)
		if err != nil {
			chk.failf("final: list %s: %v", h, err)
			return
		}
		got := make(map[string]bool, len(rows))
		for _, r := range rows {
			got[r.Name] = r.Info.State == core.DomainRunning
		}
		if !sameStates(got, want[hi]) {
			chk.failf("final: daemon %s holds %s, model %s", h, describe(got), describe(want[hi]))
		}
	}
	limit := time.Now().Add(waitLimit)
	for {
		invs := fo.f.Reg.Inventory()
		agree := true
		for hi := range invs {
			got := make(map[string]bool, len(invs[hi].Domains))
			for _, r := range invs[hi].Domains {
				got[r.Name] = r.State == core.DomainRunning
			}
			if !sameStates(got, want[hi]) {
				agree = false
				if time.Now().After(limit) {
					chk.failf("final: registry records of %s: %s, daemon %s", invs[hi].Host, describe(got), describe(want[hi]))
				}
			}
		}
		if agree {
			fo.phantom = 0
			for i, s := range fo.f.Reg.Summaries() {
				fo.phantom += abs(s.ActiveDomains - invs[i].ActiveDomains())
			}
			return
		}
		if time.Now().After(limit) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func sameStates(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// describe summarises a name → running map for a diagnostic.
func describe(m map[string]bool) string {
	running := 0
	for _, r := range m {
		if r {
			running++
		}
	}
	return fmt.Sprintf("%d domains (%d running)", len(m), running)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (fo *fleetOps) layers(l layerSet, w window) {
	addCommonLayers(l, w)
	chk := &fo.e.chk
	ops := w.ops()
	st := w.stats

	var msgs []interface{}
	for i, d := range fo.doms {
		if i == 100 {
			break
		}
		msgs = append(msgs,
			&wire.XMLArgs{XML: domainXML("test", d.name, d.memKiB/1024, d.vcpus, 500)},
			&wire.NameArgs{Name: d.name},
			&wire.DomainMetaReply{Meta: wire.DomainMeta{Name: d.name, UUID: "00000000-0000-0000-0000-000000000000", ID: 1}},
			&wire.DomainInfoReply{State: uint32(core.DomainRunning), MaxMemKiB: d.memKiB, MemKiB: d.memKiB, VCPUs: uint32(d.vcpus)},
		)
	}
	msgs = append(msgs, &wire.MigratePagesArgs{Cookie: 1, Stream: 1, Round: 1, Pages: 4096, Data: make([]byte, 16*1024)})
	if err := replayCodec(l, msgs, 50); err != nil {
		chk.failf("codec replay: %v", err)
	}
	if err := probeTransport(l, fo.e.opts.dir, 2000); err != nil {
		chk.failf("transport probe: %v", err)
	}

	// Twin: an in-process test driver holding the first host's domains.
	var mine []*modelDomain
	for _, d := range fo.doms {
		if d.host == fo.f.Names[0] {
			md := &modelDomain{name: d.name, defKiB: d.memKiB, curKiB: d.memKiB, vcpus: d.vcpus, state: core.DomainShutoff}
			if d.running {
				md.state = core.DomainRunning
			}
			mine = append(mine, md)
		}
	}
	sort.Slice(mine, func(i, j int) bool { return mine[i].name < mine[j].name })
	if twin, err := twinOf("test", mine); err != nil {
		chk.failf("twin driver: %v", err)
	} else {
		inv, err := twinSweep(l, twin, 50)
		if err == nil {
			err = replaySweepDecode(l, inv, 200)
		}
		if err != nil {
			chk.failf("twin sweep: %v", err)
		}
		twin.Close()
	}

	if fo.sumCalls > 0 {
		l.set("fleet.summaries_us", us(fo.sumTime)/float64(fo.sumCalls))
	}
	if fo.invCalls > 0 {
		l.set("fleet.inventory_us", us(fo.invTime)/float64(fo.invCalls))
	}
	plans := slices.Clone(fo.planTimes)
	slices.Sort(plans)
	l.set("fleet.plan_ms", ms(percentile(plans, 50)))
	var refresh []time.Duration
	for _, h := range fo.f.Names {
		t0 := time.Now()
		fo.f.Reg.RefreshNow(h)
		refresh = append(refresh, time.Since(t0))
	}
	slices.Sort(refresh)
	l.set("fleet.refresh_ms", ms(percentile(refresh, 50)))
	l.set("fleet.schedule_ms", ms(percentile(st.lat[kSchedule], 50)))
	if n := st.count(kSchedule); n > 0 {
		l.set("fleet.schedule_attempts", float64(fo.schedAttempts)/float64(n))
	}
	l.set("fleet.sweeps", float64(fo.ws1.Sweeps-fo.ws0.Sweeps)/ops)
	l.set("fleet.targeted_fetches", float64(fo.ws1.TargetedFetches-fo.ws0.TargetedFetches)/ops)
	l.set("fleet.resyncs", float64(fo.ws1.Resyncs-fo.ws0.Resyncs)/ops)
	if ev := fo.ws1.WatchEvents - fo.ws0.WatchEvents; ev > 0 {
		l.set("fleet.fetches_per_event", float64(fo.ws1.TargetedFetches-fo.ws0.TargetedFetches)/float64(ev))
	}
	l.set("fleet.phantom_active", float64(fo.phantom))
	l.set("watch.propagate_ms", ms(percentile(st.lat[kPropagate], 50)))
	l.set("migrate.move_ms", ms(percentile(st.lat[kMigrate], 50)))
	if fo.moves > 0 {
		n := float64(fo.moves)
		l.set("migrate.chunks_per_move", w.counter("migration_chunks_tx_total")/n)
		l.set("migrate.iterations", float64(fo.iterations)/n)
		l.set("migrate.model_total_ms", ms(fo.modelTotal)/n)
		l.set("migrate.model_downtime_ms", ms(fo.modelDown)/n)
	}
	l.set("scale.settle_s", fo.f.SettleTime.Seconds())
	l.set("scale.seed_s", fo.f.SeedTime.Seconds())
}

func (fo *fleetOps) tearDown() {
	if fo.f != nil {
		fo.f.Close()
	}
}
