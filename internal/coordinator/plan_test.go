package coordinator

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/proto"
)

func activeDisk() core.Strategy {
	return core.NewActiveDisk(core.ActiveDiskConfig{
		Relocation: core.RelocationConfig{Threshold: 0.8, MinGap: 0}, Lambda: 2, ForcedFraction: 0.5,
	})
}

// killM2 lets m2 (and only m2) go silent past the heartbeat timeout and
// delivers the tick that declares it dead.
func (g *syncRig) killM2() {
	g.t.Helper()
	g.clock.Advance(rigHeartbeat / 2)
	for _, e := range g.engines {
		if e != "m2" {
			g.handle(e, proto.Hello{Node: e, Kind: proto.KindEngine})
		}
	}
	g.tick(rigHeartbeat/2 + time.Second)
	if g.coord.EngineAlive("m2") {
		g.t.Fatal("m2 still alive")
	}
}

// balanced makes every engine report the same load (no strategy action)
// and delivers a tick, which also computes the follower assignment.
func (g *syncRig) balanced() {
	g.t.Helper()
	for _, e := range g.engines {
		g.report(e, 1000, 0)
	}
	g.tick(0)
}

// scenarios start one run of each plan on a fresh rig and return it in
// flight at its first step. A plan without a scenario fails the table
// tests: a new plan cannot be added uncovered.
var scenarios map[string]func(t *testing.T) (*syncRig, *run)

func init() { // in init: the rollback and demote scenarios build on others
	scenarios = map[string]func(t *testing.T) (*syncRig, *run){
		"relocation": func(t *testing.T) (*syncRig, *run) {
			g := newSyncRig(t, 3, lazy(), false)
			g.report("m1", 1000, 0)
			g.report("m2", 100, 0)
			g.report("m3", 500, 0)
			g.tick(0)
			return g, g.coord.fg
		},
		"drain": func(t *testing.T) (*syncRig, *run) {
			g := newSyncRig(t, 3, lazy(), false)
			g.balanced()
			g.handle("m1", proto.Leave{Node: "m1"})
			g.tick(0)
			return g, g.coord.fg
		},
		"forced_spill": func(t *testing.T) (*syncRig, *run) {
			g := newSyncRig(t, 3, activeDisk(), false)
			g.report("m1", 1000, 1000)
			g.report("m2", 950, 10)
			g.report("m3", 1000, 1000)
			g.tick(0)
			return g, g.coord.fg
		},
		// The rollback is entered by escalation: a relocation whose shipped
		// state is never acknowledged ends up probing the receiver.
		"rollback": func(t *testing.T) (*syncRig, *run) {
			g, r := scenarios["relocation"](t)
			g.answer() // PtV
			g.answer() // MarkerAck
			for _, d := range []time.Duration{rigTimeout, 2 * rigTimeout, 4 * rigTimeout} {
				g.expire(d)
			}
			return g, r
		},
		"promotion": func(t *testing.T) (*syncRig, *run) {
			g := newSyncRig(t, 3, lazy(), true)
			g.balanced()
			g.killM2()
			return g, g.coord.fg
		},
		"resume": func(t *testing.T) (*syncRig, *run) {
			g := newSyncRig(t, 3, lazy(), false)
			g.balanced()
			g.killM2()
			g.handle("m2", proto.Hello{Node: "m2", Kind: proto.KindEngine})
			return g, g.background(&resumePlan)
		},
		// A demote follows a completed promotion once the victim is back.
		"demote": func(t *testing.T) (*syncRig, *run) {
			g, _ := scenarios["promotion"](t)
			g.answer() // PromoteAck
			g.answer() // RemapAck
			g.handle("m2", proto.Hello{Node: "m2", Kind: proto.KindEngine})
			return g, g.background(&demotePlan)
		},
	}
}

// background finds the one background run of a plan.
func (g *syncRig) background(p *plan) *run {
	g.t.Helper()
	for _, r := range g.coord.runs {
		if r.plan == p {
			return r
		}
	}
	g.t.Fatalf("no %s run in flight", p.name)
	return nil
}

// at starts a run of p and answers every step healthily until the run
// awaits step i of p.
func at(t *testing.T, p *plan, i int) (*syncRig, *run) {
	t.Helper()
	start := scenarios[p.name]
	if start == nil {
		t.Fatalf("plan %q has no scenario in plan_test.go", p.name)
	}
	g, r := start(t)
	if r == nil {
		t.Fatalf("scenario %q started no run", p.name)
	}
	for n := 0; r.plan != p || r.row != i; n++ {
		if n > 8 || g.coord.runs[r.id] != r {
			t.Fatalf("%s never reached step %d (at %s/%s)", p.name, i, r.plan.name, r.step().name)
		}
		g.answer()
	}
	return g, r
}

// TestPlanTableAcks is generated from the plan table: at every step of
// every plan a wrong id, a wrong node and a duplicate are ignored, the
// right ack advances, and what the step sent carries the run's trace.
func TestPlanTableAcks(t *testing.T) {
	for _, p := range plans {
		for i := range p.steps {
			st := p.steps[i]
			t.Run(p.name+"/"+st.name, func(t *testing.T) {
				g, r := at(t, p, i)
				s := g.last()
				if s.to != r.dest || reflect.TypeOf(s.msg) != reflect.TypeOf(r.msg) {
					t.Fatalf("awaited step sent %T to %s, outbox ends with %T to %s", r.msg, r.dest, s.msg, s.to)
				}
				if got := field(s.msg, "Trace").(obs.TraceContext); got != r.span.Context() {
					t.Fatalf("%T carries trace %+v, the run's is %+v", s.msg, got, r.span.Context())
				}
				from, ack := g.reply(s)
				if reflect.TypeOf(ack) != reflect.TypeOf(st.awaits) {
					t.Fatalf("healthy reply to %T is %T, the row awaits %T", s.msg, ack, st.awaits)
				}
				ignored := func(what string, from partition.NodeID, m proto.Message) {
					t.Helper()
					before := g.mark()
					g.handle(from, m)
					if after := g.mark(); after != before {
						t.Fatalf("%s was not ignored: %+v -> %+v", what, before, after)
					}
				}
				for _, name := range []string{"Epoch", "Seq"} {
					if stale, ok := withField(ack, name, r.id+1000); ok {
						ignored("ack under a foreign id", from, stale)
					}
				}
				if foreign, ok := withField(ack, "Node", "m9"); ok {
					ignored("ack from a foreign node", "m9", foreign)
				}
				for _, e := range g.engines { // the other party of the run, right id
					if e != from {
						if other, ok := withField(ack, "Node", e); ok {
							ignored("ack from "+string(e), e, other)
						}
					}
				}
				before := g.mark()
				g.handle(from, ack)
				if g.mark() == before {
					t.Fatalf("%T from %s did not advance %s/%s", ack, from, p.name, st.name)
				}
				ignored("duplicate ack", from, ack)
			})
		}
	}
}

// TestPlanTableDeadlines is generated from the plan table: with the ack
// withheld every step is re-sent exactly RelocMaxRetries times, at
// doubling virtual deadlines, and then takes the escalation its row
// names.
func TestPlanTableDeadlines(t *testing.T) {
	for _, p := range plans {
		for i := range p.steps {
			st := p.steps[i]
			t.Run(p.name+"/"+st.name, func(t *testing.T) {
				g, r := at(t, p, i)
				first, retries := g.last(), g.coord.cfg.RelocMaxRetries
				g.clock.armed = g.clock.armed[len(g.clock.armed)-1:] // the awaited step's own deadline
				for n := 1; n <= retries; n++ {
					g.expire(rigTimeout << (n - 1))
					if s := g.last(); s.to != first.to || !reflect.DeepEqual(s.msg, first.msg) {
						t.Fatalf("retry %d sent %+v to %s, want the step's %+v again", n, s.msg, s.to, first.msg)
					}
					if r.attempts != n {
						t.Fatalf("attempts = %d after %d retries", r.attempts, n)
					}
				}
				sends, unresolved := len(g.out), g.unresolved()
				exhausted := logged(g.coord, "step_exhausted")
				g.expire(rigTimeout << retries)
				want := []time.Duration{rigTimeout, 2 * rigTimeout, 4 * rigTimeout}
				if got := g.clock.armed[:retries+1]; !reflect.DeepEqual(got, want) {
					t.Fatalf("deadlines armed %v, want %v", got, want)
				}
				if n := logged(g.coord, "step_exhausted") - exhausted; n != 1 {
					t.Fatalf("%d step_exhausted log entries, want 1", n)
				}
				inFlight := g.coord.runs[r.id] == r
				switch st.exhaust {
				case abortSender:
					if m, to := lastOf[proto.RelocAbort](g); to != r.sender || m.Epoch != r.id || r.step().name != unwind.name {
						t.Fatalf("want RelocAbort to the sender %s, got %+v to %s at %s", r.sender, m, to, r.step().name)
					}
				case probeReceiver:
					if m, to := lastOf[proto.RelocAbort](g); to != r.receiver || m.Epoch != r.id || r.step().name != probe.name {
						t.Fatalf("want RelocAbort to the receiver %s, got %+v to %s at %s", r.receiver, m, to, r.step().name)
					}
				case restoreSplitHost:
					if m, to := lastOf[proto.Remap](g); to != "gen" || m.Owner != r.sender || len(g.out) != sends+1 || g.unresolved() != unresolved {
						t.Fatalf("want the restore Remap for %s and nothing unresolved, got %+v to %s", r.sender, m, to)
					}
				case skipStep:
					if g.unresolved() != unresolved+1 || (inFlight && r.row <= i) {
						t.Fatalf("skip: unresolved %d -> %d, still at row %d", unresolved, g.unresolved(), r.row)
					}
				case giveUp:
					if g.unresolved() != unresolved+1 || inFlight {
						t.Fatalf("give up: unresolved %d -> %d, in flight %v", unresolved, g.unresolved(), inFlight)
					}
				}
				// Whatever the escalation, the coordinator stays live:
				// answer what is left and a quiesce must come back.
				for n := 0; len(g.coord.runs) > 0 && n < 8; n++ {
					g.answer()
				}
				g.handle("gen", proto.Quiesce{})
				if _, ok := g.last().msg.(proto.QuiesceAck); !ok {
					t.Fatalf("coordinator not idle after %s: %d runs in flight", st.exhaust, len(g.coord.runs))
				}
			})
		}
	}
}

// TestPromotionOwnsItsEpoch (PR 14 finding 1): the watchdog re-pauses a
// dead engine's partitions on every tick, drawing an id each time; a
// PromoteAck that arrives after such a tick must still complete the
// promotion, first attempt, nothing unresolved.
func TestPromotionOwnsItsEpoch(t *testing.T) {
	g, r := scenarios["promotion"](t)
	promote, follower := lastOf[proto.Promote](g)
	g.tick(time.Second) // the install outlasts a tick: m2 still owns its groups, so they are paused again
	if _, ok := g.last().msg.(proto.Pause); !ok {
		t.Fatalf("tick did not re-pause the dead engine: last sent %T", g.last().msg)
	}
	g.handle(follower, proto.PromoteAck{Epoch: promote.Epoch, Node: follower, Installed: true})
	remap, _ := lastOf[proto.Remap](g)
	if remap.Owner != follower {
		t.Fatalf("PromoteAck after a tick did not advance the promotion: last remap %+v", remap)
	}
	g.handle("gen", proto.RemapAck{Epoch: remap.Epoch})
	if g.coord.Promotions() != 1 || g.unresolved() != 0 || int(g.coord.mRetries.Value()) != 0 {
		t.Fatalf("promotions %d, unresolved %d, retries %d; want 1, 0, 0",
			g.coord.Promotions(), g.unresolved(), int(g.coord.mRetries.Value()))
	}
	if g.coord.runs[r.id] != nil {
		t.Fatal("promotion still in flight")
	}
}

// TestRelocationOwnsItsEpoch: a relocation m1->m3 in flight while m2 is
// dead and still owns partitions survives the ticks that re-pause m2,
// and when it does have to roll back, its RelocAbort names the epoch
// the sender holds — not whatever the id counter has reached since.
func TestRelocationOwnsItsEpoch(t *testing.T) {
	g := newSyncRig(t, 3, lazy(), false)
	g.balanced()
	g.killM2()
	g.report("m1", 1000, 0)
	g.report("m3", 100, 0)
	g.tick(0)
	cptv, from := lastOf[proto.CptV](g)
	if from != "m1" || cptv.Receiver != "m3" {
		t.Fatalf("CptV %+v to %s, want m1->m3", cptv, from)
	}
	g.tick(time.Second) // m2 is re-paused under a fresh id mid-flight
	g.handle("m1", proto.PtV{Epoch: cptv.Epoch, Node: "m1", Partitions: []partition.ID{0}})
	pause, _ := lastOf[proto.Pause](g)
	if pause.Owner != "m1" || pause.Epoch != cptv.Epoch {
		t.Fatalf("PtV after a tick did not advance the relocation: last pause %+v", pause)
	}
	g.tick(time.Second)
	for _, d := range []time.Duration{rigTimeout, 2 * rigTimeout, 4 * rigTimeout} {
		g.expire(d) // the marker never comes
	}
	abort, to := lastOf[proto.RelocAbort](g)
	if to != "m1" || abort.Epoch != cptv.Epoch {
		t.Fatalf("RelocAbort{Epoch: %d} to %s, want the sender's epoch %d to m1", abort.Epoch, to, cptv.Epoch)
	}
}

// TestProtocolPlanTable holds PROTOCOL.md's "Plans, steps, escalation"
// table to the Go plan table, row for row.
func TestProtocolPlanTable(t *testing.T) {
	doc, err := os.ReadFile("../../PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "### Plans, steps, escalation\n")
	if !ok {
		t.Fatal(`PROTOCOL.md has no "### Plans, steps, escalation" section`)
	}
	section, _, _ = strings.Cut(section, "\n#")
	var documented []string
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue // prose, the header, the rule
		}
		cells := strings.Split(strings.Trim(line, "| "), "|")
		for i := range cells {
			cells[i] = strings.Trim(cells[i], " `")
		}
		documented = append(documented, strings.Join(cells, " | "))
	}
	g := newSyncRig(t, 2, lazy(), false)
	names := map[role]string{sender: "sender", receiver: "receiver", splitHost: "split host"}
	var table []string
	for _, p := range plans {
		side := "before"
		if !hasCommit(p) {
			side = "-"
		}
		for _, st := range p.steps {
			if st.commits {
				side = "after"
			}
			msg := st.build(g.coord, &run{plan: p, parts: []partition.ID{0}}, obs.TraceContext{})
			table = append(table, fmt.Sprintf("%s | %s | %s -> %s | %s <- %s | %s | %s", p.name, st.name,
				reflect.TypeOf(msg).Name(), names[st.to], reflect.TypeOf(st.awaits).Name(), names[st.from], side, st.exhaust))
		}
	}
	if !reflect.DeepEqual(documented, table) {
		t.Fatalf("PROTOCOL.md and plan.go differ.\ndocumented:\n  %s\nplan table:\n  %s",
			strings.Join(documented, "\n  "), strings.Join(table, "\n  "))
	}
}

// logged counts the coordinator's retained log entries of one event.
func logged(c *Coordinator, event string) int {
	n := 0
	for _, e := range c.Logger().Recent(0) {
		if e.Event == event {
			n++
		}
	}
	return n
}

func hasCommit(p *plan) bool {
	for _, st := range p.steps {
		if st.commits {
			return true
		}
	}
	return false
}

// reportAll delivers one StatsReport per engine, memory as given (all of
// it resident unless standby says otherwise).
func (g *syncRig) reportAll(mem, standby map[partition.NodeID]int64) {
	g.t.Helper()
	for _, e := range g.engines {
		g.handle(e, proto.StatsReport{Node: e, MemBytes: mem[e], Standby: standby[e], Groups: 4})
	}
}

// everyCptVTo runs lb ticks, each of which must send a fresh CptV to
// want — answered with an empty PtV, so the next tick decides again. At
// the parent the engine whose memory is all standby got it, answered
// with an empty PtV, and was asked again on every tick (finding 2).
func (g *syncRig) everyCptVTo(want partition.NodeID, check func(proto.CptV)) {
	g.t.Helper()
	var last uint64
	for tick := 0; tick < 3; tick++ {
		g.tick(time.Second)
		cptv, to := lastOf[proto.CptV](g)
		if to != want || cptv.Epoch == last {
			g.t.Fatalf("tick %d: last CptV %+v went to %s, want a fresh one to %s", tick, cptv, to, want)
		}
		check(cptv)
		g.handle(to, proto.PtV{Epoch: cptv.Epoch, Node: to})
		last = cptv.Epoch
	}
}

// TestShedNeverAsksAStandbyOnlyDonor: m3 owns nothing, m2 reports the
// most memory but all of it standby (its own groups spilled), m1 holds
// resident state. The shed comes from m1.
func TestShedNeverAsksAStandbyOnlyDonor(t *testing.T) {
	g := newSyncRig(t, 3, core.NoAdapt{}, false)
	if _, err := g.pmap.Move(g.pmap.OwnedBy("m3"), "m1"); err != nil {
		t.Fatal(err)
	}
	g.reportAll(map[partition.NodeID]int64{"m1": 6000, "m2": 8000}, map[partition.NodeID]int64{"m2": 8000})
	g.everyCptVTo("m1", func(cptv proto.CptV) {
		if cptv.Receiver != "m3" || !cptv.LowProd || cptv.Amount != 6000-14000/3 {
			t.Fatalf("shed %+v, want %d low-productivity bytes to m3", cptv, 6000-14000/3)
		}
	})
}

// TestRelocationNeverFromAStandbyOnlyEngine: on a replicated lazy-disk
// cluster whose fullest engine holds only standby, the relocation comes
// from the fullest engine with state of its own.
func TestRelocationNeverFromAStandbyOnlyEngine(t *testing.T) {
	g := newSyncRig(t, 3, lazy(), true)
	g.reportAll(map[partition.NodeID]int64{"m1": 9000, "m2": 1000, "m3": 200}, map[partition.NodeID]int64{"m1": 9000})
	g.everyCptVTo("m2", func(cptv proto.CptV) {
		if cptv.Receiver != "m3" || cptv.LowProd || cptv.Amount != 400 {
			t.Fatalf("relocation %+v, want 400 bytes to m3", cptv)
		}
	})
}

// TestNoShedOntoAnEngineStillDemoting: a revived engine that owns nothing
// is shed onto only once it has dropped the groups failed over away from
// it — state shipped to it earlier could land ahead of a re-sent Demote.
func TestNoShedOntoAnEngineStillDemoting(t *testing.T) {
	g, _ := scenarios["promotion"](t)
	g.answer() // PromoteAck
	g.answer() // RemapAck
	g.report("m3", 3000, 0)
	g.handle("m2", proto.Hello{Node: "m2", Kind: proto.KindEngine})
	demote, _ := lastOf[proto.Demote](g)
	sent := len(g.out)
	g.tick(time.Second)
	if len(g.out) != sent {
		t.Fatalf("the tick sent %T to %s while m2 is still demoting", g.last().msg, g.last().to)
	}
	g.handle("m2", proto.DemoteAck{Epoch: demote.Epoch, Node: "m2"})
	g.tick(time.Second)
	if cptv, to := lastOf[proto.CptV](g); to != "m3" || cptv.Receiver != "m2" || !cptv.LowProd {
		t.Fatalf("after the demotion: CptV %+v to %s, want m3 to shed onto m2", cptv, to)
	}
}
