package engine

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/spill"
	"repro/internal/transport"
	"repro/internal/transport/faulty"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// until collects what p receives up to and including the first T.
func until[T proto.Message](t *testing.T, p *peer) []proto.Message {
	t.Helper()
	var got []proto.Message
	deadline := time.After(5 * time.Second)
	for {
		select {
		case m := <-p.msgs:
			got = append(got, m.msg)
			if _, ok := m.msg.(T); ok {
				return got
			}
		case <-deadline:
			var zero T
			t.Fatalf("timed out waiting for %T", zero)
		}
	}
}

// fourGroups is one matching pair in each of partitions 0..3.
func fourGroups(t *testing.T) proto.Data {
	return dataMsg(t, mk(0, 0, 1), mk(1, 0, 2), mk(0, 1, 3), mk(1, 1, 4),
		mk(0, 2, 5), mk(1, 2, 6), mk(0, 3, 7), mk(1, 3, 8))
}

// A CptV delayed past its own SendStates is the original of a retry
// already answered. Taken for a new choice, it threw away the shipped
// images, so when the first StateTransfer was lost the SendStates retry
// re-shipped empty ones: the receiver acked an install of nothing and
// the map committed the groups to an engine holding none of their state.
func TestLateCptVKeepsTheShippedImages(t *testing.T) {
	r := newRig(t, nil)
	m2 := newPeer(t, r.net, "m2")
	r.gen.ep.Send("m1", fourGroups(t))
	cptv := proto.CptV{Epoch: 5, Amount: 1, Receiver: "m2"}
	r.gc.ep.Send("m1", cptv)
	ptv := expect[proto.PtV](t, r.gc)
	ship := proto.SendStates{Epoch: 5, Partitions: ptv.Partitions, Receiver: "m2"}
	r.gc.ep.Send("m1", ship)
	first := expect[proto.StateTransfer](t, m2) // lost: m2 never installs it
	r.gc.ep.Send("m1", cptv)                    // the delayed original
	r.gc.ep.Send("m1", ship)                    // the coordinator's retry
	again := expect[proto.StateTransfer](t, m2)
	if len(first.Images) == 0 || !reflect.DeepEqual(again.Images, first.Images) {
		t.Fatalf("the retry re-shipped %d images, the first shipment %d: they must be the same", len(again.Images), len(first.Images))
	}
}

// The same late CptV put the engine back into relocate mode for a run
// the coordinator had finished, and relocate mode skips the local spill.
func TestLateCptVLeavesRelocateMode(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.LocalSpill = true
		c.Spill = core.SpillConfig{MemThreshold: 100, Fraction: 0.5}
	})
	newPeer(t, r.net, "m2")
	r.gen.ep.Send("m1", fourGroups(t))
	cptv := proto.CptV{Epoch: 5, Amount: 1, Receiver: "m2"}
	r.gc.ep.Send("m1", cptv)
	ptv := expect[proto.PtV](t, r.gc)
	r.gc.ep.Send("m1", proto.SendStates{Epoch: 5, Partitions: ptv.Partitions, Receiver: "m2"})
	r.gc.ep.Send("m1", cptv)
	r.gc.ep.Send("m1", proto.Tick{Kind: proto.TickSpill})
	r.drain(t)
	if n := spills(r.engine); n != 1 {
		t.Fatalf("%d spills over the threshold after the relocation, want 1 (mode %v)", n, r.engine.mode())
	}
}

// syncNet is a network of one engine that the test drives synchronously:
// it delivers every message by calling the engine's handler itself, and
// records what the engine sends.
type syncNet struct {
	node partition.NodeID
	out  []sent
}

type sent struct {
	to  partition.NodeID
	msg proto.Message
}

func (n *syncNet) Attach(node partition.NodeID, _ transport.Handler) (transport.Endpoint, error) {
	n.node = node
	return n, nil
}
func (n *syncNet) Close() error           { return nil }
func (n *syncNet) Node() partition.NodeID { return n.node }
func (n *syncNet) Send(to partition.NodeID, msg proto.Message) error {
	n.out = append(n.out, sent{to, msg})
	return nil
}

// desk is an engine over a syncNet, wrapped in a fault injector for
// scripted drops.
type desk struct {
	t     *testing.T
	e     *Engine
	net   *syncNet
	fault *faulty.Network
}

func newDesk(t *testing.T, mutate func(*Config)) *desk {
	t.Helper()
	cfg := Config{Node: "m1", Coordinator: "gc", AppServer: "app", Inputs: 2, Partitions: 4,
		StatsInterval: time.Hour, SpillCheckInterval: time.Hour}
	if mutate != nil {
		mutate(&cfg)
	}
	clock := vclock.NewManual()
	d := &desk{t: t, e: mustNew(t, cfg, clock), net: &syncNet{}}
	d.fault = faulty.New(d.net, clock, faulty.Config{})
	if err := d.e.Attach(d.fault); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.e.Crash)
	return d
}

// handle delivers m from the given node and returns what the engine sent.
func (d *desk) handle(from partition.NodeID, m proto.Message) []sent {
	mark := len(d.net.out)
	d.e.Handle(from, m)
	return d.net.out[mark:]
}

// reply delivers m and returns the one message the engine answered with.
func (d *desk) reply(from partition.NodeID, m proto.Message) sent {
	d.t.Helper()
	out := d.handle(from, m)
	if len(out) != 1 {
		d.t.Fatalf("%T answered with %d messages, want 1: %+v", m, len(out), out)
	}
	return out[0]
}

// effects is everything a step can change in an engine.
type effects struct {
	mem, spilled, standby        int64
	groups, segments, standbySeg int
	logs                         []string
	metrics                      []obs.MetricValue
	mode                         core.Mode
}

func (d *desk) effects() effects {
	e := d.e
	var logs []string
	for _, le := range e.Logger().Recent(0) {
		logs = append(logs, le.Event+" "+le.Attrs)
	}
	return effects{
		mem: e.Op().MemBytes(), spilled: int64(e.reg.Sum("distq_engine_spill_bytes_total")), standby: e.repl.standbyBytes,
		groups: e.Op().Groups(), segments: e.cfg.Store.SegmentCount(), standbySeg: e.cfg.StandbyStore.SegmentCount(),
		logs: logs, metrics: e.Registry().Export(), mode: e.mode(),
	}
}

// image is an encoded group image of partition g.
func image(g partition.ID, seq uint64) []byte {
	return spill.AppendImage(nil, &spill.Image{Mem: snap(g, 0, []tuple.Tuple{mk(0, uint64(g), seq)}, []tuple.Tuple{mk(1, uint64(g), seq+1)})})
}

// withID returns m with its run id (Epoch, or a ForceSpill's Seq) set.
func withID(m proto.Message, id uint64) proto.Message {
	v := reflect.New(reflect.TypeOf(m)).Elem()
	v.Set(reflect.ValueOf(m))
	f := v.FieldByName("Epoch")
	if !f.IsValid() {
		f = v.FieldByName("Seq")
	}
	f.SetUint(id)
	return v.Interface().(proto.Message)
}

// A stepCase brings a fresh engine to where the coordinator sends one
// engine-facing step, and returns that step under id and its sender.
type stepCase func(d *desk, id uint64) (partition.NodeID, proto.Message)

// stepCases covers every row of PROTOCOL.md's plan table that sends to an
// engine, keyed plan/step, plus the StateTransfer a sender relays.
var stepCases = map[string]stepCase{
	"relocation/wait_ptv": func(d *desk, id uint64) (partition.NodeID, proto.Message) {
		d.handle("gen", fourGroups(d.t))
		return "gc", proto.CptV{Epoch: id, Amount: 1, Receiver: "m2"}
	},
	"relocation/wait_installed": func(d *desk, id uint64) (partition.NodeID, proto.Message) {
		d.handle("gen", fourGroups(d.t))
		ptv := d.reply("gc", proto.CptV{Epoch: id, Amount: 1, Receiver: "m2"}).msg.(proto.PtV)
		return "gc", proto.SendStates{Epoch: id, Partitions: ptv.Partitions, Receiver: "m2"}
	},
	"drain/wait_installed": func(d *desk, id uint64) (partition.NodeID, proto.Message) {
		d.handle("gen", fourGroups(d.t))
		return "gc", proto.SendStates{Epoch: id, Partitions: []partition.ID{0, 1}, Receiver: "m2", Directed: true}
	},
	"forced_spill/wait_spill_done": func(d *desk, id uint64) (partition.NodeID, proto.Message) {
		d.handle("gen", fourGroups(d.t))
		return "gc", proto.ForceSpill{Amount: 1, Seq: id}
	},
	// The probe finds the transfer installed: the coordinator commits forward.
	"rollback/abort_wait_receiver": func(d *desk, id uint64) (partition.NodeID, proto.Message) {
		d.reply("m2", proto.StateTransfer{Epoch: id, Images: [][]byte{image(2, 1)}})
		return "gc", proto.RelocAbort{Epoch: id}
	},
	"rollback/abort_wait_sender": func(d *desk, id uint64) (partition.NodeID, proto.Message) {
		d.handle("gen", fourGroups(d.t))
		ptv := d.reply("gc", proto.CptV{Epoch: id, Amount: 1, Receiver: "m2"}).msg.(proto.PtV)
		d.reply("gc", proto.SendStates{Epoch: id, Partitions: ptv.Partitions, Receiver: "m2"})
		return "gc", proto.RelocAbort{Epoch: id}
	},
	"promotion/promo_wait_ack": func(d *desk, id uint64) (partition.NodeID, proto.Message) {
		d.reply("m2", proto.StateDelta{From: "m2", Incarnation: 1, Seq: 1,
			Entries: []proto.DeltaEntry{{Group: 2, Kind: proto.DeltaSeed, Payload: image(2, 1)}}})
		return "gc", proto.Promote{Epoch: id, From: "m2", Groups: []partition.ID{2}}
	},
	"demote/demote_wait_ack": func(d *desk, id uint64) (partition.NodeID, proto.Message) {
		d.handle("gen", fourGroups(d.t))
		return "gc", proto.Demote{Epoch: id, Groups: []partition.ID{0, 1}}
	},
	"relayed/StateTransfer": func(d *desk, id uint64) (partition.NodeID, proto.Message) {
		return "m2", proto.StateTransfer{Epoch: id, Images: [][]byte{image(2, 1), image(3, 3)}}
	},
}

// engineSteps reads the rows of PROTOCOL.md's "Plans, steps, escalation"
// table whose step goes to an engine: plan/step → message type.
func engineSteps(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile("../../PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "### Plans, steps, escalation\n")
	if !ok {
		t.Fatal(`PROTOCOL.md has no "### Plans, steps, escalation" section`)
	}
	section, _, _ = strings.Cut(section, "\n#")
	rows := make(map[string]string)
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), "|")
		for i := range cells {
			cells[i] = strings.Trim(cells[i], " `")
		}
		if msg, to, _ := strings.Cut(cells[2], " -> "); to == "sender" || to == "receiver" {
			rows[cells[0]+"/"+cells[1]] = msg
		}
	}
	if len(rows) == 0 {
		t.Fatal("no engine-facing rows in PROTOCOL.md's plan table")
	}
	rows["relayed/StateTransfer"] = "StateTransfer"
	return rows
}

// TestEngineStepTable is generated from PROTOCOL.md's plan table: every
// step the coordinator sends an engine (and the StateTransfer a sender
// relays), answered once, is answered again with a DeepEqual reply and
// no second side effect when repeated; under an id below one the engine
// has since answered it is dropped — no reply, no side effect; and a
// StateTransfer after its id's RelocAbort installs nothing.
func TestEngineStepTable(t *testing.T) {
	for key, msgType := range engineSteps(t) {
		t.Run(key, func(t *testing.T) {
			setup := stepCases[key]
			if setup == nil {
				t.Fatalf("engine-facing row %s has no case in stepCases", key)
			}
			const id = 5
			d := newDesk(t, nil)
			from, step := setup(d, id)
			if got := reflect.TypeOf(step).Name(); got != msgType {
				t.Fatalf("the case sends %s, the table %s", got, msgType)
			}
			first := d.reply(from, step)

			before := d.effects()
			if again := d.reply(from, step); !reflect.DeepEqual(again, first) {
				t.Fatalf("repeat answered %+v, the first %+v", again, first)
			}
			if after := d.effects(); !reflect.DeepEqual(after, before) {
				t.Fatalf("repeat had a side effect:\n%+v\n->\n%+v", before, after)
			}

			out := d.handle(from, withID(step, id-1))
			// A demote's id orders nothing (ledger.go), so a lower one is
			// acknowledged — and drops nothing that is here.
			if _, demote := step.(proto.Demote); demote && len(out) == 1 {
				if ack, ok := out[0].msg.(proto.DemoteAck); ok && ack.Epoch == id-1 {
					out = nil
				}
			}
			if len(out) != 0 {
				t.Fatalf("the step under a lower id was answered: %+v", out)
			}
			if after := d.effects(); !reflect.DeepEqual(after, before) {
				t.Fatalf("the step under a lower id had a side effect:\n%+v\n->\n%+v", before, after)
			}

			d.reply("gc", proto.RelocAbort{Epoch: id})
			before = d.effects()
			if out := d.handle("m2", proto.StateTransfer{Epoch: id, Images: [][]byte{image(1, 100)}}); len(out) != 0 {
				t.Fatalf("a transfer after its RelocAbort was answered: %+v", out)
			}
			if after := d.effects(); !reflect.DeepEqual(after, before) {
				t.Fatalf("a transfer after its RelocAbort had a side effect:\n%+v\n->\n%+v", before, after)
			}
		})
	}
}

// TestLedgerStaysBounded: one engine answers a thousand rounds of every
// role — relocation sender and receiver, forced spill, promotion,
// demotion. What it keeps of them is one entry and at most one arrival
// per partition.
func TestLedgerStaysBounded(t *testing.T) {
	d := newDesk(t, nil)
	var id, fg uint64 // the last run, and the last foreground one
	next := func() uint64 { id++; return id }
	for i := uint64(0); i < 1000; i++ {
		g := partition.ID(i % 4)
		d.handle("gen", dataMsg(t, mk(0, uint64(g), 10*i), mk(1, uint64(g+1)%4, 10*i+1)))
		run := next()
		if ptv := d.reply("gc", proto.CptV{Epoch: run, Amount: 1, Receiver: "m2"}).msg.(proto.PtV); len(ptv.Partitions) > 0 {
			d.reply("gc", proto.SendStates{Epoch: run, Partitions: ptv.Partitions, Receiver: "m2"})
		}
		d.reply("m2", proto.StateTransfer{Epoch: next(), Images: [][]byte{image(g, 10*i+2)}})
		d.reply("gc", proto.ForceSpill{Amount: 1, Seq: next()})
		d.reply("m2", proto.StateDelta{From: "m2", Incarnation: 1, Seq: i + 1,
			Entries: []proto.DeltaEntry{{Group: g, Kind: proto.DeltaSeed, Payload: image(g, 10*i+4)}}})
		fg = next()
		d.reply("gc", proto.Promote{Epoch: fg, From: "m2", Groups: []partition.ID{g}})
		d.reply("gc", proto.Demote{Epoch: next(), Groups: []partition.ID{(g + 2) % 4}})
	}
	if n := len(d.e.ledger.arrived); n > d.e.cfg.Partitions {
		t.Fatalf("the ledger holds %d arrivals for %d partitions", n, d.e.cfg.Partitions)
	}
	if d.e.ledger.id != fg {
		t.Fatalf("the ledger stands at run %d, the last foreground one was %d", d.e.ledger.id, fg)
	}
	if n := len(d.e.repl.promoted); n > d.e.cfg.Partitions {
		t.Fatalf("%d promoted groups for %d partitions", n, d.e.cfg.Partitions)
	}
}

// A Demote drops only what arrived before it. A duplicate that comes
// after a group came back under a later relocation leaves the group
// resident, and so does a first delivery that lags a later promotion.
func TestDemoteSparesGroupsThatCameBack(t *testing.T) {
	d := newDesk(t, nil)
	d.handle("gen", fourGroups(t))
	demote := proto.Demote{Epoch: 10, Groups: []partition.ID{1, 2}}
	d.reply("gc", demote)
	if d.e.Op().ResidentSnapshot(1) != nil || d.e.Op().ResidentSnapshot(2) != nil {
		t.Fatal("the demote left its groups resident")
	}
	d.reply("m2", proto.StateTransfer{Epoch: 12, Images: [][]byte{image(1, 20)}})
	d.reply("m2", proto.StateDelta{From: "m2", Incarnation: 1, Seq: 1,
		Entries: []proto.DeltaEntry{{Group: 3, Kind: proto.DeltaSeed, Payload: image(3, 30)}}})
	d.reply("gc", proto.Promote{Epoch: 14, From: "m2", Groups: []partition.ID{3}})
	before := d.effects()

	d.reply("gc", demote)                                             // duplicated
	d.reply("gc", proto.Demote{Epoch: 13, Groups: []partition.ID{3}}) // first delivery, late
	if d.e.Op().ResidentSnapshot(1) == nil || d.e.Op().ResidentSnapshot(3) == nil {
		t.Fatal("a demote dropped a group that came back after it")
	}
	if after := d.effects(); !reflect.DeepEqual(after, before) {
		t.Fatalf("the late demotes had a side effect:\n%+v\n->\n%+v", before, after)
	}
}

// sentOf lists the messages of type T among out.
func sentOf[T proto.Message](out []sent) []T {
	var ts []T
	for _, s := range out {
		if m, ok := s.msg.(T); ok {
			ts = append(ts, m)
		}
	}
	return ts
}

// A DynamicJoin engine re-sends its JoinRequest with every stats report
// until JoinAck, and not after.
func TestJoinRequestRidesTheStatsTick(t *testing.T) {
	d := newDesk(t, func(c *Config) { c.DynamicJoin = true })
	d.fault.DropMatching(2, func(_, _ partition.NodeID, m proto.Message) bool {
		_, ok := m.(proto.JoinRequest)
		return ok
	})
	if err := d.e.Start(); err != nil {
		t.Fatal(err)
	}
	tick := proto.Tick{Kind: proto.TickStats}
	for n, want := range []int{0, 0, 1} { // Start's and the first tick's are lost
		if n > 0 {
			d.handle("m1", tick)
		}
		if got := len(sentOf[proto.JoinRequest](d.net.out)); got != want {
			t.Fatalf("after %d ticks %d JoinRequests arrived, want %d", n, got, want)
		}
	}
	d.handle("gc", proto.JoinAck{Node: "m1", Accepted: true})
	if !d.e.joined.Load() {
		t.Fatal("JoinAck did not admit the engine")
	}
	if out := d.handle("m1", tick); len(sentOf[proto.JoinRequest](out)) != 0 || len(sentOf[proto.StatsReport](out)) != 1 {
		t.Fatalf("the tick after JoinAck sent %+v, want its StatsReport alone", out)
	}
}

// Leave rides the stats tick — the next report carries it — and a lost
// LeaveAck is healed by the report after.
func TestLeaveRidesTheStatsTick(t *testing.T) {
	d := newDesk(t, nil)
	d.e.Leave()
	tick := proto.Tick{Kind: proto.TickStats}
	for i := 0; i < 2; i++ { // the first LeaveAck is lost
		if out := d.handle("m1", tick); len(sentOf[proto.Leave](out)) != 1 {
			t.Fatalf("tick %d after Leave sent %+v, want a Leave", i, out)
		}
	}
	d.handle("gc", proto.LeaveAck{Node: "m1"})
	if out := d.handle("m1", tick); !d.e.Left() || len(sentOf[proto.Leave](out)) != 0 {
		t.Fatalf("left %v; the tick after LeaveAck sent %+v", d.e.Left(), out)
	}
}
