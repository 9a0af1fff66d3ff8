package cluster

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/split"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// feeder is the stream generator node: it paces the synthetic streams
// against the virtual clock and routes them through the split Router,
// whose control messages (Pause/Remap) it also serves.
type feeder struct {
	clock         vclock.Clock
	gen           *workload.Generator
	flushInterval time.Duration
	log           *obs.Logger

	ep     transport.Endpoint
	router *split.Router

	drainCh   chan proto.DrainAck
	quiesceCh chan struct{}
	token     uint64

	// next / fedUntil make the pacing resumable: Feed can be called in
	// phases (chaos scripts feed, crash an engine, and feed again), and
	// each phase continues the virtual schedule where the previous one
	// ended.
	next     []vclock.Time
	fedUntil vclock.Time
}

func newFeeder(clock vclock.Clock, gen *workload.Generator, flushInterval time.Duration) *feeder {
	return &feeder{
		clock:         clock,
		gen:           gen,
		flushInterval: flushInterval,
		log:           obs.NewLogger(obs.LoggerConfig{Node: string(GeneratorNode), Kind: "generator", Now: clock.Now}),
		drainCh:       make(chan proto.DrainAck, 64),
		quiesceCh:     make(chan struct{}, 1),
		next:          make([]vclock.Time, gen.Config().Streams),
	}
}

func (f *feeder) attach(net transport.Network, owner []partition.NodeID, version uint64) error {
	ep, err := net.Attach(GeneratorNode, f.handle)
	if err != nil {
		return err
	}
	f.ep = ep
	router, err := split.New(ep, CoordinatorNode, f.gen.PartitionFunc(), owner, version, split.DefaultBatchSize)
	if err != nil {
		return err
	}
	f.router = router
	return nil
}

func (f *feeder) handle(from partition.NodeID, msg proto.Message) {
	if handled, err := f.router.HandleControl(msg); handled {
		if err != nil {
			f.log.Error("router_control_error", obs.FErr(err))
		}
		return
	}
	//distq:handles generator
	switch m := msg.(type) {
	case proto.DrainAck:
		f.drainCh <- m
	case proto.QuiesceAck:
		select {
		case f.quiesceCh <- struct{}{}:
		default:
		}
	default:
		f.log.Warn("unexpected_message", obs.F("type", fmt.Sprintf("%T", msg)), obs.F("from", string(from)))
	}
}

// feed paces all streams for a further virtual duration d, continuing
// the schedule where the previous call ended. Each stream emits one
// tuple every InterArrival of virtual time.
func (f *feeder) feed(d time.Duration) error {
	cfg := f.gen.Config()
	end := f.fedUntil.Add(d)
	f.fedUntil = end
	for {
		now := f.clock.Now()
		for s := 0; s < cfg.Streams; s++ {
			for f.next[s] <= now && f.next[s] < end {
				t := f.gen.Next(s, f.next[s])
				if err := f.router.Route(t); err != nil {
					return fmt.Errorf("cluster: route tuple: %w", err)
				}
				f.next[s] = f.next[s].Add(cfg.InterArrival)
			}
		}
		if err := f.router.Flush(); err != nil {
			return fmt.Errorf("cluster: flush: %w", err)
		}
		if now >= end {
			return nil
		}
		f.clock.Sleep(f.flushInterval)
	}
}

// quiesce fences the coordinator: no further adaptations start, and any
// in-flight relocation (whose remap may still flush buffered tuples onto
// the data path) has completed.
func (f *feeder) quiesce(coordinatorNode partition.NodeID) error {
	if err := f.ep.Send(coordinatorNode, proto.Quiesce{}); err != nil {
		return err
	}
	select {
	case <-f.quiesceCh:
		return nil
	case <-vclock.WallTimeout(30 * time.Second):
		return fmt.Errorf("cluster: quiesce timed out")
	}
}

// drain fences the data path: Drain travels behind all data on the FIFO
// (generator, engine) pairs, so every ack proves full processing. A
// second fence through the application server then guarantees the final
// result reports (sent by the engines while draining) are recorded too.
func (f *feeder) drain(engines []partition.NodeID) error {
	if err := f.router.Flush(); err != nil {
		return err
	}
	f.token++
	for _, node := range engines {
		if err := f.ep.Send(node, proto.Drain{Token: f.token}); err != nil {
			return err
		}
	}
	pending := make(map[partition.NodeID]bool, len(engines))
	for _, node := range engines {
		pending[node] = true
	}
	timeout := vclock.WallTimeout(60 * time.Second)
	for len(pending) > 0 {
		select {
		case ack := <-f.drainCh:
			if ack.Token == f.token {
				delete(pending, ack.Node)
			}
		case <-timeout:
			return fmt.Errorf("cluster: drain timed out with %d engines pending", len(pending))
		}
	}
	// App-server fence.
	f.token++
	if err := f.ep.Send(AppServerNode, proto.Drain{Token: f.token}); err != nil {
		return err
	}
	for {
		select {
		case ack := <-f.drainCh:
			if ack.Token == f.token {
				return nil
			}
		case <-timeout:
			return fmt.Errorf("cluster: app-server drain timed out")
		}
	}
}

// generated reports the total number of tuples fed across all streams.
func (f *feeder) generated() uint64 {
	var n uint64
	for s := 0; s < f.gen.Config().Streams; s++ {
		n += f.gen.Emitted(s)
	}
	return n
}
