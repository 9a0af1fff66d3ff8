package engine

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/spill"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// replicator is the engine's replication controller: the primary side
// streams per-group state increments to each group's follower, the
// follower side keeps the increments as warm standby copies outside the
// join operator, ready to become resident state on a Promote. It lives
// entirely on the handler goroutine (messages and sr_timer ticks), so
// like the rest of the engine it needs no locking.
//
// The stream is a simple sender-driven reliable channel per
// (primary, follower) pair: deltas carry a dense sequence number, the
// follower applies them in order (answering duplicates and gaps with
// the sequence it stands at), and the primary retransmits everything
// unacknowledged on every stats tick. Sequence numbers only mean
// something within one life of each end, so both ends stamp their
// messages with their incarnation (onDelta, onAck).
//
// Replication is spill-aware (tiered standby). A group's seed is its
// whole image — memory tier and disk segments — and every later spill
// of a replicated group rides the delta stream as a spill marker; the
// follower demotes the matching fraction of its standby into its own
// local standby store, stamped with the primary's generation. The
// standby is thus the group's image held outside the operator (memory
// tier in the standby map, disk tier in cfg.StandbyStore), its segment
// boundaries stay aligned with the primary's generations (the cleanup
// phase emits cross-generation matches exactly once only because of
// that alignment), and a promotion is exact even for groups that
// spilled: it installs the image into the engine's operator and store,
// where cleanup and relocation already know how to handle it.
type replicator struct {
	e *Engine
	// incarnation identifies this engine life on the deltas and acks it
	// sends: its boot time, so a later life always compares higher.
	incarnation uint64
	// version is the highest ReplicaMap version applied.
	version uint64
	// followerOf maps the groups this engine primaries (per the applied
	// replica map) to their follower engine. Empty until a replica map
	// arrives, which keeps the data-path hook free when replication is
	// off.
	followerOf map[partition.ID]partition.NodeID
	// streams holds the outbound per-follower state.
	streams map[partition.NodeID]*replStream
	// inbound is the follower-side cursor of each primary's stream.
	inbound map[partition.NodeID]inbound
	// standby holds the memory tier of the warm follower copies, keyed
	// by group; the disk tier lives in cfg.StandbyStore.
	standby      map[partition.ID]*join.GroupSnapshot
	standbyBytes int64
	// promoted marks groups this engine took over via Promote: a late
	// replication tail from the demoted old primary merges straight into
	// the resident operator state instead of a standby nobody reads.
	promoted map[partition.ID]bool
}

// inbound is where this follower stands in one primary's delta stream:
// the primary life it follows, the highest sequence applied in it, and
// how many entries of delta applied+1 have landed already — a delta
// that failed part-way resumes there when the primary retransmits it.
type inbound struct {
	incarnation, applied uint64
	landed               int
}

// replStream is the outbound replication state toward one follower.
type replStream struct {
	// followerLife is the follower's incarnation as of its latest ack
	// (0 until one arrives).
	followerLife uint64
	// tracked is the set of groups currently streamed to this follower.
	tracked map[partition.ID]bool
	// needSeed marks groups awaiting a full-snapshot seed; the data-path
	// hook skips them (the seed captures everything up to its tick).
	needSeed map[partition.ID]bool
	// cur accumulates tuple-encoded appends since the last packaged
	// delta, per group.
	cur     map[partition.ID][]byte
	nextSeq uint64
	// pending holds packaged deltas not yet acknowledged, in sequence
	// order; all of them are retransmitted on every stats tick.
	pending []pendingDelta
}

type pendingDelta struct {
	seq     uint64
	entries []proto.DeltaEntry
}

func newReplStream() *replStream {
	return &replStream{
		tracked:  make(map[partition.ID]bool),
		needSeed: make(map[partition.ID]bool),
		cur:      make(map[partition.ID][]byte),
	}
}

func newReplicator(e *Engine) *replicator {
	return &replicator{
		e:           e,
		incarnation: uint64(vclock.WallNow().UnixNano()),
		followerOf:  make(map[partition.ID]partition.NodeID),
		streams:     make(map[partition.NodeID]*replStream),
		inbound:     make(map[partition.NodeID]inbound),
		standby:     make(map[partition.ID]*join.GroupSnapshot),
		promoted:    make(map[partition.ID]bool),
	}
}

// applyMap reconciles the outbound streams with a new follower
// assignment. Groups newly assigned (or reassigned to a different
// follower) are marked for a full-snapshot seed; groups no longer ours
// stop streaming, and standby copies of groups this engine no longer
// follows are dropped (both tiers). Older or equal versions are ignored
// — the coordinator rebroadcasts the current map every tick, so this is
// the idempotence point of the whole replication plane.
func (r *replicator) applyMap(m proto.ReplicaMap) error {
	if m.Version <= r.version {
		return nil
	}
	r.version = m.Version
	self := r.e.cfg.Node
	next := make(map[partition.ID]partition.NodeID)
	byFollower := make(map[partition.NodeID]map[partition.ID]bool)
	follows := make(map[partition.ID]bool)
	for _, ent := range m.Entries {
		if ent.Follower == self {
			follows[ent.Group] = true
		}
		if ent.Primary != self {
			continue
		}
		next[ent.Group] = ent.Follower
		set := byFollower[ent.Follower]
		if set == nil {
			set = make(map[partition.ID]bool)
			byFollower[ent.Follower] = set
		}
		set[ent.Group] = true
	}
	r.followerOf = next
	for f, s := range r.streams {
		want := byFollower[f]
		for g := range s.tracked {
			if !want[g] {
				delete(s.tracked, g)
				delete(s.needSeed, g)
				delete(s.cur, g)
			}
		}
	}
	for f, want := range byFollower {
		s := r.streams[f]
		if s == nil {
			s = newReplStream()
			r.streams[f] = s
		}
		for g := range want {
			if !s.tracked[g] {
				s.tracked[g] = true
				s.needSeed[g] = true
			}
		}
	}
	// Follower-side GC: drop standby copies of groups the new map no
	// longer assigns to this engine. Promoted groups are exempt — their
	// primary is this engine now, and a promote retry still needs any
	// standby a partial failure left behind.
	var firstErr error
	for g := range r.standby {
		if !follows[g] && !r.promoted[g] {
			r.setStandby(g, nil)
		}
	}
	for _, g := range r.e.cfg.StandbyStore.Groups() {
		if follows[g] || r.promoted[g] {
			continue
		}
		if _, err := r.e.cfg.StandbyStore.Remove(g); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("drop standby segments of group %d: %w", g, err)
		}
	}
	return firstErr
}

// setStandby replaces the memory tier of group g's standby image (nil
// drops it) and keeps standbyBytes — what the engine reports and spills
// against — equal to the bytes the standby map holds.
func (r *replicator) setStandby(g partition.ID, mem *join.GroupSnapshot) {
	if old := r.standby[g]; old != nil {
		r.standbyBytes -= old.MemBytes()
	}
	if mem == nil {
		delete(r.standby, g)
		return
	}
	r.standby[g] = mem
	r.standbyBytes += mem.MemBytes()
}

// bufferAppend records one stored tuple for its group's follower. Runs
// on the data path for every tuple entering the join, so the not-a-
// primary and awaiting-seed cases must stay map-lookup cheap.
func (r *replicator) bufferAppend(g partition.ID, t *tuple.Tuple) {
	f, ok := r.followerOf[g]
	if !ok {
		return
	}
	s := r.streams[f]
	if s == nil || !s.tracked[g] || s.needSeed[g] {
		return
	}
	s.cur[g] = t.AppendTo(s.cur[g])
}

// forgetOwned stops replicating a group this engine no longer owns
// (relocated away or demoted). The new primary re-seeds its follower
// from scratch once the coordinator's next replica map lands.
func (r *replicator) forgetOwned(g partition.ID) {
	delete(r.followerOf, g)
	delete(r.promoted, g)
	for _, s := range r.streams {
		delete(s.tracked, g)
		delete(s.needSeed, g)
		delete(s.cur, g)
	}
}

// tailFlush packages the still-buffered appends of groups about to be
// dropped (demotion) into an immediate final delta per follower, so
// tuples that never reached the promoted new owner merge into its
// resident state instead of vanishing with the stale copy. The deltas
// ride the ordinary pending/retransmit machinery.
func (r *replicator) tailFlush(groups []partition.ID) {
	for f, s := range r.streams {
		var entries []proto.DeltaEntry
		for _, g := range groups {
			if buf := s.cur[g]; len(buf) > 0 && !s.needSeed[g] {
				entries = append(entries, proto.DeltaEntry{Group: g, Kind: proto.DeltaAppend, Payload: buf})
			}
			delete(s.cur, g)
			delete(s.needSeed, g)
			delete(s.tracked, g)
		}
		r.ship(f, s, entries)
	}
}

// ship cuts entries (if any) as the stream's next delta: sent now, then
// retransmitted with the rest of pending until acknowledged.
func (r *replicator) ship(f partition.NodeID, s *replStream, entries []proto.DeltaEntry) {
	if len(entries) == 0 {
		return
	}
	s.nextSeq++
	s.pending = append(s.pending, pendingDelta{seq: s.nextSeq, entries: entries})
	r.sendDelta(f, s.nextSeq, entries)
}

// sendDelta ships one packaged delta to follower f. The send error is
// deliberately dropped: the delta sits in the stream's pending list and
// is retransmitted on every stats tick until the follower acknowledges
// it, so a failed immediate send only costs latency.
func (r *replicator) sendDelta(f partition.NodeID, seq uint64, entries []proto.DeltaEntry) {
	//distqlint:allow uncheckederr: retransmitted on every stats tick until acknowledged
	r.e.ep.Send(f, proto.StateDelta{From: r.e.cfg.Node, Incarnation: r.incarnation, Seq: seq, Entries: entries})
	r.e.reg.Counter("distq_engine_deltas_out_total").Inc()
}

// noteSpill tells every follower about a just-executed local spill of
// the given groups: first the appends still buffered for the group
// (they belong to the spilled generation), then a spill marker carrying
// that generation, so the follower demotes the matching standby
// fraction into its own local store. The delta is packaged immediately
// — appends arriving after the spill belong to the next generation and
// must order after the marker, or the follower's segment boundaries
// drift off the primary's and cleanup double-emits across them.
func (r *replicator) noteSpill(groups []partition.ID) {
	for f, s := range r.streams {
		var entries []proto.DeltaEntry
		for _, g := range groups {
			if !s.tracked[g] || s.needSeed[g] {
				// An unseeded group's next seed carries the new segment
				// itself; no marker needed.
				continue
			}
			if buf := s.cur[g]; len(buf) > 0 {
				entries = append(entries, proto.DeltaEntry{Group: g, Kind: proto.DeltaAppend, Payload: buf})
			}
			delete(s.cur, g)
			snap := r.e.op.ResidentSnapshot(g)
			if snap == nil || snap.Gen == 0 {
				continue // group vanished between spill and hook; nothing to mark
			}
			entries = append(entries, proto.DeltaEntry{Group: g, Kind: proto.DeltaSpillMark,
				Payload: binary.LittleEndian.AppendUint32(nil, snap.Gen-1)})
		}
		r.ship(f, s, entries)
	}
}

// tick packages the accumulated increments (seeds first, then appends)
// into one delta per follower and retransmits every unacknowledged
// delta. Called on each sr_timer expiry. A group whose segments cannot
// be read stays marked for seeding and is retried next tick; the first
// such error is returned after all followers are serviced.
func (r *replicator) tick() error {
	var firstErr error
	for _, f := range sortedKeys(r.streams) {
		s := r.streams[f]
		var entries []proto.DeltaEntry
		for _, g := range sortedKeys(s.needSeed) {
			im, err := spill.Copy(r.e.op, r.e.cfg.Store, g)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("seed of group %d: %w", g, err)
				}
				continue // keep needSeed set; retried next tick
			}
			// A group with no state at all needs no seed: the follower
			// builds its standby from the appends alone.
			if !im.Empty() {
				entries = append(entries, proto.DeltaEntry{Group: g, Kind: proto.DeltaSeed, Payload: spill.AppendImage(nil, im)})
			}
			delete(s.needSeed, g)
			delete(s.cur, g) // anything buffered pre-seed is inside the snapshot
		}
		for _, g := range sortedKeys(s.cur) {
			if len(s.cur[g]) > 0 {
				entries = append(entries, proto.DeltaEntry{Group: g, Kind: proto.DeltaAppend, Payload: s.cur[g]})
			}
			delete(s.cur, g)
		}
		for _, p := range s.pending {
			r.sendDelta(f, p.seq, p.entries)
		}
		r.ship(f, s, entries)
	}
	return firstErr
}

// sortedKeys returns m's keys in ascending order, so deltas are cut the
// same way on every run.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// lag returns the per-group replication lag in bytes: appends not yet
// packaged, deltas sent but unacknowledged, and — for groups still
// awaiting their seed — both tiers of the image the seed must ship: the
// group's resident size (sizeOf) plus its spilled segments.
func (r *replicator) lag(sizeOf func(partition.ID) int64) map[partition.ID]int64 {
	if r.version == 0 {
		return nil
	}
	out := make(map[partition.ID]int64)
	for _, s := range r.streams {
		for g, buf := range s.cur {
			out[g] += int64(len(buf))
		}
		for g := range s.needSeed {
			out[g] += sizeOf(g) + r.e.cfg.Store.BytesOf(g)
		}
		for _, p := range s.pending {
			for _, ent := range p.entries {
				out[ent.Group] += int64(len(ent.Payload))
			}
		}
	}
	return out
}

// onDelta is the follower side: apply one in-order delta to the standby
// copies (or, for a group this engine already promoted, straight into
// the resident operator state — the demoted old primary's tail flush).
// Duplicates and gaps are answered with the sequence this follower
// stands at: the primary retransmits in order, and the ack's
// incarnation tells it when the follower it was feeding has restarted
// empty. A newer life of the primary starts the cursor over (it numbers
// from 1); an older life's delta is a straggler and is dropped.
func (r *replicator) onDelta(m proto.StateDelta) error {
	in := r.inbound[m.From]
	if m.Incarnation < in.incarnation {
		return nil
	}
	if m.Incarnation > in.incarnation {
		in = inbound{incarnation: m.Incarnation}
	}
	defer func() { r.inbound[m.From] = in }()
	ack := proto.DeltaAck{Node: r.e.cfg.Node, Incarnation: r.incarnation, Seq: in.applied}
	if m.Seq != in.applied+1 {
		return r.e.ep.Send(m.From, ack)
	}
	// The retransmit of a delta that failed part-way redoes the failed
	// entry (a seed replaces; a marker touches the standby only after its
	// store write) but none before it: a re-applied append duplicates
	// tuples, a re-applied marker seals a second, smaller segment over
	// the one it already wrote.
	for ; in.landed < len(m.Entries); in.landed++ {
		switch ent := m.Entries[in.landed]; ent.Kind {
		case proto.DeltaSeed:
			im, err := spill.DecodeImage(ent.Payload)
			if err != nil {
				return fmt.Errorf("decode seed for group %d: %w", ent.Group, err)
			}
			// A seed means this engine is the group's follower again; it
			// replaces whatever standby (or stale promoted flag) is left
			// from an earlier life — segments included, or a re-seed
			// after a flap would duplicate them.
			delete(r.promoted, ent.Group)
			if _, err := r.e.cfg.StandbyStore.Remove(ent.Group); err != nil {
				return fmt.Errorf("clear standby segments of group %d: %w", ent.Group, err)
			}
			r.setStandby(ent.Group, im.Mem)
			if err := im.WriteDisk(r.e.cfg.StandbyStore); err != nil {
				return fmt.Errorf("store standby segments of group %d: %w", ent.Group, err)
			}
		case proto.DeltaSpillMark:
			if len(ent.Payload) != 4 {
				return fmt.Errorf("spill marker for group %d: payload %d bytes, want 4", ent.Group, len(ent.Payload))
			}
			gen := binary.LittleEndian.Uint32(ent.Payload)
			if r.promoted[ent.Group] {
				continue // resident here now; the local spill policy governs
			}
			if err := r.demoteStandby(ent.Group, gen); err != nil {
				return err
			}
		case proto.DeltaAppend:
			tuples, bytes, err := decodeAppends(ent.Payload, r.e.cfg.Inputs)
			if err != nil {
				return fmt.Errorf("decode appends for group %d: %w", ent.Group, err)
			}
			if r.promoted[ent.Group] {
				if err := r.e.op.Merge(&join.GroupSnapshot{ID: ent.Group, Tuples: tuples}); err != nil {
					return fmt.Errorf("merge tail for promoted group %d: %w", ent.Group, err)
				}
				continue
			}
			sb := r.standby[ent.Group]
			if sb == nil {
				sb = &join.GroupSnapshot{ID: ent.Group, Tuples: make([][]tuple.Tuple, r.e.cfg.Inputs)}
				r.standby[ent.Group] = sb
			}
			for i, l := range tuples {
				sb.Tuples[i] = append(sb.Tuples[i], l...)
			}
			sb.CumBytes += bytes
			r.standbyBytes += bytes
		default:
			return fmt.Errorf("delta entry for group %d: unknown kind %d", ent.Group, ent.Kind)
		}
	}
	in.applied, in.landed = m.Seq, 0
	r.e.reg.Counter("distq_engine_deltas_in_total").Inc()
	ack.Seq = m.Seq
	return r.e.ep.Send(m.From, ack)
}

// demoteStandby mirrors a primary spill on the follower: the memory
// tier of the group's standby is sealed as a local segment at the
// primary's spilled generation — by the join helper the primary's own
// extraction uses, so boundary and purge watermark agree — and a fresh
// empty memory tier starts at the next generation.
func (r *replicator) demoteStandby(g partition.ID, gen uint32) error {
	sb := r.standby[g]
	if sb == nil {
		// Marker for a group with no standby yet (the seed was cut after
		// the primary had state but nothing reached us): record the
		// boundary anyway so later appends accumulate at the primary's
		// current generation.
		sb = &join.GroupSnapshot{ID: g, Tuples: make([][]tuple.Tuple, r.e.cfg.Inputs)}
	}
	next := sb.Seal(gen)
	if err := r.e.cfg.StandbyStore.Write(sb); err != nil {
		return fmt.Errorf("demote standby of group %d: %w", g, err)
	}
	r.setStandby(g, next)
	return nil
}

// decodeAppends parses a tuple-encoded append payload into per-input
// tuple lists that own their payloads, all in one slab per entry.
func decodeAppends(buf []byte, inputs int) ([][]tuple.Tuple, int64, error) {
	r, err := tuple.ReadRun(buf)
	if err != nil {
		return nil, 0, err
	}
	tuples := make([][]tuple.Tuple, inputs)
	slab := make([]byte, 0, tuple.PayloadBytes(len(buf), r.Len()))
	var bytes int64
	var t tuple.Tuple
	for r.Next(&t) {
		if int(t.Stream) >= inputs {
			return nil, 0, fmt.Errorf("append tuple for input %d of %d", t.Stream, inputs)
		}
		var own tuple.Tuple
		own, slab = t.CloneInto(slab)
		tuples[t.Stream] = append(tuples[t.Stream], own)
		bytes += t.MemSize()
	}
	return tuples, bytes, nil
}

// onAck prunes a follower's acknowledged deltas. An ack from a newer
// life of the follower than the one this stream was feeding means the
// standby built so far died with the old life: every group streamed
// there is seeded again and the stream renumbers from 1, as the new
// life's cursor expects. (With no earlier ack nothing was ever pruned;
// the new life consumes the stream from its start.) An older life's ack
// is a straggler.
func (r *replicator) onAck(m proto.DeltaAck) {
	s := r.streams[m.Node]
	if s == nil || m.Incarnation < s.followerLife {
		return
	}
	if m.Incarnation > s.followerLife {
		restarted := s.followerLife != 0
		s.followerLife = m.Incarnation
		if restarted {
			for g := range s.tracked {
				s.needSeed[g] = true
			}
			clear(s.cur)
			s.pending, s.nextSeq = nil, 0
			return
		}
	}
	i := 0
	for i < len(s.pending) && s.pending[i].seq <= m.Seq {
		i++
	}
	s.pending = s.pending[i:]
}

// promote turns the standby images of groups into resident state: each
// is installed into the engine's operator and store like a relocated
// group. The memory tier merges even when empty, so the group registers
// at its post-spill generation; groups without any standby had no
// replicated state and simply start empty. Each tier leaves the standby
// only once it landed, so the coordinator's Promote retry after a
// failed install finishes the job instead of finding nothing and acking
// an install that never happened. Returns how many groups' memory tiers
// were installed.
func (r *replicator) promote(groups []partition.ID) (int, error) {
	installed := 0
	for _, g := range groups {
		r.promoted[g] = true
		disk, err := r.e.cfg.StandbyStore.Read(g)
		if err != nil {
			return installed, fmt.Errorf("read standby segments of group %d: %w", g, err)
		}
		im := spill.Image{Mem: r.standby[g], Disk: disk}
		err = im.Install(r.e.op, r.e.cfg.Store)
		if im.Mem == nil && r.standby[g] != nil {
			r.setStandby(g, nil)
			installed++
		}
		if err != nil {
			return installed, fmt.Errorf("install standby of group %d: %w", g, err)
		}
		if _, err := r.e.cfg.StandbyStore.Remove(g); err != nil {
			return installed, fmt.Errorf("clear standby segments of group %d: %w", g, err)
		}
	}
	return installed, nil
}
