package engine

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/replica"
	"repro/internal/spill"
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
//
// Replication moves bytes, not tuples. The primary's tap appends each
// stored tuple's encoding to its group's slot; a delta carries those
// bytes as they are; the follower checks them and keeps them as they
// came behind the group's memory tier, itself the encoded snapshot the
// seed carried (replica.Standby), until a spill marker or a promotion
// folds them into the tier.
type replicator struct {
	e *Engine
	// incarnation identifies this engine life on the deltas and acks it
	// sends: its boot time, so a later life always compares higher.
	incarnation uint64
	// version is the highest ReplicaMap version applied.
	version uint64
	// tap is the primary side's slot of every partition group: its
	// follower per the applied replica map, the stream its appends go to
	// once seeded, and the appends not yet packaged into a delta.
	tap replica.Tap[replStream]
	// primary reports whether the applied map names a follower for any
	// group of this engine; it keeps the data-path hook off while
	// replication is.
	primary bool
	// streams holds the outbound per-follower state.
	streams map[partition.NodeID]*replStream
	// inbound is the follower-side cursor of each primary's stream.
	inbound map[partition.NodeID]inbound
	// standby holds the memory tier of the warm follower copies — the
	// tier and the appends since, all of it encoded — keyed by group; the
	// disk tier lives in cfg.StandbyStore. standbyBytes is what they
	// charge (replica.Standby.Bytes), kept by setStandby and onDelta.
	standby      map[partition.ID]*replica.Standby
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

// replStream is the outbound replication state toward one follower. The
// groups it carries are the tap slots naming the follower; a slot whose
// Live is nil awaits its seed.
type replStream struct {
	// followerLife is the follower's incarnation as of its latest ack
	// (0 until one arrives).
	followerLife uint64
	nextSeq      uint64
	// pending holds packaged deltas not yet acknowledged, in sequence
	// order; all of them are retransmitted on every stats tick.
	pending []pendingDelta
}

type pendingDelta struct {
	seq     uint64
	entries []proto.DeltaEntry
}

func newReplicator(e *Engine) *replicator {
	return &replicator{
		e:           e,
		incarnation: uint64(vclock.WallNow().UnixNano()),
		tap:         make(replica.Tap[replStream], e.cfg.Partitions),
		streams:     make(map[partition.NodeID]*replStream),
		inbound:     make(map[partition.NodeID]inbound),
		standby:     make(map[partition.ID]*replica.Standby),
		promoted:    make(map[partition.ID]bool),
	}
}

// slot returns group g's tap slot, or nil for an ID beyond the
// partitions (a control message can name any).
func (r *replicator) slot(g partition.ID) *replica.Slot[replStream] {
	if int(g) >= len(r.tap) {
		return nil
	}
	return &r.tap[g]
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
	var firstErr error
	next := make([]partition.NodeID, len(r.tap))
	follows := make(map[partition.ID]bool)
	for _, ent := range m.Entries {
		if ent.Follower == self {
			follows[ent.Group] = true
		}
		if ent.Primary != self {
			continue
		}
		if r.slot(ent.Group) == nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("replica map names group %d beyond the %d partitions", ent.Group, len(r.tap))
			}
			continue
		}
		next[ent.Group] = ent.Follower
	}
	r.primary = false
	for g, f := range next {
		if f != "" && r.streams[f] == nil {
			r.streams[f] = &replStream{}
		}
		if sl := &r.tap[g]; sl.To != f {
			// Newly ours, gone to another follower, or no longer ours: a
			// follower starts from a seed, and a group nobody follows
			// buffers nothing.
			*sl = replica.Slot[replStream]{To: f}
		}
		r.primary = r.primary || f != ""
	}
	// Follower-side GC: drop standby copies of groups the new map no
	// longer assigns to this engine. Promoted groups are exempt — their
	// primary is this engine now, and a promote retry still needs any
	// standby a partial failure left behind.
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

// setStandby replaces group g's standby image (nil drops it) and keeps
// standbyBytes — what the engine reports and spills against — equal to
// the bytes the standby map holds.
func (r *replicator) setStandby(g partition.ID, sb *replica.Standby) {
	if old := r.standby[g]; old != nil {
		r.standbyBytes -= old.Bytes()
	}
	if sb == nil {
		delete(r.standby, g)
		return
	}
	r.standby[g] = sb
	r.standbyBytes += sb.Bytes()
}

// forgetOwned stops replicating a group this engine no longer owns
// (relocated away or demoted). The new primary re-seeds its follower
// from scratch once the coordinator's next replica map lands — and so
// does this engine, should the group come back to it.
func (r *replicator) forgetOwned(g partition.ID) {
	delete(r.promoted, g)
	if sl := r.slot(g); sl != nil {
		*sl = replica.Slot[replStream]{}
	}
}

// tailFlush packages the still-buffered appends of groups about to be
// dropped (demotion) into an immediate final delta per follower, so
// tuples that never reached the promoted new owner merge into its
// resident state instead of vanishing with the stale copy. The deltas
// ride the ordinary pending/retransmit machinery.
func (r *replicator) tailFlush(groups []partition.ID) {
	out := make(map[partition.NodeID][]proto.DeltaEntry)
	for _, g := range groups {
		sl := r.slot(g)
		if sl == nil {
			continue
		}
		if sl.Live != nil && len(sl.Buf) > 0 {
			out[sl.To] = append(out[sl.To], proto.DeltaEntry{Group: g, Kind: proto.DeltaAppend, Payload: sl.Buf})
		}
		*sl = replica.Slot[replStream]{}
	}
	for _, f := range sortedKeys(out) {
		r.ship(f, r.streams[f], out[f])
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
	out := make(map[partition.NodeID][]proto.DeltaEntry)
	for _, g := range groups {
		sl := r.slot(g)
		if sl == nil || sl.Live == nil {
			// Not streamed, or unseeded: its next seed carries the new
			// segment itself, no marker needed.
			continue
		}
		f := sl.To
		if len(sl.Buf) > 0 {
			out[f] = append(out[f], proto.DeltaEntry{Group: g, Kind: proto.DeltaAppend, Payload: sl.Cut()})
		}
		snap := r.e.op.ResidentSnapshot(g)
		if snap == nil || snap.Gen == 0 {
			continue // group vanished between spill and hook; nothing to mark
		}
		out[f] = append(out[f], proto.DeltaEntry{Group: g, Kind: proto.DeltaSpillMark,
			Payload: binary.LittleEndian.AppendUint32(nil, snap.Gen-1)})
	}
	for _, f := range sortedKeys(out) {
		r.ship(f, r.streams[f], out[f])
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
		for i := range r.tap {
			sl, g := &r.tap[i], partition.ID(i)
			if sl.To != f || sl.Live != nil {
				continue
			}
			im, err := spill.Copy(r.e.op, r.e.cfg.Store, g)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("seed of group %d: %w", g, err)
				}
				continue // still unseeded; retried next tick
			}
			// A group with no state at all needs no seed: the follower
			// builds its standby from the appends alone.
			if !im.Empty() {
				entries = append(entries, proto.DeltaEntry{Group: g, Kind: proto.DeltaSeed, Payload: spill.AppendImage(nil, im)})
			}
			sl.Live = s
		}
		for i := range r.tap {
			if sl := &r.tap[i]; sl.Live == s && len(sl.Buf) > 0 {
				entries = append(entries, proto.DeltaEntry{Group: partition.ID(i), Kind: proto.DeltaAppend, Payload: sl.Cut()})
			}
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
	for i := range r.tap {
		sl, g := &r.tap[i], partition.ID(i)
		switch {
		case sl.To == "": // not streamed
		case sl.Live == nil:
			out[g] += sizeOf(g) + r.e.cfg.Store.BytesOf(g)
		case len(sl.Buf) > 0:
			out[g] += int64(len(sl.Buf))
		}
	}
	for _, s := range r.streams {
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
// An append is checked and kept as it came, encoded (replica.Standby);
// a spill marker folds its bytes into the tier it seals.
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
			var sb *replica.Standby
			if im.Mem != nil {
				sb = replica.NewStandby(im.Mem)
			}
			r.setStandby(ent.Group, sb)
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
			if r.promoted[ent.Group] {
				if err := r.e.op.MergeRuns(ent.Group, ent.Payload); err != nil {
					return fmt.Errorf("merge tail for promoted group %d: %w", ent.Group, err)
				}
				continue
			}
			sb := r.standby[ent.Group]
			if sb == nil {
				sb = replica.EmptyStandby(ent.Group, r.e.cfg.Inputs)
			}
			bytes, err := sb.Append(ent.Payload, r.e.cfg.Inputs)
			if err != nil {
				return fmt.Errorf("decode appends for group %d: %w", ent.Group, err)
			}
			r.standby[ent.Group] = sb
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
// tier of the group's standby, its appends folded into it, is sealed as
// a local segment at the primary's spilled generation — by the join
// helper the primary's own extraction uses, so boundary and purge
// watermark agree — and a fresh empty memory tier starts at the next
// generation.
func (r *replicator) demoteStandby(g partition.ID, gen uint32) error {
	sb := r.standby[g]
	if sb == nil {
		// Marker for a group with no standby yet (the seed was cut after
		// the primary had state but nothing reached us): record the
		// boundary anyway so later appends accumulate at the primary's
		// current generation.
		sb = replica.EmptyStandby(g, r.e.cfg.Inputs)
	}
	seg := sb.Image()
	next := seg.Seal(gen)
	if err := r.e.cfg.StandbyStore.Write(seg); err != nil {
		return fmt.Errorf("demote standby of group %d: %w", g, err)
	}
	r.setStandby(g, replica.NewStandby(next))
	return nil
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
			for i := range r.tap {
				if sl := &r.tap[i]; sl.To == m.Node {
					sl.Reseed()
				}
			}
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
// group, its memory tier with the appends the standby kept folded in
// (replica.Standby.Image). The memory tier merges even when empty, so
// the group registers at its post-spill generation; groups without any
// standby had no replicated state and simply start empty. The standby
// goes only once its memory tier landed, so the coordinator's Promote
// retry after a failed install finishes the job instead of finding
// nothing and acking an install that never happened. Returns how many
// groups' memory tiers were installed.
func (r *replicator) promote(groups []partition.ID) (int, error) {
	installed := 0
	for _, g := range groups {
		r.promoted[g] = true
		disk, err := r.e.cfg.StandbyStore.Read(g)
		if err != nil {
			return installed, fmt.Errorf("read standby segments of group %d: %w", g, err)
		}
		sb := r.standby[g]
		im := spill.Image{Disk: disk}
		if sb != nil {
			im.Mem = sb.Image()
		}
		err = im.Install(r.e.op, r.e.cfg.Store)
		if sb != nil && im.Mem == nil {
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
