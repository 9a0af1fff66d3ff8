// The wire codec: every message that crosses a node boundary has one
// WireKind and one canonical little-endian encoding, registered in the
// wireKinds table below. The transport frames a message as
// [len][kind][body]; this file owns the body.
//
// Two families share the table. The four bulk data-plane kinds (Data,
// ResultData, StateTransfer, StateDelta) have hand-written codecs whose
// decode is zero-copy: the returned message's byte slices alias the
// frame body (capacity-clipped, so a receiver appending to one payload
// can never clobber a neighbour). The transport recycles that buffer
// after the receiver's handler returns, so handlers that retain payload
// bytes must copy first (every engine/appserver handler already decodes
// into its own slab — see PROTOCOL.md "Wire format"). Every other
// message is a small flat struct whose table row states its field list
// once; size, encoding and decoding all derive from one walk of that
// list (each field's encoding follows from its Go type), and the
// decoded message owns its memory.
//
// The encoding is canonical: for every body DecodeWire accepts,
// AppendWire reproduces the input bytes exactly (booleans are 0 or 1,
// map keys strictly ascending, no trailing bytes). FuzzNativeFrame
// leans on this to assert byte-level round-trips.
package proto

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"

	"repro/internal/obs"
	"repro/internal/partition"
)

// WireKind tags the body of one frame. WireNone (never on the wire)
// means the value is not a registered message.
type WireKind byte

// The bulk data-plane kinds, named because the transport treats them
// specially (credit, coalescing, buffer ownership). Control kinds are
// numbered in the wireKinds table only.
const (
	WireNone          WireKind = 0
	WireData          WireKind = 1
	WireResultData    WireKind = 2
	WireStateTransfer WireKind = 3
	WireStateDelta    WireKind = 4
)

// wireKinds is the single registry of what may travel the wire: index =
// kind byte. Kinds are append-only and never renumbered; 0x7F is taken
// by the transport's credit frame. TestWireTableComplete fails unless
// the table's types are exactly the messages proto.go declares (a type
// carrying //distq:handledby); TestTraceFieldSet names the ten that
// carry a Trace.
var wireKinds = [...]wireCodec{
	WireData:          bulk[Data](sizeData, appendData, decodeData),
	WireResultData:    bulk[ResultData](sizeResultData, appendResultData, decodeResultData),
	WireStateTransfer: bulk[StateTransfer](sizeStateTransfer, appendStateTransfer, decodeStateTransfer),
	WireStateDelta:    bulk[StateDelta](sizeStateDelta, appendStateDelta, decodeStateDelta),

	// Control messages: fields returns pointers to the message's fields
	// in wire order — the one statement of its layout.

	5: control(func(m *Hello) []any { return []any{&m.Node, &m.Kind} }),
	6: control(func(m *PauseMarker) []any { return []any{&m.Epoch, &m.Trace} }),
	7: control(func(m *MarkerAck) []any { return []any{&m.Epoch, &m.Node} }),
	8: control(func(m *StatsReport) []any {
		return []any{&m.Node, &m.MemBytes, &m.Standby, &m.Groups, &m.Output, &m.ReplLag, &m.ReplVersion}
	}),
	9:  control(func(m *ResultCount) []any { return []any{&m.Node, &m.Delta} }),
	10: control(func(m *CptV) []any { return []any{&m.Epoch, &m.Amount, &m.Receiver, &m.LowProd, &m.Trace} }),
	11: control(func(m *PtV) []any { return []any{&m.Epoch, &m.Node, &m.Partitions} }),
	12: control(func(m *Pause) []any { return []any{&m.Epoch, &m.Partitions, &m.Owner, &m.Trace} }),
	13: control(func(m *SendStates) []any {
		return []any{&m.Epoch, &m.Partitions, &m.Receiver, &m.Directed, &m.Trace}
	}),
	14: control(func(m *Installed) []any { return []any{&m.Epoch, &m.Node} }),
	15: control(func(m *Remap) []any { return []any{&m.Epoch, &m.Partitions, &m.Owner, &m.Version, &m.Trace} }),
	16: control(func(m *RemapAck) []any { return []any{&m.Epoch} }),
	17: control(func(m *ForceSpill) []any { return []any{&m.Amount, &m.Seq, &m.Trace} }),
	18: control(func(m *SpillDone) []any { return []any{&m.Node, &m.Bytes, &m.Seq} }),
	19: control(func(m *RelocTimeout) []any { return []any{&m.Epoch, &m.Seq} }),
	20: control(func(m *RelocAbort) []any { return []any{&m.Epoch, &m.Trace} }),
	21: control(func(m *RelocAbortAck) []any { return []any{&m.Epoch, &m.Node, &m.Installed} }),
	// 22, 23: retired (Checkpoint, CheckpointDone). Kinds are never reused.
	24: control(func(m *StartCleanup) []any { return nil }),
	25: control(func(m *CleanupDone) []any {
		return []any{&m.Node, &m.Groups, &m.Segments, &m.Tuples, &m.Results, &m.ElapsedNs, &m.Error}
	}),
	26: control(func(m *Stop) []any { return nil }),
	27: control(func(m *Tick) []any { return []any{&m.Kind} }),
	28: control(func(m *Drain) []any { return []any{&m.Token} }),
	29: control(func(m *DrainAck) []any { return []any{&m.Token, &m.Node} }),
	30: control(func(m *Quiesce) []any { return nil }),
	31: control(func(m *QuiesceAck) []any { return nil }),
	32: control(func(m *JoinRequest) []any { return []any{&m.Node, &m.Addr} }),
	33: control(func(m *JoinAck) []any { return []any{&m.Node, &m.Accepted, &m.Reason} }),
	34: control(func(m *MemberAddr) []any { return []any{&m.Node, &m.Addr} }),
	35: control(func(m *Leave) []any { return []any{&m.Node} }),
	36: control(func(m *LeaveAck) []any { return []any{&m.Node} }),
	37: control(func(m *ReplicaMap) []any { return []any{&m.Version, &m.Entries} }),
	38: control(func(m *DeltaAck) []any { return []any{&m.Node, &m.Incarnation, &m.Seq} }),
	39: control(func(m *Promote) []any { return []any{&m.Epoch, &m.From, &m.Groups, &m.Trace} }),
	40: control(func(m *PromoteAck) []any { return []any{&m.Epoch, &m.Node, &m.Installed} }),
	41: control(func(m *Demote) []any { return []any{&m.Epoch, &m.Groups, &m.Trace} }),
	42: control(func(m *DemoteAck) []any { return []any{&m.Epoch, &m.Node} }),
}

// wireCodec is one table entry: a message type and its codec.
type wireCodec struct {
	typ reflect.Type
	// aliases marks a decode whose result points into the frame body.
	aliases bool
	size    func(Message) int
	append  func([]byte, Message) []byte
	decode  func(*wireReader) (Message, error)
}

// wireKindByType inverts the table for WireKindOf.
var wireKindByType = func() map[reflect.Type]WireKind {
	m := make(map[reflect.Type]WireKind, len(wireKinds))
	for k, c := range wireKinds {
		if c.typ != nil {
			m[c.typ] = WireKind(k)
		}
	}
	return m
}()

// bulk registers a hand-written zero-copy codec for data-plane type T.
func bulk[T any](size func(T) int, app func([]byte, T) []byte, dec func(*wireReader) (T, error)) wireCodec {
	return wireCodec{
		typ:     reflect.TypeFor[T](),
		aliases: true,
		size:    func(msg Message) int { return size(msg.(T)) },
		append:  func(dst []byte, msg Message) []byte { return app(dst, msg.(T)) },
		decode:  func(r *wireReader) (Message, error) { m, err := dec(r); return m, err },
	}
}

// control registers message type T by its field list. The codec is
// one walk of that list in each of the cursor's three modes, over a
// private copy of the message.
func control[T any](fields func(*T) []any) wireCodec {
	walk := func(c *wireCursor, m T) (T, error) {
		for _, f := range fields(&m) {
			c.field(f)
		}
		return m, c.err
	}
	return wireCodec{
		typ: reflect.TypeFor[T](),
		size: func(msg Message) int {
			c := wireCursor{mode: wireSizing}
			walk(&c, msg.(T))
			return c.n
		},
		append: func(dst []byte, msg Message) []byte {
			c := wireCursor{mode: wireEncoding, dst: dst}
			walk(&c, msg.(T))
			return c.dst
		},
		decode: func(r *wireReader) (Message, error) {
			var zero T
			m, err := walk(&wireCursor{mode: wireDecoding, r: r}, zero)
			return m, err
		},
	}
}

// WireKindOf reports msg's wire kind, or WireNone when msg is not a
// registered message value (and so cannot be sent between nodes).
func WireKindOf(msg Message) WireKind {
	return wireKindByType[reflect.TypeOf(msg)]
}

// AliasesBody reports whether DecodeWire's result for this kind points
// into the frame body (the bulk data-plane kinds) rather than owning
// its memory; the transport keeps the frame buffer alive until the
// handler returns only for these.
func (k WireKind) AliasesBody() bool {
	return int(k) < len(wireKinds) && wireKinds[k].aliases
}

// WireSize reports the exact number of bytes AppendWire will append
// for msg, or 0 when msg is not a registered message. The transport
// uses it to size frame headers and charge credit before encoding.
func WireSize(msg Message) int {
	k := WireKindOf(msg)
	if k == WireNone {
		return 0
	}
	return wireKinds[k].size(msg)
}

// AppendWire appends msg's encoding to dst and returns the extended
// slice; callers with a pooled frame buffer encode without intermediate
// allocations. msg must be a registered message (WireKindOf non-zero);
// anything else panics, because the transport gates on WireKindOf
// before coming here.
func AppendWire(dst []byte, msg Message) []byte {
	k := WireKindOf(msg)
	if k == WireNone {
		panic(fmt.Sprintf("proto: AppendWire on unregistered message %T", msg))
	}
	return wireKinds[k].append(dst, msg)
}

// DecodeWire parses one frame body. For the bulk kinds the returned
// message's byte slices alias body (see the file comment for the
// ownership rule). It never panics on corrupt input, and it rejects any
// body it could not have produced (unknown kinds, truncations, trailing
// garbage, non-canonical booleans, unsorted map keys), making the codec
// bijective.
func DecodeWire(kind WireKind, body []byte) (Message, error) {
	if int(kind) >= len(wireKinds) || wireKinds[kind].decode == nil {
		return nil, fmt.Errorf("proto: unknown wire kind %d", kind)
	}
	r := &wireReader{buf: body}
	msg, err := wireKinds[kind].decode(r)
	if err != nil {
		return nil, err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("proto: %d trailing bytes after %s", r.remaining(), wireKinds[kind].typ.Name())
	}
	return msg, nil
}

// ---- bulk data-plane codecs (a layout change bumps transport's wireVersion) ----

// wireStrLen is the encoded size of a length-prefixed string.
func wireStrLen(s string) int { return 2 + len(s) }

// wireTraceLen is the encoded size of an obs.TraceContext.
func wireTraceLen(tc obs.TraceContext) int { return 8 + 8 + wireStrLen(tc.Node) }

func appendWireStr(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func appendWireTrace(dst []byte, tc obs.TraceContext) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, tc.TraceID)
	dst = binary.LittleEndian.AppendUint64(dst, tc.SpanID)
	return appendWireStr(dst, tc.Node)
}

func sizeData(m Data) int { return 8 + len(m.Payload) }

func appendData(dst []byte, m Data) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.MapVersion)
	return append(dst, m.Payload...)
}

func decodeData(r *wireReader) (Data, error) {
	v, err := r.takeU64()
	if err != nil {
		return Data{}, err
	}
	return Data{MapVersion: v, Payload: r.rest()}, nil
}

func sizeResultData(m ResultData) int {
	return wireStrLen(string(m.Node)) + 1 + len(m.Payload)
}

func appendResultData(dst []byte, m ResultData) []byte {
	dst = appendWireStr(dst, string(m.Node))
	dst = append(dst, byte(m.Phase))
	return append(dst, m.Payload...)
}

func decodeResultData(r *wireReader) (ResultData, error) {
	node, err := r.takeStr()
	if err != nil {
		return ResultData{}, err
	}
	phase, err := r.takeU8()
	if err != nil {
		return ResultData{}, err
	}
	return ResultData{Node: partition.NodeID(node), Phase: Phase(phase), Payload: r.rest()}, nil
}

func sizeStateTransfer(m StateTransfer) int {
	n := 8 + wireTraceLen(m.Trace) + 4
	for _, b := range m.Images {
		n += 4 + len(b)
	}
	return n
}

func appendStateTransfer(dst []byte, m StateTransfer) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.Epoch)
	dst = appendWireTrace(dst, m.Trace)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Images)))
	for _, b := range m.Images {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
		dst = append(dst, b...)
	}
	return dst
}

func decodeStateTransfer(r *wireReader) (StateTransfer, error) {
	var m StateTransfer
	var err error
	if m.Epoch, err = r.takeU64(); err != nil {
		return m, err
	}
	if m.Trace, err = r.takeTrace(); err != nil {
		return m, err
	}
	m.Images, err = decodeByteLists(r)
	return m, err
}

func sizeStateDelta(m StateDelta) int {
	n := wireStrLen(string(m.From)) + 8 + 8 + 4
	for _, e := range m.Entries {
		n += 4 + 1 + 4 + len(e.Payload)
	}
	return n
}

func appendStateDelta(dst []byte, m StateDelta) []byte {
	dst = appendWireStr(dst, string(m.From))
	dst = binary.LittleEndian.AppendUint64(dst, m.Incarnation)
	dst = binary.LittleEndian.AppendUint64(dst, m.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Entries)))
	for _, e := range m.Entries {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Group))
		dst = append(dst, byte(e.Kind))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Payload)))
		dst = append(dst, e.Payload...)
	}
	return dst
}

func decodeStateDelta(r *wireReader) (StateDelta, error) {
	var m StateDelta
	from, err := r.takeStr()
	if err != nil {
		return m, err
	}
	m.From = partition.NodeID(from)
	if m.Incarnation, err = r.takeU64(); err != nil {
		return m, err
	}
	if m.Seq, err = r.takeU64(); err != nil {
		return m, err
	}
	n, err := r.takeU32()
	if err != nil {
		return m, err
	}
	// Each entry needs at least 9 bytes; cap the slice allocation by
	// what the body can actually hold before trusting the count.
	if int64(n)*9 > int64(r.remaining()) {
		return m, fmt.Errorf("proto: StateDelta count %d exceeds body capacity %d", n, r.remaining())
	}
	if n > 0 {
		m.Entries = make([]DeltaEntry, 0, n)
	}
	for i := uint32(0); i < n; i++ {
		var e DeltaEntry
		g, err := r.takeU32()
		if err != nil {
			return m, err
		}
		e.Group = partition.ID(g)
		kind, err := r.takeU8()
		if err != nil {
			return m, err
		}
		if kind > uint8(DeltaSpillMark) {
			return m, fmt.Errorf("proto: StateDelta entry %d: kind byte %d", i, kind)
		}
		e.Kind = DeltaKind(kind)
		plen, err := r.takeU32()
		if err != nil {
			return m, err
		}
		if e.Payload, err = r.takeBytes(int(plen)); err != nil {
			return m, err
		}
		m.Entries = append(m.Entries, e)
	}
	return m, nil
}

// decodeByteLists parses a u32-counted list of length-prefixed byte
// slices (StateTransfer's Images).
func decodeByteLists(r *wireReader) ([][]byte, error) {
	n, err := r.takeU32()
	if err != nil {
		return nil, err
	}
	if int64(n)*4 > int64(r.remaining()) {
		return nil, fmt.Errorf("proto: list count %d exceeds body capacity %d", n, r.remaining())
	}
	if n == 0 {
		return nil, nil
	}
	out := make([][]byte, 0, n)
	for i := uint32(0); i < n; i++ {
		l, err := r.takeU32()
		if err != nil {
			return nil, err
		}
		b, err := r.takeBytes(int(l))
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// wireReader is a bounds-checked cursor over one frame body. Every
// take* method fails instead of panicking, so DecodeWire is safe on
// arbitrary (fuzzed, corrupted) input.
type wireReader struct {
	buf []byte
	off int
}

func (r *wireReader) remaining() int { return len(r.buf) - r.off }

func (r *wireReader) takeU8() (byte, error) {
	if r.remaining() < 1 {
		return 0, fmt.Errorf("proto: wire truncated at byte %d", r.off)
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *wireReader) takeU32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, fmt.Errorf("proto: wire truncated at byte %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *wireReader) takeU64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("proto: wire truncated at byte %d", r.off)
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

// takeBytes returns n bytes aliasing the frame buffer, capacity-clipped
// so an append through one payload can never reach the next.
func (r *wireReader) takeBytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("proto: wire truncated: need %d bytes at %d, have %d", n, r.off, r.remaining())
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b, nil
}

// takeStr copies a u16-length-prefixed string out of the frame.
func (r *wireReader) takeStr() (string, error) {
	if r.remaining() < 2 {
		return "", fmt.Errorf("proto: wire truncated at byte %d", r.off)
	}
	n := int(binary.LittleEndian.Uint16(r.buf[r.off:]))
	r.off += 2
	b, err := r.takeBytes(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *wireReader) takeTrace() (obs.TraceContext, error) {
	var tc obs.TraceContext
	var err error
	if tc.TraceID, err = r.takeU64(); err != nil {
		return tc, err
	}
	if tc.SpanID, err = r.takeU64(); err != nil {
		return tc, err
	}
	tc.Node, err = r.takeStr()
	return tc, err
}

// rest consumes and returns everything left, capacity-clipped.
func (r *wireReader) rest() []byte {
	b := r.buf[r.off:len(r.buf):len(r.buf)]
	r.off = len(r.buf)
	return b
}

// ---- control messages: the field-list cursor ----

type wireMode uint8

const (
	wireSizing wireMode = iota
	wireEncoding
	wireDecoding
)

// wireCursor visits a message's fields in one of three modes: summing
// their encoded size, appending their encoding, or filling them from a
// frame body. Each visitor takes a pointer so the same call reads the
// field when sizing/encoding and writes it when decoding. Decode errors
// are sticky: after the first failure every later field is a no-op, so
// a field list needs no error plumbing.
type wireCursor struct {
	mode wireMode
	n    int         // sizing: bytes so far
	dst  []byte      // encoding: output
	r    *wireReader // decoding: input; strings and lists are copied out
	err  error       // decoding: first failure
}

// field visits one field, choosing its encoding by Go type: u64 for
// the 64-bit integers and int, u32 for partition ids, u8 for enums and
// booleans, u16-prefixed bytes for strings, u32-counted lists. Scalar
// pointers always point into the codec's private copy of the message,
// so the write-back after a conversion is harmless outside decode mode.
func (c *wireCursor) field(p any) {
	switch v := p.(type) {
	case *uint64:
		c.u64(v)
	case *int64:
		u := uint64(*v)
		c.u64(&u)
		*v = int64(u)
	case *int:
		u := uint64(*v)
		c.u64(&u)
		*v = int(u)
	case *Kind:
		u := uint8(*v)
		c.u8(&u)
		*v = Kind(u)
	case *bool:
		var u uint8
		if *v {
			u = 1
		}
		c.u8(&u)
		if u > 1 && c.err == nil {
			c.err = fmt.Errorf("proto: non-canonical bool byte %d", u)
		}
		*v = u == 1
	case *string:
		c.str(v)
	case *partition.NodeID:
		c.str((*string)(v))
	case *obs.TraceContext:
		c.u64(&v.TraceID)
		c.u64(&v.SpanID)
		c.str(&v.Node)
	case *[]partition.ID:
		wireList(c, v, 4, func(id *partition.ID) { c.u32((*uint32)(id)) })
	case *[]ReplicaEntry:
		wireList(c, v, 4+2+2, func(e *ReplicaEntry) {
			c.u32((*uint32)(&e.Group))
			c.str((*string)(&e.Primary))
			c.str((*string)(&e.Follower))
		})
	case *map[partition.ID]int64:
		c.lag(v)
	default:
		panic(fmt.Sprintf("proto: no wire encoding for field type %T", p))
	}
}

func (c *wireCursor) u8(v *uint8) {
	switch c.mode {
	case wireSizing:
		c.n++
	case wireEncoding:
		c.dst = append(c.dst, *v)
	case wireDecoding:
		if c.err == nil {
			*v, c.err = c.r.takeU8()
		}
	}
}

func (c *wireCursor) u32(v *uint32) {
	switch c.mode {
	case wireSizing:
		c.n += 4
	case wireEncoding:
		c.dst = binary.LittleEndian.AppendUint32(c.dst, *v)
	case wireDecoding:
		if c.err == nil {
			*v, c.err = c.r.takeU32()
		}
	}
}

func (c *wireCursor) u64(v *uint64) {
	switch c.mode {
	case wireSizing:
		c.n += 8
	case wireEncoding:
		c.dst = binary.LittleEndian.AppendUint64(c.dst, *v)
	case wireDecoding:
		if c.err == nil {
			*v, c.err = c.r.takeU64()
		}
	}
}

func (c *wireCursor) str(v *string) {
	switch c.mode {
	case wireSizing:
		c.n += wireStrLen(*v)
	case wireEncoding:
		c.dst = appendWireStr(c.dst, *v)
	case wireDecoding:
		if c.err == nil {
			*v, c.err = c.r.takeStr()
		}
	}
}

// count visits a u32 element count. Decoding rejects a count the rest
// of the body cannot hold (minElem bytes per element) before anything
// is allocated for it.
func (c *wireCursor) count(have, minElem int) int {
	n := uint32(have)
	c.u32(&n)
	if c.mode == wireDecoding && c.err == nil && int64(n)*int64(minElem) > int64(c.r.remaining()) {
		c.err = fmt.Errorf("proto: count %d exceeds body capacity %d", n, c.r.remaining())
	}
	if c.err != nil {
		return 0
	}
	return int(n)
}

// wireList visits a u32-counted list. Backing arrays may be shared with
// the sender's live state, so outside decode mode elem sees a copy of
// each element; decoding allocates a fresh slice (nil when empty).
func wireList[E any](c *wireCursor, v *[]E, minElem int, elem func(*E)) {
	n := c.count(len(*v), minElem)
	if c.mode != wireDecoding {
		for _, e := range *v {
			elem(&e)
		}
		return
	}
	*v = nil
	if n > 0 {
		*v = make([]E, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		elem(&(*v)[i])
	}
}

// lag visits StatsReport.ReplLag. Entries are encoded in ascending key
// order and decoding insists on it, so the map has one encoding.
func (c *wireCursor) lag(v *map[partition.ID]int64) {
	const entry = 4 + 8
	n := c.count(len(*v), entry)
	switch c.mode {
	case wireSizing:
		c.n += n * entry
	case wireEncoding:
		keys := make([]partition.ID, 0, n)
		for g := range *v {
			keys = append(keys, g)
		}
		slices.Sort(keys)
		for _, g := range keys {
			c.dst = binary.LittleEndian.AppendUint32(c.dst, uint32(g))
			c.dst = binary.LittleEndian.AppendUint64(c.dst, uint64((*v)[g]))
		}
	case wireDecoding:
		*v = nil
		if n > 0 {
			*v = make(map[partition.ID]int64, n)
		}
		for i, prev := 0, uint32(0); i < n && c.err == nil; i++ {
			var g uint32
			var b uint64
			c.u32(&g)
			c.u64(&b)
			if i > 0 && g <= prev && c.err == nil {
				c.err = fmt.Errorf("proto: ReplLag keys not strictly ascending at entry %d", i)
			}
			prev = g
			(*v)[partition.ID(g)] = int64(b)
		}
	}
}
