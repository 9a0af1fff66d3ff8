package proto

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/partition"
)

// wireMessages covers every natively encodable shape, including the
// degenerate ones (empty payloads, zero-length lists, empty traces).
func wireMessages() []Message {
	return []Message{
		Data{Payload: []byte("batchbytes"), MapVersion: 7},
		Data{Payload: nil, MapVersion: 0},
		ResultData{Node: "e1", Payload: []byte{0, 1, 2, 255}, Phase: PhaseRuntime},
		ResultData{Node: "", Payload: nil, Phase: PhaseCleanup},
		StateTransfer{
			Epoch:  3,
			Images: [][]byte{[]byte("groupA"), {}, []byte("groupB")},
			Trace:  obs.TraceContext{TraceID: 9, SpanID: 11, Node: "coord"},
		},
		StateTransfer{Epoch: 0},
		StateDelta{
			From:        "e2",
			Incarnation: 1 << 60,
			Seq:         41,
			Entries: []DeltaEntry{
				{Group: 5, Kind: DeltaSeed, Payload: []byte("group-image")},
				{Group: 6, Kind: DeltaAppend, Payload: nil},
				{Group: 5, Kind: DeltaSpillMark, Payload: []byte{2, 0, 0, 0}},
			},
		},
		StateDelta{From: "e1", Seq: 0},
	}
}

func TestWireSizeMatchesEncoding(t *testing.T) {
	for _, msg := range wireMessages() {
		b := AppendWire(nil, msg)
		if got, want := WireSize(msg), len(b); got != want {
			t.Errorf("%T: WireSize %d, encoded %d bytes", msg, got, want)
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	for _, msg := range wireMessages() {
		kind := WireKindOf(msg)
		if kind == WireNone {
			t.Fatalf("%T has no wire kind", msg)
		}
		body := AppendWire(nil, msg)
		dec, err := DecodeWire(kind, body)
		if err != nil {
			t.Fatalf("%T: decode: %v", msg, err)
		}
		// The encoding is canonical, so byte-level re-encoding is the
		// strongest (and allocation-free) equality check.
		re := AppendWire(nil, dec)
		if !bytes.Equal(re, body) {
			t.Errorf("%T: re-encode mismatch:\n  in  %x\n  out %x", msg, body, re)
		}
		if WireKindOf(dec) != kind {
			t.Errorf("%T: kind changed across round-trip", msg)
		}
	}
}

// TestWireDecodeAliasesClipped verifies decoded payloads are
// capacity-clipped views of the frame body: appending through one can
// never clobber a neighbouring field.
func TestWireDecodeAliasesClipped(t *testing.T) {
	msg := StateDelta{
		From:    "e1",
		Seq:     1,
		Entries: []DeltaEntry{{Group: 1, Payload: []byte("aa")}, {Group: 2, Payload: []byte("bb")}},
	}
	body := AppendWire(nil, msg)
	dec, err := DecodeWire(WireStateDelta, body)
	if err != nil {
		t.Fatal(err)
	}
	d := dec.(StateDelta)
	p := d.Entries[0].Payload
	if len(p) != cap(p) {
		t.Fatalf("payload not capacity-clipped: len %d cap %d", len(p), cap(p))
	}
	_ = append(p, 'X') // must reallocate, not overwrite the frame
	if string(d.Entries[1].Payload) != "bb" {
		t.Fatal("append through entry 0 clobbered entry 1")
	}
}

func TestWireDecodeRejectsCorruption(t *testing.T) {
	valid := AppendWire(nil, StateDelta{
		From:    "e1",
		Seq:     9,
		Entries: []DeltaEntry{{Group: 3, Kind: DeltaSeed, Payload: []byte("p")}},
	})

	cases := []struct {
		name string
		kind WireKind
		body []byte
		want string
	}{
		{"unknown kind", WireKind(99), valid, "unknown wire kind"},
		{"gob kind", WireNone, valid, "unknown wire kind"},
		{"empty data", WireData, nil, "truncated"},
		{"truncated delta", WireStateDelta, valid[:len(valid)-1], "truncated"},
		{"trailing bytes", WireStateDelta, append(append([]byte(nil), valid...), 0), "trailing"},
		{"empty delta", WireStateDelta, nil, "truncated"},
	}
	for _, tc := range cases {
		_, err := DecodeWire(tc.kind, tc.body)
		if err == nil {
			t.Errorf("%s: decode accepted corrupt frame", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// Out-of-range kind byte. The empty-Entries encoding of the same
	// header still writes the entry count, so its length is exactly where
	// the first entry starts; the kind byte sits 4 (group) bytes later.
	prefix := len(AppendWire(nil, StateDelta{From: "e1", Seq: 9}))
	mut := append([]byte(nil), valid...)
	mut[prefix+4] = byte(DeltaSpillMark) + 1
	if _, err := DecodeWire(WireStateDelta, mut); err == nil || !strings.Contains(err.Error(), "kind byte") {
		t.Errorf("out-of-range kind byte accepted (err: %v)", err)
	}

	// A count field promising more entries than the body can hold must be
	// rejected before allocation.
	huge := AppendWire(nil, StateDelta{From: "e1"})
	huge[len(huge)-4] = 0xFF
	huge[len(huge)-3] = 0xFF
	huge[len(huge)-2] = 0xFF
	huge[len(huge)-1] = 0x7F
	if _, err := DecodeWire(WireStateDelta, huge); err == nil || !strings.Contains(err.Error(), "exceeds body capacity") {
		t.Errorf("oversized entry count accepted (err: %v)", err)
	}
}

// everyMessage builds one value of every type in the kind table with
// every field, at every depth, set to a distinct non-zero value, so a
// field missing from a field list decodes as zero and is caught — also
// for fields added after this test was written. Integers get values a
// narrower encoding would truncate; slices and maps get three entries.
func everyMessage() []Message {
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 3, 3))
			for i := 0; i < 3; i++ {
				fill(v.Index(i))
			}
		case reflect.Map:
			v.Set(reflect.MakeMap(v.Type()))
			for i := 0; i < 3; i++ {
				k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
				fill(k)
				fill(e)
				v.SetMapIndex(k, e)
			}
		case reflect.String:
			v.SetString(fmt.Sprintf("s%d", n))
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Uint8: // bytes, and DeltaKind, whose range is 0..3
			v.SetUint(uint64(1 + n%3))
		case reflect.Uint32:
			v.SetUint(uint64(math.MaxUint32 - n))
		case reflect.Uint64:
			v.SetUint(1<<40 + uint64(n))
		case reflect.Int64:
			v.SetInt(-1<<40 - int64(n))
		case reflect.Int: // plain counts, and the Kind/Phase enums sent as one byte
			v.SetInt(int64(1 + n%200))
		default:
			panic("everyMessage: no fill rule for " + v.Type().String())
		}
	}
	var out []Message
	for _, c := range wireKinds {
		if c.typ != nil {
			v := reflect.New(c.typ).Elem()
			fill(v)
			out = append(out, v.Interface())
		}
	}
	return out
}

// TestWireEveryMessage round-trips one fully populated value of every
// message type: exact size, exact value, exact re-encoding, and an
// error — never a panic — on every truncated prefix and on a trailing
// byte. Data and ResultData end in an unframed payload ("the rest of
// the body"), so past their fixed header a shorter or longer body is
// simply another valid message; there the canonical property is checked
// instead.
func TestWireEveryMessage(t *testing.T) {
	msgs := everyMessage()
	if len(msgs) != 40 {
		t.Errorf("kind table holds %d message types, want 40", len(msgs))
	}
	for _, msg := range msgs {
		name := reflect.TypeOf(msg).Name()
		kind := WireKindOf(msg)
		body := AppendWire(nil, msg)
		if got := WireSize(msg); got != len(body) {
			t.Errorf("%s: WireSize %d, encoded %d bytes", name, got, len(body))
		}
		dec, err := DecodeWire(kind, body)
		if err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(dec, msg) {
			t.Errorf("%s: round trip changed the value:\n  in  %+v\n  out %+v", name, msg, dec)
		}
		if re := AppendWire(nil, dec); !bytes.Equal(re, body) {
			t.Errorf("%s: re-encode mismatch:\n  in  %x\n  out %x", name, body, re)
		}
		openEnded := kind == WireData || kind == WireResultData
		mutations := [][]byte{append(append([]byte(nil), body...), 0)}
		for i := range body {
			mutations = append(mutations, body[:i])
		}
		for _, mut := range mutations {
			got, err := DecodeWire(kind, mut)
			switch {
			case err != nil:
			case !openEnded:
				t.Errorf("%s: decoder accepted a %d-byte body for a %d-byte encoding", name, len(mut), len(body))
			case !bytes.Equal(AppendWire(nil, got), mut):
				t.Errorf("%s: accepted %d-byte body is not canonical", name, len(mut))
			}
		}
	}
}

// TestWireTableComplete parses proto.go and fails when a declared
// message (a type carrying //distq:handledby) is missing from the kind
// table, or the table holds a type that is not a declared message.
func TestWireTableComplete(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "proto.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	_, declared := analysis.TypeDirectives([]*ast.File{f}, "//distq:handledby")
	if len(declared) < 40 {
		t.Fatalf("found only %d message declarations in proto.go", len(declared))
	}
	inTable := make(map[string]bool)
	for k, c := range wireKinds {
		if c.typ == nil {
			if k != int(WireNone) && k != 22 && k != 23 { // the two retired kinds
				t.Errorf("kind %d is a hole in the table", k)
			}
			continue
		}
		if inTable[c.typ.Name()] {
			t.Errorf("%s registered twice", c.typ.Name())
		}
		inTable[c.typ.Name()] = true
		if _, ok := declared[c.typ.Name()]; !ok {
			t.Errorf("kind %d: %s is not a message declared in proto.go", k, c.typ.Name())
		}
	}
	for name := range declared {
		if !inTable[name] {
			t.Errorf("proto.%s is declared but missing from the wire-kind table: it cannot travel the wire", name)
		}
	}
}

// TestTraceFieldSet: a trace context rides exactly the messages whose
// receiver records a span under it or, for the other steps, whose sender
// is the coordinator's plan driver (which stamps every step alike) — the
// eight step messages of coordinator/plan.go and the two that forward a
// step's context to a span on another node. Nothing echoes one back.
func TestTraceFieldSet(t *testing.T) {
	traced := map[string]bool{
		"CptV": true, "Pause": true, "SendStates": true, "Remap": true, "RelocAbort": true,
		"ForceSpill": true, "Promote": true, "Demote": true, // steps
		"PauseMarker": true, "StateTransfer": true, // forwards of Pause's and SendStates'
	}
	for _, c := range wireKinds {
		if c.typ == nil {
			continue
		}
		f, has := c.typ.FieldByName("Trace")
		switch {
		case has && f.Type != reflect.TypeFor[obs.TraceContext]():
			t.Errorf("%s.Trace is a %s", c.typ.Name(), f.Type)
		case has && !traced[c.typ.Name()]:
			t.Errorf("%s carries a Trace nothing reads: only steps and their two forwards do", c.typ.Name())
		case !has && traced[c.typ.Name()]:
			t.Errorf("%s lost its Trace: its receiver's span falls out of the adaptation's tree", c.typ.Name())
		}
		delete(traced, c.typ.Name())
	}
	for name := range traced {
		t.Errorf("%s is not in the wire-kind table", name)
	}
}

// TestWireControlDecodeOwnsMemory: only the bulk kinds may alias the
// frame body; a control message must survive the body being recycled.
func TestWireControlDecodeOwnsMemory(t *testing.T) {
	for _, msg := range everyMessage() {
		kind := WireKindOf(msg)
		bulk := kind >= WireData && kind <= WireStateDelta
		if kind.AliasesBody() != bulk {
			t.Errorf("%T: AliasesBody = %v", msg, kind.AliasesBody())
		}
		if bulk {
			continue
		}
		body := AppendWire(nil, msg)
		dec, err := DecodeWire(kind, body)
		if err != nil {
			t.Fatal(err)
		}
		before := reflect.DeepEqual(dec, msg)
		for i := range body {
			body[i] = 0xEE
		}
		if before && !reflect.DeepEqual(dec, msg) {
			t.Errorf("%T aliases the frame body: scribbling over it changed the message", msg)
		}
	}
}

// TestWireRejectsNonCanonicalControl covers the two control-side rules
// the bulk kinds do not have: booleans are 0 or 1, map keys ascend.
func TestWireRejectsNonCanonicalControl(t *testing.T) {
	ack := PromoteAck{Epoch: 1, Node: "e", Installed: true}
	body := AppendWire(nil, ack)
	boolAt := 8 + 2 + 1 // epoch, node
	if body[boolAt] != 1 {
		t.Fatalf("test is out of step with PromoteAck's layout: %x", body)
	}
	body[boolAt] = 2
	if _, err := DecodeWire(WireKindOf(ack), body); err == nil || !strings.Contains(err.Error(), "bool") {
		t.Errorf("bool byte 2 accepted (err: %v)", err)
	}

	rep := StatsReport{Node: "e", ReplLag: map[partition.ID]int64{1: 10, 2: 20}}
	body = AppendWire(nil, rep)
	first := 2 + 1 + 4*8 + 4 // node, four 8-byte scalars, entry count
	if binary.LittleEndian.Uint32(body[first:]) != 1 || binary.LittleEndian.Uint32(body[first+12:]) != 2 {
		t.Fatalf("ReplLag not encoded in ascending key order: %x", body)
	}
	for _, key := range []uint32{2, 3} { // duplicate, then descending
		binary.LittleEndian.PutUint32(body[first:], key)
		if _, err := DecodeWire(WireKindOf(rep), body); err == nil || !strings.Contains(err.Error(), "ascending") {
			t.Errorf("first key %d before key 2 accepted (err: %v)", key, err)
		}
	}
}

// TestWireKindOfUnregistered: values that are not registered messages
// (including pointers to registered ones) have no kind and no size.
func TestWireKindOfUnregistered(t *testing.T) {
	for _, v := range []Message{nil, 42, "x", &Hello{}, ReplicaEntry{}, DeltaEntry{}} {
		if k := WireKindOf(v); k != WireNone {
			t.Errorf("%T classified as wire kind %d", v, k)
		}
		if n := WireSize(v); n != 0 {
			t.Errorf("%T: WireSize %d", v, n)
		}
	}
}

// FuzzNativeFrame feeds arbitrary (kind, body) frames to the decoder.
// Invariants: the decoder never panics, and any body it accepts is
// canonical — re-encoding the decoded message reproduces it exactly.
func FuzzNativeFrame(f *testing.F) {
	for _, msg := range append(wireMessages(), everyMessage()...) {
		f.Add(byte(WireKindOf(msg)), AppendWire(nil, msg))
	}
	// Mutated shapes that exercise the error paths.
	f.Add(byte(WireData), []byte{1, 2, 3})
	f.Add(byte(WireStateDelta), []byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(byte(WireStateTransfer), bytes.Repeat([]byte{0xFF}, 40))
	f.Add(byte(0), []byte(nil))
	f.Add(byte(200), bytes.Repeat([]byte{0}, 64))

	f.Fuzz(func(t *testing.T, kind byte, body []byte) {
		msg, err := DecodeWire(WireKind(kind), body)
		if err != nil {
			return
		}
		re := AppendWire(nil, msg)
		if !bytes.Equal(re, body) {
			t.Fatalf("kind %d: accepted non-canonical body:\n  in  %x\n  out %x", kind, body, re)
		}
		if got := WireSize(msg); got != len(body) {
			t.Fatalf("kind %d: WireSize %d, body %d", kind, got, len(body))
		}
	})
}
