package obs

import (
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vclock"
)

// Level orders log severities.
type Level int32

// Log levels, least to most severe.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String names the level for rendering.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "unknown"
	}
}

// Field is one typed key/value pair of a log event. Typed constructors
// (F, FInt, FUint, FErr) keep call sites free of fmt formatting; values
// are rendered once, at emit time.
type Field struct {
	Key   string
	str   string
	num   int64
	isNum bool
}

// F builds a string field.
func F(key, value string) Field { return Field{Key: key, str: value} }

// FInt builds an integer field.
func FInt(key string, v int64) Field { return Field{Key: key, num: v, isNum: true} }

// FUint builds an unsigned integer field (values beyond int64 wrap,
// which protocol sequence numbers never reach).
func FUint(key string, v uint64) Field { return Field{Key: key, num: int64(v), isNum: true} }

// FErr builds the conventional err field from an error.
func FErr(err error) Field {
	if err == nil {
		return Field{Key: "err"}
	}
	return Field{Key: "err", str: err.Error()}
}

// Value renders the field's value (span attributes share it with log lines).
func (f Field) Value() string {
	if f.isNum {
		return strconv.FormatInt(f.num, 10)
	}
	return f.str
}

// LogEntry is one recorded log event, JSON-encodable for the /logs
// endpoint. Attrs is the rendered key=value tail (everything beyond the
// fixed fields), already quoted where needed.
type LogEntry struct {
	VT    vclock.Time `json:"t_vt_ns"`
	Wall  time.Time   `json:"wall"`
	Level string      `json:"level"`
	Node  string      `json:"node"`
	Kind  string      `json:"kind"`
	Event string      `json:"event"`
	Attrs string      `json:"attrs,omitempty"`
}

// String renders the entry as one key=value line.
func (e LogEntry) String() string {
	var b strings.Builder
	b.WriteString("t=")
	b.WriteString(e.VT.String())
	b.WriteString(" level=")
	b.WriteString(e.Level)
	if e.Kind != "" {
		b.WriteString(" kind=")
		b.WriteString(e.Kind)
	}
	if e.Node != "" {
		b.WriteString(" node=")
		b.WriteString(quoteIfNeeded(e.Node))
	}
	b.WriteString(" event=")
	b.WriteString(e.Event)
	if e.Attrs != "" {
		b.WriteByte(' ')
		b.WriteString(e.Attrs)
	}
	return b.String()
}

// LoggerConfig parameterizes a Logger.
type LoggerConfig struct {
	// Node / Kind identify the emitting node on every entry.
	Node string
	Kind string
	// Now supplies virtual timestamps (nil stamps zero virtual time —
	// acceptable for components without a clock, e.g. tools).
	Now func() vclock.Time
	// Min is the minimum recorded level (default LevelInfo; pass
	// LevelDebug explicitly for verbose runs).
	Min Level
	// Capacity bounds the entry ring (default 256).
	Capacity int
	// Output, when set, additionally receives every entry as one
	// key=value line. Writes are serialized by the logger.
	Output io.Writer
}

// DefaultLoggerCapacity bounds the recent-entry ring.
const DefaultLoggerCapacity = 256

// Logger is a leveled, structured, ring-buffered logger. All methods are
// safe for concurrent use; a nil *Logger is a valid no-op logger, so
// components can run unlogged without guarding call sites. Event names
// are snake_case identifiers, checked on every call at any level, so log
// streams from different nodes merge without spelling variants.
type Logger struct {
	node, kind string
	now        func() vclock.Time
	min        atomic.Int32

	mu      sync.Mutex
	out     io.Writer
	entries []LogEntry // ring, oldest first
	cap     int
}

// NewLogger builds a logger from cfg.
func NewLogger(cfg LoggerConfig) *Logger {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultLoggerCapacity
	}
	l := &Logger{
		node: cfg.Node,
		kind: cfg.Kind,
		now:  cfg.Now,
		out:  cfg.Output,
		cap:  cfg.Capacity,
	}
	l.min.Store(int32(cfg.Min))
	if cfg.Min == 0 {
		l.min.Store(int32(LevelInfo))
	}
	return l
}

// Enabled reports whether events at lv would be recorded. Hot paths
// guard their (variadic, hence allocating) log calls with it so a
// disabled level costs one atomic load and nothing else.
func (l *Logger) Enabled(lv Level) bool {
	return l != nil && lv >= Level(l.min.Load())
}

// SetLevel changes the minimum recorded level.
func (l *Logger) SetLevel(lv Level) {
	if l != nil {
		l.min.Store(int32(lv))
	}
}

// SetOutput attaches (or replaces) the mirror writer.
func (l *Logger) SetOutput(w io.Writer) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.out = w
	l.mu.Unlock()
}

// Debug records a debug event.
func (l *Logger) Debug(event string, fields ...Field) { l.log(LevelDebug, event, fields) }

// Info records an informational event.
func (l *Logger) Info(event string, fields ...Field) { l.log(LevelInfo, event, fields) }

// Warn records a warning.
func (l *Logger) Warn(event string, fields ...Field) { l.log(LevelWarn, event, fields) }

// Error records an error event.
func (l *Logger) Error(event string, fields ...Field) { l.log(LevelError, event, fields) }

func (l *Logger) log(lv Level, event string, fields []Field) {
	checkIdentifier("log event", event)
	if !l.Enabled(lv) {
		return
	}
	e := LogEntry{
		Wall:  time.Now(),
		Level: lv.String(),
		Node:  l.node,
		Kind:  l.kind,
		Event: event,
		Attrs: renderFields(fields),
	}
	if l.now != nil {
		e.VT = l.now()
	}
	l.mu.Lock()
	l.entries = append(l.entries, e)
	if len(l.entries) > l.cap {
		l.entries = append(l.entries[:0], l.entries[len(l.entries)-l.cap:]...)
	}
	out := l.out
	l.mu.Unlock()
	if out != nil {
		io.WriteString(out, e.String()+"\n") //nolint:errcheck // best-effort mirror
	}
}

// Recent snapshots the newest n retained entries, oldest first (all of
// them when n <= 0).
func (l *Logger) Recent(n int) []LogEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	all := l.entries
	if n > 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	out := make([]LogEntry, len(all))
	copy(out, all)
	return out
}

// renderFields formats fields as a key=value tail.
func renderFields(fields []Field) string {
	if len(fields) == 0 {
		return ""
	}
	var b strings.Builder
	for i, f := range fields {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(f.Key)
		b.WriteByte('=')
		b.WriteString(quoteIfNeeded(f.Value()))
	}
	return b.String()
}

// quoteIfNeeded quotes values containing whitespace, quotes, or '='
// so the key=value line stays machine-splittable.
func quoteIfNeeded(v string) string {
	if v == "" {
		return `""`
	}
	if strings.ContainsAny(v, " \t\n\"=") {
		return strconv.Quote(v)
	}
	return v
}
