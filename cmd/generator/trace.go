package main

// Trace files: -record writes the fed tuples to one, -replay feeds one
// instead of the synthetic workload. The paper's experiments use
// synthetic streams because production financial feeds are proprietary;
// recording and replaying traces makes experiment inputs durable and
// shareable, and lets the generator substitute a captured feed for the
// synthetic one (same pacing, same tuples).
//
// Format: a fixed header (magic, version, stream count), a sequence of
// self-delimiting tuples (package tuple's codec), and a footer with the
// tuple count and a CRC-32 over everything before it.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/tuple"
)

const (
	traceMagic   = 0x54524331 // "TRC1"
	traceVersion = 1
)

// traceWriter records tuples to a file.
type traceWriter struct {
	f     *os.File
	w     *bufio.Writer
	crc   uint32
	count uint64
}

// createTrace starts a new trace for a stream set of the given arity.
func createTrace(path string, streams int) (*traceWriter, error) {
	if streams < 1 || streams > 255 {
		return nil, fmt.Errorf("trace: invalid stream count %d", streams)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: create: %w", err)
	}
	w := &traceWriter{f: f, w: bufio.NewWriterSize(f, 1<<16)}
	var hdr [9]byte
	binary.LittleEndian.PutUint32(hdr[0:], traceMagic)
	hdr[4] = traceVersion
	binary.LittleEndian.PutUint32(hdr[5:], uint32(streams))
	if err := w.write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

func (w *traceWriter) write(buf []byte) error {
	w.crc = crc32.Update(w.crc, crc32.IEEETable, buf)
	_, err := w.w.Write(buf)
	return err
}

// Append records one tuple. Tuples should be appended in timestamp order;
// traceReader replays them in file order.
func (w *traceWriter) Append(t *tuple.Tuple) error {
	if err := w.write(t.AppendTo(nil)); err != nil {
		return fmt.Errorf("trace: append: %w", err)
	}
	w.count++
	return nil
}

// Count reports how many tuples have been appended.
func (w *traceWriter) Count() uint64 { return w.count }

// Close writes the footer and closes the file.
func (w *traceWriter) Close() error {
	var footer [12]byte
	binary.LittleEndian.PutUint64(footer[0:], w.count)
	w.crc = crc32.Update(w.crc, crc32.IEEETable, footer[:8])
	binary.LittleEndian.PutUint32(footer[8:], w.crc)
	if _, err := w.w.Write(footer[:]); err != nil {
		w.f.Close()
		return fmt.Errorf("trace: footer: %w", err)
	}
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return fmt.Errorf("trace: flush: %w", err)
	}
	return w.f.Close()
}

// traceReader replays a recorded trace.
type traceReader struct {
	buf     []byte
	off     int
	streams int
	count   uint64
	read    uint64
}

// openTrace loads and verifies a trace file.
func openTrace(path string) (*traceReader, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open: %w", err)
	}
	if len(buf) < 9+12 {
		return nil, fmt.Errorf("trace: file too short: %d bytes", len(buf))
	}
	if binary.LittleEndian.Uint32(buf) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic")
	}
	if buf[4] != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", buf[4])
	}
	body, crcBytes := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcBytes) {
		return nil, fmt.Errorf("trace: checksum mismatch")
	}
	r := &traceReader{
		buf:     buf[9 : len(buf)-12],
		streams: int(binary.LittleEndian.Uint32(buf[5:])),
		count:   binary.LittleEndian.Uint64(buf[len(buf)-12:]),
	}
	return r, nil
}

// Streams reports the trace's stream arity.
func (r *traceReader) Streams() int { return r.streams }

// Count reports the total tuples in the trace.
func (r *traceReader) Count() uint64 { return r.count }

// Next returns the next tuple, or io.EOF at the end of the trace.
func (r *traceReader) Next() (tuple.Tuple, error) {
	if r.read == r.count {
		if r.off != len(r.buf) {
			return tuple.Tuple{}, fmt.Errorf("trace: %d trailing bytes", len(r.buf)-r.off)
		}
		return tuple.Tuple{}, io.EOF
	}
	t, used, err := tuple.Decode(r.buf[r.off:])
	if err != nil {
		return tuple.Tuple{}, fmt.Errorf("trace: tuple %d: %w", r.read, err)
	}
	r.off += used
	r.read++
	return t, nil
}
