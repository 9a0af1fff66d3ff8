package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/benchmark/tracenet"
	"repro/internal/cluster"
	"repro/internal/join"
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/split"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// emitMode is how the traced run's engines produced results, which the
// join replay must reproduce.
type emitMode int

const (
	emitCount emitMode = iota
	emitEnumerate
	emitMaterialize
)

// traceInput is what a traced workload run hands the layer analysis.
type traceInput struct {
	rec *tracenet.Recorder
	// wall is the wall time of the fed phases, the base of busy shares.
	wall    time.Duration
	tuples  int64
	results uint64
	emit    emitMode
	// harness marks a run fed by the harness's own feeder: its Feed span
	// includes the feeder's sleeps, so routing is costed by replay.
	harness bool
	// crashAt is when the victim was killed (replicated_failover).
	crashAt time.Time
}

// msgKey identifies a message: its send and handle spans share it.
type msgKey struct {
	from, to partition.NodeID
	seq      uint64
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// analyze derives the per-layer metrics from the traced run t, using
// the untraced run o as the base of the overhead figure, records them
// in o.values and writes the spans to file.
//
// Layers are costed from outside: spans around every Send and handler
// give busy and waiting time per node; pure layers (batch and result
// codecs, wire codec, join, snapshot codec, routing on the harness) are
// costed by replaying exactly what crossed their boundary. A layer's
// self time is its span minus covered child spans minus replayed
// callee cost.
func analyze(workload string, o, t *outcome, file string) error {
	in := t.trace
	spans := in.rec.Spans()
	msgs := in.rec.Messages()
	self := tracenet.SelfTimes(spans)
	v := o.values
	isEngine := make(map[partition.NodeID]bool, len(engines))
	for _, n := range engines {
		isEngine[n] = true
	}

	sends := make(map[msgKey]int, len(spans)/2)
	for i := range spans {
		if s := &spans[i]; s.Name == tracenet.SpanSend && !s.Failed {
			sends[msgKey{s.Node, s.Peer, s.Seq}] = i
		}
	}

	var (
		dataSendNs, dataSends, dataSlow     int64
		bytesTotal, dataBytes               int64
		dataDelay, resultDelay              []float64
		dataBusyNs, dataSelfNs              int64
		dataHandle                          []float64
		busy                                = make(map[partition.NodeID]int64)
		tickStats                           []float64
		tickSpillNs                         int64
		resultSendAt                        = make(map[partition.NodeID][]int64)
		dataDoneAt                          = make(map[partition.NodeID][]int64)
		appResultNs                         int64
		appResultHandle                     []float64
		genSelfNs                           int64
		genSpan                             []float64
		deltaMsgs, deltaBytes, deltaBusyNs  int64
		relocBytes                          int64
		promoteSent, promoteAcked, remapped int64
	)
	type reloc struct{ cptv, ptv, pause, marker, sendStates, installed, remap, remapAck int64 }
	relocs := make(map[uint64]*reloc)
	relocOf := func(epoch uint64) *reloc {
		r := relocs[epoch]
		if r == nil {
			r = &reloc{}
			relocs[epoch] = r
		}
		return r
	}
	first := func(dst *int64, at int64) {
		if *dst == 0 {
			*dst = at
		}
	}
	crashAt := int64(-1)
	if !in.crashAt.IsZero() {
		crashAt = int64(in.crashAt.Sub(in.rec.Epoch()))
	}

	for i := range spans {
		s := &spans[i]
		dur := int64(s.Duration())
		switch s.Name {
		case tracenet.SpanSend:
			if s.Failed {
				continue
			}
			bytesTotal += int64(s.Bytes)
			switch s.Kind {
			case "Data":
				dataSends++
				dataSendNs += dur
				dataBytes += int64(s.Bytes)
				if dur > int64(time.Millisecond) {
					dataSlow++
				}
			case "ResultData":
				resultSendAt[s.Node] = append(resultSendAt[s.Node], s.Start)
			case "StateTransfer":
				relocBytes += int64(s.Bytes)
			case "StateDelta":
				deltaMsgs++
				deltaBytes += int64(s.Bytes)
			}
			if s.Node == cluster.CoordinatorNode {
				switch s.Kind {
				case "CptV":
					first(&relocOf(s.Epoch).cptv, s.Start)
				case "Pause":
					first(&relocOf(s.Epoch).pause, s.Start)
				case "SendStates":
					first(&relocOf(s.Epoch).sendStates, s.Start)
				case "Remap":
					first(&relocOf(s.Epoch).remap, s.Start)
				case "Promote":
					if s.Start > crashAt {
						first(&promoteSent, s.Start)
					}
				}
			}
		case tracenet.SpanHandle:
			busy[s.Node] += dur
			from, matched := sends[msgKey{s.Peer, s.Node, s.Seq}]
			switch {
			case isEngine[s.Node] && s.Kind == "Data":
				dataBusyNs += dur
				dataSelfNs += int64(self[i])
				dataHandle = append(dataHandle, ms(dur))
				dataDoneAt[s.Node] = append(dataDoneAt[s.Node], s.End)
				if matched {
					dataDelay = append(dataDelay, ms(s.Start-spans[from].Start))
				}
			case isEngine[s.Node] && s.Kind == "Tick/"+proto.TickStats:
				tickStats = append(tickStats, ms(dur))
			case isEngine[s.Node] && s.Kind == "Tick/"+proto.TickSpill:
				tickSpillNs += dur
			case isEngine[s.Node] && s.Kind == "StateDelta":
				deltaBusyNs += dur
			case s.Node == cluster.AppServerNode && s.Kind == "ResultData":
				appResultNs += dur
				appResultHandle = append(appResultHandle, ms(dur))
				if matched {
					resultDelay = append(resultDelay, ms(s.Start-spans[from].Start))
				}
			case s.Node == cluster.GeneratorNode && s.Kind == "Remap" && s.End > crashAt && crashAt >= 0:
				remapped = max(remapped, s.End)
			case s.Node == cluster.CoordinatorNode:
				switch s.Kind {
				case "PtV":
					first(&relocOf(s.Epoch).ptv, s.End)
				case "MarkerAck":
					first(&relocOf(s.Epoch).marker, s.End)
				case "Installed":
					first(&relocOf(s.Epoch).installed, s.End)
				case "RemapAck":
					first(&relocOf(s.Epoch).remapAck, s.End)
				case "PromoteAck":
					promoteAcked = max(promoteAcked, s.End)
				}
			}
		case "ingest":
			genSelfNs += int64(self[i])
			genSpan = append(genSpan, ms(dur))
		}
	}

	rp, err := replay(spans, msgs, in)
	if err != nil {
		return err
	}
	tuples := float64(in.tuples)
	results := float64(in.results)
	perTuple := func(ns int64) float64 { return float64(ns) / tuples }

	// split
	if in.harness {
		v["split.route_ns_per_tuple"] = max(0, rp.routeNsPerTuple-rp.batchEncodeNsPerTuple)
	} else {
		v["split.route_ns_per_tuple"] = perTuple(genSelfNs)
	}
	if dataSends > 0 {
		v["split.tuples_per_batch"] = tuples / float64(dataSends)
	}
	// tuple, proto
	v["tuple.batch_encode_ns_per_tuple"] = rp.batchEncodeNsPerTuple
	v["tuple.batch_decode_ns_per_tuple"] = rp.batchDecodeNsPerTuple
	v["tuple.result_encode_ns_per_result"] = rp.resultEncodeNs
	v["tuple.result_decode_ns_per_result"] = rp.resultDecodeNs
	v["proto.wire_encode_ns_per_msg"] = rp.wireEncodeNs
	v["proto.wire_decode_ns_per_msg"] = rp.wireDecodeNs
	// Each Data frame adds a length prefix and a kind byte to its body.
	v["proto.bytes_per_tuple"] = float64(dataBytes+5*dataSends) / tuples
	// transport
	v["transport.send_data_ns_per_tuple"] = perTuple(dataSendNs)
	if dataSends > 0 {
		v["transport.send_slow_share"] = float64(dataSlow) / float64(dataSends)
	}
	v["transport.data_delay_p50_ms"] = quantileOf(dataDelay, 0.50)
	v["transport.data_delay_p99_ms"] = quantileOf(dataDelay, 0.99)
	v["transport.result_delay_p50_ms"] = quantileOf(resultDelay, 0.50)
	v["transport.bytes_total"] = float64(bytesTotal)
	// engine
	v["engine.data_busy_ns_per_tuple"] = perTuple(dataBusyNs)
	callees := rp.batchDecodeNsPerTuple*tuples + rp.joinNs
	if in.emit == emitMaterialize {
		callees += rp.resultEncodeNs * results
	}
	v["engine.data_self_ns_per_tuple"] = max(0, (float64(dataSelfNs)-callees)/tuples)
	var maxTuples, sumTuples float64
	for _, n := range engines {
		v["engine.busy_share_max"] = max(v["engine.busy_share_max"], float64(busy[n])/float64(in.wall))
		maxTuples = max(maxTuples, float64(rp.engineTuples[n]))
		sumTuples += float64(rp.engineTuples[n])
	}
	if sumTuples > 0 {
		v["engine.tuple_skew"] = maxTuples / (sumTuples / float64(len(engines)))
	}
	resultWait := resultWaits(dataDoneAt, resultSendAt)
	v["engine.result_wait_p50_ms"] = quantileOf(resultWait, 0.50)
	v["engine.tick_stats_ms_p50"] = quantileOf(tickStats, 0.50)
	v["engine.tick_spill_ms_total"] = ms(tickSpillNs)
	// join
	if sumTuples > 0 {
		v["join.process_ns_per_tuple"] = rp.joinCountNs / sumTuples
	}
	if in.emit != emitCount && rp.joinResults > 0 {
		v["join.enumerate_ns_per_result"] = max(0, rp.joinNs-rp.joinCountNs) / float64(rp.joinResults)
	}
	v["join.state_mb"] = float64(rp.stateBytes) / 1e6
	v["join.snapshot_encode_mb_per_s"] = rp.snapEncodeMBps
	v["join.snapshot_decode_mb_per_s"] = rp.snapDecodeMBps
	// appserver
	if in.emit == emitMaterialize && results > 0 {
		v["appserver.result_busy_ns_per_result"] = float64(appResultNs) / results
	}
	v["appserver.busy_share"] = float64(busy[cluster.AppServerNode]) / float64(in.wall)
	// coordinator
	var whole, ptv, marker, transfer, remap []float64
	for _, r := range relocs {
		if r.cptv == 0 || r.remapAck == 0 {
			continue // a promotion's remap, or a relocation that aborted
		}
		whole = append(whole, ms(r.remapAck-r.cptv))
		ptv = append(ptv, ms(r.ptv-r.cptv))
		marker = append(marker, ms(r.marker-r.pause))
		transfer = append(transfer, ms(r.installed-r.sendStates))
		remap = append(remap, ms(r.remapAck-r.remap))
	}
	if in.harness {
		v["coordinator.relocations"] = t.values["coordinator.relocations"]
	} else {
		v["coordinator.relocations"] = float64(len(whole))
	}
	v["coordinator.relocation_ms_p50"] = quantileOf(whole, 0.50)
	v["coordinator.reloc_ptv_ms_p50"] = quantileOf(ptv, 0.50)
	v["coordinator.reloc_marker_ms_p50"] = quantileOf(marker, 0.50)
	v["coordinator.reloc_transfer_ms_p50"] = quantileOf(transfer, 0.50)
	v["coordinator.reloc_remap_ms_p50"] = quantileOf(remap, 0.50)
	v["coordinator.reloc_mb_total"] = float64(relocBytes) / 1e6
	v["coordinator.busy_ms_total"] = ms(busy[cluster.CoordinatorNode])
	// spill, cleanup: counts come from the traced run's own result
	for _, name := range []string{"split.buffered_peak", "spill.count", "spill.mb_total",
		"cleanup.engine_s_max", "cleanup.engine_s_sum", "cleanup.tuples", "cleanup.segments", "cleanup.results", "cleanup.balance"} {
		v[name] = t.values[name]
	}
	if mb := v["spill.mb_total"]; mb > 0 {
		v["spill.ms_per_mb"] = ms(tickSpillNs) / mb
	}
	// replica
	v["replica.delta_bytes_per_tuple"] = float64(deltaBytes) / tuples
	v["replica.delta_msgs"] = float64(deltaMsgs)
	v["replica.delta_busy_ns_per_tuple"] = perTuple(deltaBusyNs)
	if crashAt >= 0 && promoteSent > 0 {
		v["replica.detect_ms"] = ms(promoteSent - crashAt)
		v["replica.promote_ms"] = ms(promoteAcked - promoteSent)
		v["replica.unpause_ms"] = ms(remapped - promoteAcked)
	}
	// gen: on the harness the feeder is the repo's own and unobservable
	// from outside; feed_overrun_share (untraced) is its health figure.
	// trace
	if p50 := t.values["result_latency_p50_ms"]; p50 > 0 {
		segments := []float64{
			t.values["gen.late_p50_ms"],        // due → offered
			median(genSpan) / 2,                // offered → batch flushed
			v["transport.data_delay_p50_ms"],   // Send entry → engine handler entry
			median(dataHandle),                 // engine busy
			v["engine.result_wait_p50_ms"],     // results buffered until threshold or sr tick
			v["transport.result_delay_p50_ms"], // Send entry → app server handler entry
			median(appResultHandle) / 2,        // decode + duplicate set up to the result
		}
		var sum float64
		for _, s := range segments {
			sum += s
		}
		v["trace.latency_coverage"] = sum / p50
		t.note("latency segments (ms): gen-late %.3f, batch wait %.3f, data delay %.3f, engine busy %.3f, result wait %.3f, result delay %.3f, app busy %.3f; sum %.3f of traced p50 %.3f",
			segments[0], segments[1], segments[2], segments[3], segments[4], segments[5], segments[6], sum, p50)
	}
	v["trace.overhead_share"] = overhead(o, t)
	return writeSpans(file, workload, spans)
}

// resultWaits returns, per Data message an engine handled, how long its
// results then waited in the engine's buffer: the time from the end of
// the Data handler to the engine's next ResultData send.
func resultWaits(dataDoneAt, resultSendAt map[partition.NodeID][]int64) []float64 {
	var waits []float64
	for node, sent := range resultSendAt {
		sort.Slice(sent, func(i, j int) bool { return sent[i] < sent[j] })
		for _, done := range dataDoneAt[node] {
			// The flush a Data handler triggers itself starts before the
			// handler ends; the buffer was shipped at once.
			i := sort.Search(len(sent), func(i int) bool { return sent[i] >= done })
			if i < len(sent) {
				waits = append(waits, ms(sent[i]-done))
			}
		}
	}
	return waits
}

// overhead is the traced run's relative worsening against the untraced
// one, on the workload's own headline figure: result latency where it
// is measured, else throughput for the closed loop, else CPU per tuple
// (an open loop's throughput is set by its schedule).
func overhead(o, t *outcome) float64 {
	if base := o.values["result_latency_p50_ms"]; base > 0 {
		return t.values["result_latency_p50_ms"]/base - 1
	}
	if !t.trace.harness {
		return 1 - t.values["throughput_tps"]/o.values["throughput_tps"]
	}
	return t.values["cpu_us_per_tuple"]/o.values["cpu_us_per_tuple"] - 1
}

// replayed holds the cost of the pure layers, measured by running what
// the traced run recorded through them again, alone.
type replayed struct {
	batchEncodeNsPerTuple, batchDecodeNsPerTuple float64
	resultEncodeNs, resultDecodeNs               float64
	wireEncodeNs, wireDecodeNs                   float64
	routeNsPerTuple                              float64
	// joinCountNs is the whole replay's join time in count-only mode,
	// joinNs in the run's own emit mode.
	joinCountNs, joinNs float64
	joinResults         uint64
	engineTuples        map[partition.NodeID]int64
	stateBytes          int64
	snapEncodeMBps      float64
	snapDecodeMBps      float64
}

// discardEndpoint is the transport the routing replay sends into.
type discardEndpoint struct{}

func (discardEndpoint) Node() partition.NodeID                     { return cluster.GeneratorNode }
func (discardEndpoint) Send(partition.NodeID, proto.Message) error { return nil }
func (discardEndpoint) Close() error                               { return nil }

func replay(spans []tracenet.Span, msgs []proto.Message, in *traceInput) (*replayed, error) {
	rp := &replayed{engineTuples: make(map[partition.NodeID]int64)}
	// The replay is one goroutine allocating a cluster's worth of state
	// next to every recorded payload: with the collector on, mark assists
	// tripled its per-tuple times. Off, a replayed cost is the layer's
	// own; the collector's share stays in the caller's self time and
	// shows in proc.gc_*.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Each engine's Data messages, in the order the generator sent them.
	perEngine := make(map[partition.NodeID][]proto.Data)
	var sampled []proto.Message
	for i := range spans {
		s := &spans[i]
		if s.Name != tracenet.SpanSend || s.Failed || s.Msg < 0 {
			continue
		}
		if d, ok := msgs[s.Msg].(proto.Data); ok {
			perEngine[s.Peer] = append(perEngine[s.Peer], d)
			if s.Seq%tracenet.SampleEvery != 0 {
				continue
			}
		}
		sampled = append(sampled, msgs[s.Msg])
	}

	pf := partition.NewFunc(partitions)
	var emit join.EmitFunc
	if in.emit != emitCount {
		emit = func(tuple.Result) {}
	}
	var decodeNs, encodeNs, routeNs, tuples, encoded float64
	owner := make([]partition.NodeID, partitions)
	for i := range owner {
		owner[i] = engines[i%len(engines)]
	}
	router, err := split.New(discardEndpoint{}, cluster.CoordinatorNode, pf, owner, 1, split.DefaultBatchSize)
	if err != nil {
		return nil, err
	}
	var scratch []byte
	var snapBytes, snapEncNs, snapDecNs float64
	for node, data := range perEngine {
		counting, emitting := join.New(streams, pf, nil), join.New(streams, pf, emit)
		for k, d := range data {
			t0 := vclock.WallNow()
			batch, err := tuple.DecodeBatch(d.Payload)
			decodeNs += float64(vclock.WallSince(t0))
			if err != nil {
				return nil, fmt.Errorf("replay: recorded batch for %s: %w", node, err)
			}
			tuples += float64(len(batch.Tuples))
			rp.engineTuples[node] += int64(len(batch.Tuples))
			t0 = vclock.WallNow()
			for i := range batch.Tuples {
				if _, err := counting.Process(batch.Tuples[i]); err != nil {
					return nil, err
				}
			}
			rp.joinCountNs += float64(vclock.WallSince(t0))
			if in.emit != emitCount {
				t0 = vclock.WallNow()
				for i := range batch.Tuples {
					if _, err := emitting.Process(batch.Tuples[i]); err != nil {
						return nil, err
					}
				}
				rp.joinNs += float64(vclock.WallSince(t0))
			}
			if k%tracenet.SampleEvery == 0 {
				t0 = vclock.WallNow()
				scratch = batch.AppendTo(scratch[:0])
				encodeNs += float64(vclock.WallSince(t0))
				encoded += float64(len(batch.Tuples))
				if in.harness {
					t0 = vclock.WallNow()
					for i := range batch.Tuples {
						if err := router.Route(batch.Tuples[i]); err != nil {
							return nil, err
						}
					}
					routeNs += float64(vclock.WallSince(t0))
				}
			}
		}
		if in.emit == emitCount {
			rp.joinNs = rp.joinCountNs
		}
		rp.joinResults += emitting.Output()
		rp.stateBytes += counting.MemBytes()
		// Snapshot codec: a sample of the replayed operator's groups.
		for k, id := range counting.ResidentIDs() {
			if k%8 != 0 {
				continue
			}
			snap := counting.ResidentSnapshot(id)
			t0 := vclock.WallNow()
			buf := join.EncodeSnapshot(snap)
			snapEncNs += float64(vclock.WallSince(t0))
			t0 = vclock.WallNow()
			if _, err := join.DecodeSnapshot(buf); err != nil {
				return nil, fmt.Errorf("replay: snapshot of group %d: %w", id, err)
			}
			snapDecNs += float64(vclock.WallSince(t0))
			snapBytes += float64(len(buf))
		}
	}
	if tuples > 0 {
		rp.batchDecodeNsPerTuple = decodeNs / tuples
	}
	if encoded > 0 {
		rp.batchEncodeNsPerTuple = encodeNs / encoded
		rp.routeNsPerTuple = routeNs / encoded
	}
	if snapEncNs > 0 && snapDecNs > 0 {
		// bytes/ns × 1e3 = MB/s
		rp.snapEncodeMBps = snapBytes / snapEncNs * 1e3
		rp.snapDecodeMBps = snapBytes / snapDecNs * 1e3
	}

	// Result and wire codecs over the sampled messages.
	var resDecNs, resEncNs, nResults, wireEncNs, wireDecNs float64
	var wire []byte
	for _, m := range sampled {
		kind := proto.WireKindOf(m)
		t0 := vclock.WallNow()
		wire = proto.AppendWire(wire[:0], m)
		wireEncNs += float64(vclock.WallSince(t0))
		t0 = vclock.WallNow()
		if _, err := proto.DecodeWire(kind, wire); err != nil {
			return nil, fmt.Errorf("replay: wire round trip: %w", err)
		}
		wireDecNs += float64(vclock.WallSince(t0))
		rd, ok := m.(proto.ResultData)
		if !ok {
			continue
		}
		var decoded []tuple.Result
		t0 = vclock.WallNow()
		for buf := rd.Payload; len(buf) > 0; {
			r, used, err := tuple.DecodeResult(buf)
			if err != nil {
				return nil, fmt.Errorf("replay: recorded result: %w", err)
			}
			decoded = append(decoded, r)
			buf = buf[used:]
		}
		resDecNs += float64(vclock.WallSince(t0))
		t0 = vclock.WallNow()
		for i := range decoded {
			scratch = decoded[i].AppendTo(scratch[:0])
		}
		resEncNs += float64(vclock.WallSince(t0))
		nResults += float64(len(decoded))
	}
	if n := float64(len(sampled)); n > 0 {
		rp.wireEncodeNs, rp.wireDecodeNs = wireEncNs/n, wireDecNs/n
	}
	if nResults > 0 {
		rp.resultDecodeNs, rp.resultEncodeNs = resDecNs/nResults, resEncNs/nResults
	}
	return rp, nil
}

// writeSpans writes the run's spans as one JSON document.
func writeSpans(file, workload string, spans []tracenet.Span) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	doc := struct {
		Workload string          `json:"workload"`
		Spans    []tracenet.Span `json:"spans"`
	}{workload, spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
