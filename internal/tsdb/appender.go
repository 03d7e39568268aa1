package tsdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Per-shard appender: one goroutine owns the shard's active segment file
// and turns concurrent requests into group-commit frames — collect a batch,
// encode it, one write, one fsync, then publish the staged index updates
// and ack every caller. A crash can therefore only lose requests that were
// never acked; everything acked sits in an fsynced frame.

const (
	reqCreate = iota
	reqPoints
	reqLabel
	reqTombstone
	reqImport // Store.Import: meta + points + labels in one frame
)

type request struct {
	op         int
	name       string
	meta       Meta        // reqCreate, reqImport
	values     []float64   // reqPoints, reqImport
	start, end int         // reqLabel
	anomalous  bool        // reqLabel
	class      byte        // reqLabel; 0 = untyped
	labels     []bool      // reqImport
	done       func(error) // called exactly once with the commit result
	err        error       // per-request rejection inside an otherwise good batch
}

const (
	// maxBatchReqs bounds one group-commit batch.
	maxBatchReqs = 4096
	// frameSplit closes the current frame when it grows past this; requests
	// are never split across frames, so one request may exceed it (bounded
	// by maxFrame).
	frameSplit = 8 << 20
)

// run is the appender loop. It exits when quit closes, after draining
// every request already enqueued (the Store's close barrier guarantees no
// new ones arrive).
func (sh *shard) run() {
	defer sh.wg.Done()
	for {
		select {
		case req := <-sh.reqs:
			sh.commit(sh.gather(req))
		case <-sh.quit:
			for {
				select {
				case req := <-sh.reqs:
					sh.commit(sh.gather(req))
				default:
					sh.closeActive()
					return
				}
			}
		}
	}
}

// gather builds one batch from first and whatever is already queued behind
// it: writers that queued while the previous frame committed share this
// frame's fsync.
func (sh *shard) gather(first *request) []*request {
	batch := []*request{first}
	for len(batch) < maxBatchReqs {
		select {
		case req := <-sh.reqs:
			batch = append(batch, req)
		default:
			return batch
		}
	}
	return batch
}

// commit encodes one batch into commit frames, writes and fsyncs them, then
// publishes the staged state and acks. On a write error the partial bytes
// are truncated away so disk and index stay consistent; if even that fails
// the shard is failed sticky.
func (sh *shard) commit(batch []*request) {
	sh.mu.Lock()
	failed := sh.failed
	sh.mu.Unlock()
	if failed == nil {
		failed = sh.ensureActive()
	}
	if failed != nil {
		for _, req := range batch {
			req.done(failed)
		}
		return
	}

	enc := commitEncoder{sh: sh}
	for _, req := range batch {
		req.err = enc.add(req)
	}
	frames := enc.finish()

	var wrote int64
	var werr error
	for _, fr := range frames {
		if _, err := sh.active.WriteAt(fr.data, sh.activeSize+wrote); err != nil {
			werr = err
			break
		}
		wrote += int64(len(fr.data))
	}
	if werr == nil && wrote > 0 {
		werr = sh.active.Sync()
	}
	if werr != nil {
		werr = fmt.Errorf("tsdb: commit: %w", werr)
		if terr := sh.active.Truncate(sh.activeSize); terr != nil {
			sh.fail(fmt.Errorf("tsdb: truncate after failed commit: %w", terr))
		}
		for _, req := range batch {
			req.done(werr)
		}
		return
	}

	sh.publish(frames, enc.all)
	for _, req := range batch {
		req.done(req.err)
	}

	if sh.activeSize >= sh.store.opts.segmentBytes {
		if err := sh.rotate(); err != nil {
			sh.fail(err)
		}
	}
}

// publish applies the staged updates of a successfully fsynced batch to the
// shard index, in commit order: bindings and extents first, then chains and
// tombstone retirements.
func (sh *shard) publish(frames []stagedFrame, all []*pendSeries) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	off := sh.activeSize
	for _, fr := range frames {
		for _, ps := range fr.refs {
			if ps.ser == nil {
				ser := &series{id: ps.id, name: ps.name}
				sh.byID[ps.id] = ser
				sh.byName[ps.name] = ser
				if sh.nextID < ps.id {
					sh.nextID = ps.id
				}
				ps.ser = ser
			}
			sh.noteExtent(ps.ser, extent{seq: sh.activeSeq, off: off, size: int64(len(fr.data))})
		}
		off += int64(len(fr.data))
	}
	for _, ps := range all {
		if ps.ser == nil {
			continue // every sub of the request was rejected
		}
		if ps.wrotePoints || ps.created {
			ps.ser.chain = ps.chain
			ps.ser.chainReady = true
		}
		if ps.tomb {
			sh.retireLocked(ps.ser, sh.activeSeq)
		}
	}
	sh.activeSize = off
	if sg := sh.segState(sh.activeSeq); sg != nil {
		sg.size = off
	}
}

// ensureActive opens (or creates) the active segment for appending. Torn
// tails recorded by the scan are truncated away here — the first write —
// never at Open, so read-only probes cannot mutate a live directory.
func (sh *shard) ensureActive() error {
	if sh.active != nil {
		return nil
	}
	if sh.activeSeq == 0 || sh.rotateFirst {
		return sh.rotate()
	}
	f, err := os.OpenFile(filepath.Join(sh.dir, segFileName(sh.activeSeq)), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	if sh.torn {
		if sh.activeSize < int64(len(segMagic)) {
			// Torn inside the header: rewrite the segment from scratch.
			if err := f.Truncate(0); err == nil {
				_, err = f.WriteAt([]byte(segMagic), 0)
			}
			if err == nil {
				err = f.Sync()
			}
			if err != nil {
				f.Close()
				return fmt.Errorf("tsdb: %w", err)
			}
			sh.setActiveSize(int64(len(segMagic)))
		} else {
			if err := f.Truncate(sh.activeSize); err != nil {
				f.Close()
				return fmt.Errorf("tsdb: %w", err)
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return fmt.Errorf("tsdb: %w", err)
			}
		}
		sh.torn = false
	}
	sh.active = f
	return nil
}

// rotate seals the current active segment (if any) and starts the next one,
// then lets compaction collect fully retired segments.
func (sh *shard) rotate() error {
	seq := sh.activeSeq + 1
	f, err := os.OpenFile(filepath.Join(sh.dir, segFileName(seq)), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	if _, err := f.WriteAt([]byte(segMagic), 0); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("tsdb: %w", err)
	}
	if err := syncDir(sh.dir); err != nil {
		f.Close()
		return err
	}
	if sh.active != nil {
		sh.active.Close()
	}
	sh.active = f
	sh.mu.Lock()
	sh.segs = append(sh.segs, &segState{seq: seq, size: int64(len(segMagic))})
	sh.activeSeq = seq
	sh.activeSize = int64(len(segMagic))
	sh.rotateFirst = false
	sh.torn = false
	err = sh.compactLocked()
	sh.mu.Unlock()
	return err
}

func (sh *shard) setActiveSize(n int64) {
	sh.mu.Lock()
	sh.activeSize = n
	if sg := sh.segState(sh.activeSeq); sg != nil {
		sg.size = n
	}
	sh.mu.Unlock()
}

func (sh *shard) closeActive() {
	if sh.active == nil {
		return
	}
	if err := sh.active.Close(); err != nil {
		sh.fail(fmt.Errorf("tsdb: close segment: %w", err))
	}
	sh.active = nil
}

// fail records the shard's first unrecoverable write error; every later
// request is refused with it.
func (sh *shard) fail(err error) {
	sh.mu.Lock()
	if sh.failed == nil {
		sh.failed = err
	}
	sh.mu.Unlock()
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("tsdb: sync dir: %w", err)
	}
	return nil
}

// pendSeries is the staged, not-yet-published view of one series touched by
// the batch being encoded.
type pendSeries struct {
	ser         *series // nil until published when created this batch
	id          uint64
	name        string
	chain       xorChain
	chainOK     bool
	created     bool
	wrotePoints bool
	tomb        bool
}

// stagedFrame is one encoded commit frame awaiting write: the full frame
// bytes and the distinct series it references, in order.
type stagedFrame struct {
	data []byte
	refs []*pendSeries
}

// commitEncoder turns a batch of requests into commit frames plus the
// staged index updates to publish after the fsync.
type commitEncoder struct {
	sh     *shard
	body   []byte // current frame body (kind byte first); nil when no frame open
	refs   []*pendSeries
	inRef  map[*pendSeries]bool
	frames []stagedFrame
	pend   map[string]*pendSeries // live staged binding per name
	all    []*pendSeries
	nextID uint64 // 0 until first allocation
}

// add encodes one request into the current frame. A returned error rejects
// just this request; the rest of the batch proceeds.
func (e *commitEncoder) add(req *request) error {
	switch req.op {
	case reqCreate, reqImport:
		if ps := e.lookup(req.name); ps != nil {
			return fmt.Errorf("tsdb: series %q already exists", req.name)
		}
		ps := e.intern(req.name)
		scratch := e.internSub(nil, ps)
		metaOp, encMeta := byte(opMeta), appendMeta
		if req.meta.Predictor != 0 || req.meta.EVTQ != 0 {
			metaOp, encMeta = opMetaV2, appendMetaV2
		}
		scratch = e.encodeSub(scratch, metaOp, ps.id, func(b []byte) []byte {
			return encMeta(b, req.meta)
		})
		if req.op == reqImport {
			scratch = e.encodePoints(scratch, ps, req.values)
			run := -1
			for i, anomalous := range req.labels {
				if anomalous && run < 0 {
					run = i
				}
				if !anomalous && run >= 0 {
					scratch = e.encodeLabel(scratch, ps.id, run, i, true, 0)
					run = -1
				}
			}
			if run >= 0 {
				scratch = e.encodeLabel(scratch, ps.id, run, len(req.labels), true, 0)
			}
		}
		if err := e.emit(req.name, ps, scratch); err != nil {
			e.unstage(req.name, ps)
			return err
		}
		return nil
	case reqPoints:
		ps := e.lookup(req.name)
		var scratch []byte
		if ps == nil {
			// Blind append without a create: intern and log it anyway; Load
			// will report the missing meta.
			ps = e.intern(req.name)
			scratch = e.internSub(nil, ps)
		}
		if ps.ser != nil && !ps.chainOK {
			if err := e.warmChain(ps); err != nil {
				return err
			}
		}
		saved := ps.chain
		scratch = e.encodePoints(scratch, ps, req.values)
		if err := e.emit(req.name, ps, scratch); err != nil {
			ps.chain = saved
			if ps.created {
				e.unstage(req.name, ps)
			}
			return err
		}
		ps.wrotePoints = true
		return nil
	case reqLabel:
		ps := e.lookup(req.name)
		var scratch []byte
		if ps == nil {
			ps = e.intern(req.name)
			scratch = e.internSub(nil, ps)
		}
		scratch = e.encodeLabel(scratch, ps.id, req.start, req.end, req.anomalous, req.class)
		if err := e.emit(req.name, ps, scratch); err != nil {
			if ps.created {
				e.unstage(req.name, ps)
			}
			return err
		}
		return nil
	case reqTombstone:
		ps := e.lookup(req.name)
		if ps == nil || ps.tomb {
			return nil // already gone; tombstoning is idempotent
		}
		ps.tomb = true
		return e.emit(req.name, ps, e.encodeSub(nil, opTombstone, ps.id, nil))
	}
	return fmt.Errorf("tsdb: unknown request op %d", req.op)
}

// lookup resolves a name against the staged view first, then the committed
// index. The committed read takes sh.mu: Load memoizes chains concurrently.
func (e *commitEncoder) lookup(name string) *pendSeries {
	if ps, ok := e.pend[name]; ok {
		if ps.tomb {
			return nil // retired earlier in this very batch
		}
		return ps
	}
	sh := e.sh
	sh.mu.Lock()
	ser := sh.byName[name]
	var ps *pendSeries
	if ser != nil {
		ps = &pendSeries{ser: ser, id: ser.id, name: name, chain: ser.chain, chainOK: ser.chainReady}
		if ser.corrupt {
			ps.chainOK = false
		}
	}
	sh.mu.Unlock()
	if ps != nil {
		e.stage(name, ps)
	}
	return ps
}

// intern stages a new series under the next free ID.
func (e *commitEncoder) intern(name string) *pendSeries {
	if e.nextID == 0 {
		sh := e.sh
		sh.mu.Lock()
		e.nextID = sh.nextID
		sh.mu.Unlock()
	}
	e.nextID++
	ps := &pendSeries{id: e.nextID, name: name, chainOK: true, created: true}
	e.stage(name, ps)
	return ps
}

// internSub encodes the dictionary-binding sub of a freshly interned
// series. Callers put it first in the request's scratch so the binding and
// the data land in the same frame (requests are frame-atomic).
func (e *commitEncoder) internSub(b []byte, ps *pendSeries) []byte {
	return e.encodeSub(b, opSeries, ps.id, func(b []byte) []byte {
		b = appendUvarint(b, uint64(len(ps.name)))
		return append(b, ps.name...)
	})
}

// unstage drops a freshly interned series whose request was rejected, so
// later requests in the batch cannot reference an unwritten binding.
func (e *commitEncoder) unstage(name string, ps *pendSeries) {
	if e.pend[name] == ps {
		delete(e.pend, name)
	}
	for i, p := range e.all {
		if p == ps {
			e.all = append(e.all[:i], e.all[i+1:]...)
			break
		}
	}
}

func (e *commitEncoder) stage(name string, ps *pendSeries) {
	if e.pend == nil {
		e.pend = make(map[string]*pendSeries)
	}
	e.pend[name] = ps
	e.all = append(e.all, ps)
}

// warmChain rebuilds a series' XOR encoder state from disk — needed for the
// first points append after a reopen, when the in-memory chain is cold. A
// corrupt series cannot be continued (its chain is unrecoverable).
func (e *commitEncoder) warmChain(ps *pendSeries) error {
	sh := e.sh
	sh.mu.Lock()
	if ps.ser.corrupt {
		sh.mu.Unlock()
		return fmt.Errorf("tsdb: %s: damaged segment frame (%w)", ps.name, ErrCorrupt)
	}
	if ps.ser.chainReady {
		ps.chain = ps.ser.chain
		ps.chainOK = true
		sh.mu.Unlock()
		return nil
	}
	extents := append([]extent(nil), ps.ser.extents...)
	sh.mu.Unlock()
	var chain xorChain
	err := sh.readExtents(extents, func(body []byte) error {
		return parseSubs(body[1:len(body)-4], func(sub *subRecord) error {
			if sub.id != ps.id || sub.op != opPoints {
				return nil
			}
			_, err := decodePoints(sub, &chain, nil)
			return err
		})
	})
	if err != nil {
		sh.mu.Lock()
		ps.ser.corrupt = true
		sh.mu.Unlock()
		return err
	}
	ps.chain = chain
	ps.chainOK = true
	return nil
}

// encodeSub appends one sub-record header (+payload via fn) to b.
func (e *commitEncoder) encodeSub(b []byte, op byte, id uint64, fn func([]byte) []byte) []byte {
	b = append(b, op)
	b = appendUvarint(b, id)
	if fn != nil {
		b = fn(b)
	}
	return b
}

func (e *commitEncoder) encodePoints(b []byte, ps *pendSeries, values []float64) []byte {
	w := bitWriter{}
	for _, v := range values {
		xorWrite(&w, &ps.chain, v)
	}
	stream := w.flush()
	return e.encodeSub(b, opPoints, ps.id, func(b []byte) []byte {
		b = appendUvarint(b, uint64(len(values)))
		b = appendUvarint(b, uint64(len(stream)))
		return append(b, stream...)
	})
}

// encodeLabel appends one label sub-record. An untyped label (class 0)
// keeps the original opLabel encoding, so logs without typed labels stay
// byte-identical; a class adds one byte under opTypedLabel.
func (e *commitEncoder) encodeLabel(b []byte, id uint64, start, end int, anomalous bool, class byte) []byte {
	op := byte(opLabel)
	if class != 0 {
		op = opTypedLabel
	}
	return e.encodeSub(b, op, id, func(b []byte) []byte {
		b = appendUvarint(b, uint64(start))
		b = appendUvarint(b, uint64(end))
		flag := byte(0)
		if anomalous {
			flag = 1
		}
		b = append(b, flag)
		if class != 0 {
			b = append(b, class)
		}
		return b
	})
}

// emit appends one request's encoded subs to the current frame, starting a
// new frame first if this one is already past the split threshold. Requests
// are atomic within a frame so an acked request can never be half-durable.
func (e *commitEncoder) emit(name string, ps *pendSeries, scratch []byte) error {
	if len(scratch)+5 > maxFrame {
		return fmt.Errorf("tsdb: %s: batch of %d bytes exceeds the %d-byte frame cap", name, len(scratch), maxFrame)
	}
	e.openFrame(len(scratch))
	e.body = append(e.body, scratch...)
	e.ref(ps)
	return nil
}

// openFrame makes sure a frame is open with room for next more bytes,
// sealing the current one when it is already past the split threshold.
func (e *commitEncoder) openFrame(next int) {
	if e.body != nil && (len(e.body)+next > frameSplit && len(e.body) > 1) {
		e.seal()
	}
	if e.body == nil {
		e.body = []byte{frameCommit}
		e.inRef = make(map[*pendSeries]bool)
	}
}

func (e *commitEncoder) ref(ps *pendSeries) {
	if !e.inRef[ps] {
		e.inRef[ps] = true
		e.refs = append(e.refs, ps)
	}
}

// seal closes the current frame: CRC, length prefix, staged for write.
func (e *commitEncoder) seal() {
	if e.body == nil || len(e.body) <= 1 {
		e.body, e.refs, e.inRef = nil, nil, nil
		return
	}
	body := binary.LittleEndian.AppendUint32(e.body, crc32.Checksum(e.body, castagnoli))
	frame := appendUvarint(make([]byte, 0, len(body)+4), uint64(len(body)))
	frame = append(frame, body...)
	e.frames = append(e.frames, stagedFrame{data: frame, refs: e.refs})
	e.body, e.refs, e.inRef = nil, nil, nil
}

// finish seals the open frame and returns every staged frame.
func (e *commitEncoder) finish() []stagedFrame {
	e.seal()
	return e.frames
}
