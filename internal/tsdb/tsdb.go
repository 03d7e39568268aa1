// Package tsdb persists per-series time-series state in a sharded,
// segment-based write-ahead log of length-delimited binary records.
//
// Series are hashed across a fixed set of shard directories; each shard owns
// a sequence of append-only segment files and a single appender goroutine
// that batches concurrent writes into group-commit frames — one
// varint-framed, CRC32-C-protected frame per write+fsync, carrying interned
// series IDs (a per-shard name dictionary) and XOR-compressed point
// payloads. The design goals, in order:
//
//   - Durability with attribution: an append acknowledged to the caller has
//     been fsynced; a torn tail from a crash loses only unacknowledged
//     writes; a flipped byte fails the frame CRC and quarantines exactly the
//     series the frame names, never its shard neighbours.
//   - Million-series scale: a handful of open files per shard, not one per
//     series; a per-series extent index built by one sequential scan at Open
//     so Load reads only its own frames; group commit amortizes fsync across
//     every series that wrote in the window.
//   - Cheap bytes: interned IDs instead of names, Gorilla-style XOR float
//     compression chained across frames, and shared frame overhead per
//     commit batch put steady-state WAL cost at a few bytes per point,
//     versus ~40+ for the JSON-lines format this replaced.
//
// A series name has exactly one identity: its binding in the owning shard's
// dictionary. Quarantine and Remove retire it with a durable tombstone
// record, which keeps damaged frames inspectable (`opprenticectl wal cat`)
// while freeing the name. Segment rotation caps file size, and compaction
// deletes only sealed segments holding exclusively tombstoned state —
// retention never drops anything a replay could still need. Import writes a
// whole series (meta, points, labels) as one frame, for tools that bring
// data in from elsewhere.
package tsdb

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrCorrupt is wrapped by errors caused by a damaged log (checksum
// mismatch, malformed or semantically invalid records) as opposed to I/O
// errors. Callers can errors.Is for it to decide on quarantine.
var ErrCorrupt = errors.New("corrupt WAL")

// Meta describes a series at creation time.
type Meta struct {
	Name            string
	Start           time.Time
	IntervalSeconds int
	Recall          float64
	Precision       float64
	Trees           int
	WebhookURL      string
	RetrainEvery    int
	// Predictor and EVTQ carry the series' cThld-predictor configuration
	// (core.PredictorKind wire code; 0 = EWMA). A series with non-default
	// values writes an opMetaV2 record; zero-valued config keeps the
	// original opMeta byte stream so old logs and new default-config logs
	// stay bit-identical.
	Predictor uint8
	EVTQ      float64
}

// Loaded is a series reconstructed from its log.
type Loaded struct {
	Meta   Meta
	Values []float64
	Labels []bool
	// Types carries the per-point anomaly class (core.AnomalyClass wire
	// codes; 0 = none/untyped). It is nil when the log holds no typed label
	// record — imported series and series labeled without a type — and
	// otherwise runs parallel to Labels.
	Types []uint8
}

// Option configures Open.
type Option func(*options)

type options struct {
	shards       int
	segmentBytes int64
	groupCommit  time.Duration
}

// WithShards sets the shard count for a fresh data directory (default 8).
// Reopening an existing directory always uses the shard count found on
// disk; the option is then ignored.
func WithShards(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.shards = n
		}
	}
}

// WithSegmentBytes sets the segment rotation threshold (default 64 MiB).
func WithSegmentBytes(n int64) Option {
	return func(o *options) {
		if n > 0 {
			o.segmentBytes = n
		}
	}
}

// WithGroupCommit sets the group-commit accumulation window. Zero (the
// default) commits whatever is queued the moment the appender is free; a
// positive window holds each batch open that long, trading single-writer
// latency for fewer, larger fsyncs under concurrency.
func WithGroupCommit(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.groupCommit = d
		}
	}
}

// Store is a sharded segment store rooted at one directory. All methods are
// safe for concurrent use.
type Store struct {
	dir    string
	opts   options
	shards []*shard

	// opMu is the close barrier: mutating ops hold it for read while
	// enqueueing to an appender, Close takes it for write so no enqueue can
	// race the appender shutdown.
	opMu   sync.RWMutex
	closed bool
}

// extent locates one frame referencing a series: segment sequence number,
// byte offset of the frame's length varint, and total frame size.
type extent struct {
	seq  uint64
	off  int64
	size int64
}

// series is the in-memory index entry of one interned series.
type series struct {
	id      uint64
	name    string
	extents []extent
	corrupt bool

	// chain is the XOR encoder state after the last committed point;
	// chainReady is false after a reopen until the appender (or a full Load)
	// replays the series once.
	chain      xorChain
	chainReady bool
}

// segState tracks one segment file for rotation and compaction. liveRefs
// counts distinct live-series references per frame plus pending tombstone
// holds; a sealed segment at zero holds only retired state and may be
// deleted.
type segState struct {
	seq      uint64
	size     int64
	liveRefs int
}

// deadRecord defers deletion of a tombstone's segment until every older
// segment holding the retired series' data is gone — deleting the tombstone
// first could resurrect the series after a crash between the two removals.
type deadRecord struct {
	id      uint64
	segs    map[uint64]bool // segments (≠ tombSeq) still holding its frames
	tombSeq uint64
}

type shard struct {
	store *Store
	id    int
	dir   string

	mu       sync.Mutex
	byName   map[string]*series
	byID     map[uint64]*series
	nextID   uint64 // last assigned ID
	segs     []*segState
	dead     []*deadRecord
	poisoned bool  // structural corruption: every indexed series is unreadable
	failed   error // sticky write failure

	// Committed tail of the newest segment. The appender truncates to
	// activeSize before its first write when torn is set (Open never mutates
	// the directory, so read-only probes stay safe on a live store), and
	// seals the segment first when rotateFirst is set (corruption
	// mid-segment must stay on disk, inspectable, not be overwritten).
	activeSeq   uint64
	activeSize  int64
	torn        bool
	rotateFirst bool

	reqs chan *request
	quit chan struct{}
	wg   sync.WaitGroup

	// Appender-owned; nil until the first write after Open.
	active *os.File
}

// Open opens (or initializes) the store rooted at dir. Opening is read-only
// apart from creating missing directories: a second Store may safely probe
// a directory another Store is writing.
func Open(dir string, opt ...Option) (*Store, error) {
	o := options{shards: 8, segmentBytes: 64 << 20}
	for _, fn := range opt {
		fn(&o)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	existing := 0
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
			existing++
		}
	}
	n := o.shards
	if existing > 0 {
		n = existing // the on-disk layout wins over the option
	}
	s := &Store{dir: dir, opts: o}
	for i := 0; i < n; i++ {
		sh := &shard{
			store:  s,
			id:     i,
			dir:    filepath.Join(dir, shardDirName(i)),
			byName: make(map[string]*series),
			byID:   make(map[uint64]*series),
			reqs:   make(chan *request, 1024),
			quit:   make(chan struct{}),
		}
		if err := sh.scan(); err != nil {
			return nil, err
		}
		s.shards = append(s.shards, sh)
	}
	for _, sh := range s.shards {
		sh.wg.Add(1)
		go sh.run()
	}
	return s, nil
}

func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

func segFileName(seq uint64) string { return fmt.Sprintf("%08d.seg", seq) }

// shardFor hashes a series name onto its owning shard.
func (s *Store) shardFor(name string) *shard {
	return s.shards[shardIndex(name, len(s.shards))]
}

func shardIndex(name string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(shards))
}

// validName rejects names that could escape the data directory or collide
// with the store's own file layout.
func validName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		return fmt.Errorf("tsdb: invalid series name %q", name)
	}
	return nil
}

// Record is one durable write to a series' log: a create (Meta set), a
// batch of consecutive points (Values set), or a label action over the
// half-open range [Start, End). Class is the label's anomaly class
// (core.AnomalyClass wire code; 0 = untyped) — replay exposes it via
// Loaded.Types.
type Record struct {
	Name       string
	Meta       *Meta
	Values     []float64
	Start, End int
	Anomalous  bool
	Class      uint8
}

// prepare validates rec and returns the appender request for it.
func (s *Store) prepare(rec Record) (*request, error) {
	if err := validName(rec.Name); err != nil {
		return nil, err
	}
	req := &request{name: rec.Name, values: rec.Values,
		start: rec.Start, end: rec.End, anomalous: rec.Anomalous, class: rec.Class}
	switch {
	case rec.Meta != nil:
		req.op, req.meta = reqCreate, *rec.Meta
	case len(rec.Values) > 0:
		req.op = reqPoints
	case rec.Start >= 0 && rec.End > rec.Start:
		req.op = reqLabel
	default:
		return nil, fmt.Errorf("tsdb: %s: empty record or invalid label range [%d, %d)", rec.Name, rec.Start, rec.End)
	}
	return req, nil
}

// Submit enqueues rec on the owning shard's appender and returns at once:
// records of one series commit in Submit order. A nil return means the
// record is on its way to disk and done will be called exactly once, on the
// appender goroutine, with the result of its group-commit fsync; it must not
// block. rec.Values is borrowed until then. A non-nil return means the record
// was refused and done will never run. When the shard's queue is full Submit
// waits for space only until ctx is done, so an already-done ctx makes the
// enqueue a pure try.
func (s *Store) Submit(ctx context.Context, rec Record, done func(error)) error {
	req, err := s.prepare(rec)
	if err != nil {
		return err
	}
	req.done = done
	return s.enqueue(ctx, req)
}

// write is Submit plus the wait for the commit (or ctx — cancellation
// abandons the wait, not the write, which may still commit).
func (s *Store) write(ctx context.Context, rec Record) error {
	req, err := s.prepare(rec)
	if err != nil {
		return err
	}
	return s.send(ctx, req)
}

// CreateSeries durably registers a new series. The name must be unused; a
// tombstoned name may be reused.
func (s *Store) CreateSeries(meta Meta) error {
	return s.write(context.Background(), Record{Name: meta.Name, Meta: &meta})
}

// AppendPoints durably appends a batch of consecutive point values and
// returns once its group-commit frame has been fsynced, or ctx is done.
func (s *Store) AppendPoints(ctx context.Context, name string, values []float64) error {
	if len(values) == 0 {
		return validName(name)
	}
	// The appender holds the slice until commit, which may outlive an
	// abandoned wait; copy so the caller may reuse its buffer immediately.
	return s.write(ctx, Record{Name: name, Values: append([]float64(nil), values...)})
}

// AppendLabel durably records one untyped label action over the half-open
// range [start, end). Context semantics match AppendPoints.
func (s *Store) AppendLabel(ctx context.Context, name string, start, end int, anomalous bool) error {
	return s.write(ctx, Record{Name: name, Start: start, End: end, Anomalous: anomalous})
}

// Import durably creates a series that already has history — its meta, every
// point and the anomalous label ranges — as one frame, so after a crash
// either all of it replays or none of it. The name must be unused, as for
// CreateSeries; labels[i] labels values[i]. Import takes ownership of values
// and labels. Context semantics match AppendPoints.
func (s *Store) Import(ctx context.Context, meta Meta, values []float64, labels []bool) error {
	if err := validName(meta.Name); err != nil {
		return err
	}
	if len(labels) > len(values) {
		return fmt.Errorf("tsdb: %s: %d labels for %d points", meta.Name, len(labels), len(values))
	}
	return s.send(ctx, &request{op: reqImport, name: meta.Name, meta: meta, values: values, labels: labels})
}

// enqueue hands one request to the owning shard's appender, waiting for
// queue space no longer than ctx allows.
func (s *Store) enqueue(ctx context.Context, req *request) error {
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	if s.closed {
		return errors.New("tsdb: store is closed")
	}
	reqs := s.shardFor(req.name).reqs
	select {
	case reqs <- req:
		return nil
	default:
	}
	select {
	case reqs <- req:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// send enqueues one request and waits for the commit ack (or ctx).
func (s *Store) send(ctx context.Context, req *request) error {
	resp := make(chan error, 1)
	req.done = func(err error) { resp <- err }
	if err := s.enqueue(ctx, req); err != nil {
		return err
	}
	select {
	case err := <-resp:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Load replays one series and returns its state. Damaged frames (or a
// semantically invalid record sequence) yield an error wrapping ErrCorrupt;
// an unknown name yields one wrapping fs.ErrNotExist.
func (s *Store) Load(name string) (*Loaded, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	sh := s.shardFor(name)
	sh.mu.Lock()
	ser := sh.byName[name]
	if ser == nil {
		sh.mu.Unlock()
		return nil, fmt.Errorf("tsdb: series %q: %w", name, fs.ErrNotExist)
	}
	if ser.corrupt {
		sh.mu.Unlock()
		return nil, fmt.Errorf("tsdb: %s: damaged segment frame (%w)", name, ErrCorrupt)
	}
	extents := append([]extent(nil), ser.extents...)
	warm := ser.chainReady
	sh.mu.Unlock()

	loaded, chain, err := sh.replay(name, ser.id, extents)
	if err != nil {
		return nil, err
	}
	if !warm {
		// The replay just reproduced the encoder chain; hand it to the
		// appender so its first post-reopen write skips the rebuild. Skip if
		// anything advanced the series meanwhile.
		sh.mu.Lock()
		if !ser.chainReady && len(ser.extents) == len(extents) {
			ser.chain = chain
			ser.chainReady = true
		}
		sh.mu.Unlock()
	}
	return loaded, nil
}

// replay reads the extents of one series and rebuilds its state, returning
// the final XOR chain alongside.
func (sh *shard) replay(name string, id uint64, extents []extent) (*Loaded, xorChain, error) {
	var (
		loaded   Loaded
		chain    xorChain
		haveMeta bool
	)
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("tsdb: %s: %s (%w)", name, fmt.Sprintf(format, args...), ErrCorrupt)
	}
	err := sh.readExtents(extents, func(body []byte) error {
		return parseSubs(body[1:len(body)-4], func(sub *subRecord) error {
			if sub.id != id {
				return nil // group-commit frame shared with other series
			}
			switch sub.op {
			case opSeries:
				// The interning record; nothing to replay.
			case opMeta, opMetaV2:
				if haveMeta {
					return corrupt("duplicate meta")
				}
				haveMeta = true
				loaded.Meta = sub.meta
				loaded.Meta.Name = name
			case opPoints:
				if !haveMeta {
					return corrupt("points before meta")
				}
				var err error
				loaded.Values, err = decodePoints(sub, &chain, loaded.Values)
				if err != nil {
					return err
				}
				for len(loaded.Labels) < len(loaded.Values) {
					loaded.Labels = append(loaded.Labels, false)
				}
				for loaded.Types != nil && len(loaded.Types) < len(loaded.Values) {
					loaded.Types = append(loaded.Types, 0)
				}
			case opLabel, opTypedLabel:
				if !haveMeta {
					return corrupt("label before meta")
				}
				if sub.end > len(loaded.Labels) {
					return corrupt("label [%d, %d) beyond %d points", sub.start, sub.end, len(loaded.Labels))
				}
				if sub.op == opTypedLabel && loaded.Types == nil {
					loaded.Types = make([]uint8, len(loaded.Labels))
				}
				class := uint8(0)
				if sub.anomalous && sub.op == opTypedLabel {
					class = sub.class
				}
				for i := sub.start; i < sub.end; i++ {
					loaded.Labels[i] = sub.anomalous
					if loaded.Types != nil {
						// A plain label over a typed range clears the class:
						// the channels never disagree about anomalousness.
						loaded.Types[i] = class
					}
				}
			case opTombstone:
				// Unreachable for a live binding; ignore.
			}
			return nil
		})
	})
	if err != nil {
		return nil, chain, err
	}
	if !haveMeta {
		return nil, chain, corrupt("log has no meta record")
	}
	return &loaded, chain, nil
}

// readExtents streams the frames named by extents (in order), re-verifying
// each frame's CRC, and hands each full body (kind byte through CRC) to fn.
// Extents are grouped by segment so each file is opened once.
func (sh *shard) readExtents(extents []extent, fn func(body []byte) error) error {
	var (
		f   *os.File
		seq uint64
	)
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	for _, ext := range extents {
		if f == nil || ext.seq != seq {
			if f != nil {
				f.Close()
			}
			var err error
			f, err = os.Open(filepath.Join(sh.dir, segFileName(ext.seq)))
			if err != nil {
				return fmt.Errorf("tsdb: %w", err)
			}
			seq = ext.seq
		}
		buf := make([]byte, ext.size)
		if _, err := f.ReadAt(buf, ext.off); err != nil {
			return fmt.Errorf("tsdb: read frame: %w", err)
		}
		body, err := frameBody(buf)
		if err != nil {
			return err
		}
		if err := fn(body); err != nil {
			return err
		}
	}
	return nil
}

// List returns every known series name (including corrupt ones, so restore
// can quarantine them), sorted.
func (s *Store) List() ([]string, error) {
	var names []string
	for _, sh := range s.shards {
		sh.mu.Lock()
		for name := range sh.byName {
			names = append(names, name)
		}
		sh.mu.Unlock()
	}
	sort.Strings(names)
	return names, nil
}

// Quarantine retires a damaged series with a durable tombstone: the name
// becomes reusable, replay drops its state, and the damaged frames stay on
// disk for inspection (wal cat) until compaction finds them fully retired.
// The returned string names where the evidence lives. Quarantining an
// unknown series is an error.
func (s *Store) Quarantine(name string) (string, error) {
	if err := validName(name); err != nil {
		return "", err
	}
	sh := s.shardFor(name)
	sh.mu.Lock()
	_, exists := sh.byName[name]
	sh.mu.Unlock()
	if !exists {
		return "", fmt.Errorf("tsdb: quarantine: series %q: %w", name, fs.ErrNotExist)
	}
	if err := s.send(context.Background(), &request{op: reqTombstone, name: name}); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s (tombstoned; frames retained until compaction)", sh.dir), nil
}

// Remove deletes a series by tombstoning it. Removing an unknown series is a
// no-op.
func (s *Store) Remove(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	sh := s.shardFor(name)
	sh.mu.Lock()
	_, exists := sh.byName[name]
	sh.mu.Unlock()
	if !exists {
		return nil
	}
	return s.send(context.Background(), &request{op: reqTombstone, name: name})
}

// Compact deletes sealed segments that hold only tombstoned state. The
// appenders also run this opportunistically after every rotation.
func (s *Store) Compact() error {
	var first error
	for _, sh := range s.shards {
		sh.mu.Lock()
		err := sh.compactLocked()
		sh.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops the appenders (draining already queued writes), flushes, and
// closes every segment handle.
func (s *Store) Close() error {
	s.opMu.Lock()
	if s.closed {
		s.opMu.Unlock()
		return nil
	}
	s.closed = true
	s.opMu.Unlock()
	for _, sh := range s.shards {
		close(sh.quit)
	}
	var first error
	for _, sh := range s.shards {
		sh.wg.Wait()
		sh.mu.Lock()
		if sh.failed != nil && first == nil {
			first = sh.failed
		}
		sh.mu.Unlock()
	}
	return first
}

// compactLocked implements Compact for one shard; the caller holds sh.mu.
// Deletion re-runs to a fixpoint: a tombstone's own segment only becomes
// deletable once every older segment holding the retired series' data is
// gone.
func (sh *shard) compactLocked() error {
	if sh.poisoned {
		// Structural damage: the index may be incomplete, so no segment can
		// be proven fully retired. Keep everything for inspection.
		return nil
	}
	for {
		changed := false
		for i := 0; i < len(sh.segs); i++ {
			sg := sh.segs[i]
			if sg.seq == sh.activeSeq || sg.liveRefs > 0 {
				continue
			}
			if err := os.Remove(filepath.Join(sh.dir, segFileName(sg.seq))); err != nil {
				return fmt.Errorf("tsdb: compact: %w", err)
			}
			sh.segs = append(sh.segs[:i], sh.segs[i+1:]...)
			i--
			changed = true
			// Release tombstone holds whose retired data just disappeared.
			for j := 0; j < len(sh.dead); j++ {
				dr := sh.dead[j]
				if !dr.segs[sg.seq] {
					continue
				}
				delete(dr.segs, sg.seq)
				if len(dr.segs) == 0 {
					sh.segRef(dr.tombSeq, -1)
					sh.dead = append(sh.dead[:j], sh.dead[j+1:]...)
					j--
				}
			}
		}
		if !changed {
			return nil
		}
	}
}

// segRef adjusts the live-reference count of one segment.
func (sh *shard) segRef(seq uint64, delta int) {
	if sg := sh.segState(seq); sg != nil {
		sg.liveRefs += delta
	}
}

func (sh *shard) segState(seq uint64) *segState {
	for _, sg := range sh.segs {
		if sg.seq == seq {
			return sg
		}
	}
	return nil
}

// retireLocked removes a series' live binding after its tombstone committed
// (or was scanned): the data references are released, and the tombstone's
// segment takes one hold per retired series until compaction deletes the
// data segments. The caller holds sh.mu.
func (sh *shard) retireLocked(ser *series, tombSeq uint64) {
	if sh.byName[ser.name] == ser {
		delete(sh.byName, ser.name)
	}
	delete(sh.byID, ser.id)
	segs := make(map[uint64]bool)
	for _, ext := range ser.extents {
		segs[ext.seq] = true
	}
	for seq := range segs {
		sh.segRef(seq, -1)
	}
	delete(segs, tombSeq) // data in the tombstone's own segment dies with it
	if len(segs) > 0 {
		sh.segRef(tombSeq, +1)
		sh.dead = append(sh.dead, &deadRecord{id: ser.id, segs: segs, tombSeq: tombSeq})
	}
}
