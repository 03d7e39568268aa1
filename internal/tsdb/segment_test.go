package tsdb

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// segPaths lists every segment file under dir.
func segPaths(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "shard-*", "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

func segCount(t *testing.T, dir string) int {
	t.Helper()
	return len(segPaths(t, dir))
}

// TestSegmentRotation forces tiny segments and checks that writes roll over
// into new files while every acked point stays replayable.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithShards(1), WithSegmentBytes(256))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := meta
	if err := s.CreateSeries(m); err != nil {
		t.Fatal(err)
	}
	var want []float64
	for i := 0; i < 200; i++ {
		v := float64(i) * 1.5
		want = append(want, v)
		if err := s.AppendPoints(ctx, "pv", []float64{v}); err != nil {
			t.Fatal(err)
		}
	}
	if n := segCount(t, dir); n < 2 {
		t.Fatalf("segments = %d, want rotation to have produced several", n)
	}
	got, err := s.Load("pv")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Values) != len(want) {
		t.Fatalf("replayed %d values, want %d", len(got.Values), len(want))
	}
	for i := range want {
		if got.Values[i] != want[i] {
			t.Fatalf("value %d = %v, want %v", i, got.Values[i], want[i])
		}
	}
	// And again after a cold reopen, where the scan walks every segment.
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err = s2.Load("pv")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Values) != len(want) || got.Values[199] != want[199] {
		t.Fatalf("post-reopen replay has %d values", len(got.Values))
	}
}

// TestCompactionReclaimsRetiredSegments quarantines a series and checks that
// the next rotation deletes the sealed segments referencing only it, while a
// surviving series' segments are untouched.
func TestCompactionReclaimsRetiredSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithShards(1), WithSegmentBytes(256))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, name := range []string{"dead", "live"} {
		m := meta
		m.Name = name
		if err := s.CreateSeries(m); err != nil {
			t.Fatal(err)
		}
	}
	// Fill several segments with the doomed series only...
	for i := 0; i < 150; i++ {
		if err := s.AppendPoints(ctx, "dead", []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// ...then move the active segment past them with the survivor.
	for i := 0; i < 150; i++ {
		if err := s.AppendPoints(ctx, "live", []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	before := segCount(t, dir)
	if before < 4 {
		t.Fatalf("setup produced only %d segments", before)
	}
	if _, err := s.Quarantine("dead"); err != nil {
		t.Fatal(err)
	}
	// The appender compacts after each rotation: write on past the next one.
	for i := 150; i < 170; i++ {
		if err := s.AppendPoints(ctx, "live", []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	after := segCount(t, dir)
	if after >= before {
		t.Errorf("segments %d -> %d; compaction reclaimed nothing", before, after)
	}
	got, err := s.Load("live")
	if err != nil {
		t.Fatalf("survivor must outlive compaction: %v", err)
	}
	if len(got.Values) != 170 {
		t.Errorf("survivor has %d values, want 170", len(got.Values))
	}
	if _, err := s.Load("dead"); err == nil {
		t.Error("quarantined series still loads")
	}
}

// TestGroupCommitCoalesces queues many records with Submit before awaiting
// any of them, as a bulk ingest worker does, and checks that the appender
// commits them in far fewer frames than records and that every ack is backed
// by a durable, replayable write.
func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers, each = 8, 25
	total := writers * (each + 1) // appends + creates
	acks := make(chan error, total)
	ack := func(err error) { acks <- err }
	for w := 0; w < writers; w++ {
		m := meta
		m.Name = fmt.Sprintf("kpi-%d", w)
		if err := s.Submit(ctx, Record{Name: m.Name, Meta: &m}, ack); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < each; i++ {
		for w := 0; w < writers; w++ {
			if err := s.Submit(ctx, Record{Name: fmt.Sprintf("kpi-%d", w), Values: []float64{float64(i)}}, ack); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < total; i++ {
		if err := <-acks; err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < writers; w++ {
		got, err := s.Load(fmt.Sprintf("kpi-%d", w))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Values) != each {
			t.Fatalf("writer %d: %d values, want %d", w, len(got.Values), each)
		}
		for i := range got.Values {
			if got.Values[i] != float64(i) {
				t.Fatalf("writer %d value %d = %v", w, i, got.Values[i])
			}
		}
	}
	stats, err := Dump(dir, discard{}, DumpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frames > total/4 {
		t.Errorf("frames = %d for %d requests; group commit never batched", stats.Frames, total)
	}
}

// TestShardCountFromDisk checks that a reopen ignores a conflicting
// WithShards and keeps the layout the directory was created with — series
// must hash to the shard that actually holds their frames.
func TestShardCountFromDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, n := range names {
		m := meta
		m.Name = n
		if err := s.CreateSeries(m); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendPoints(ctx, n, []float64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2, err := Open(dir, WithShards(16))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(s2.shards); got != 4 {
		t.Fatalf("reopen with conflicting option gave %d shards, want the on-disk 4", got)
	}
	for _, n := range names {
		got, err := s2.Load(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if len(got.Values) != 2 {
			t.Errorf("%s: %d values", n, len(got.Values))
		}
	}
}

// TestOversizedBatchRoundTrips appends one batch bigger than the
// frame-split threshold: requests are never split across frames, so this
// becomes a single oversized (but still sub-maxFrame) frame that must
// round-trip.
func TestOversizedBatchRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("large allocation")
	}
	s := openTemp(t)
	if err := s.CreateSeries(meta); err != nil {
		t.Fatal(err)
	}
	// Incompressible values: ~8 B/pt, so 2M points ≈ 16 MB > frameSplit.
	values := make([]float64, 2<<20)
	for i := range values {
		values[i] = float64(i) * 1e-7 * float64(i%7+1)
	}
	if err := s.AppendPoints(ctx, "pv", values); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load("pv")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Values) != len(values) {
		t.Fatalf("replayed %d values, want %d", len(got.Values), len(values))
	}
	for i := 0; i < len(values); i += 99991 {
		if got.Values[i] != values[i] {
			t.Fatalf("value %d = %v, want %v", i, got.Values[i], values[i])
		}
	}
}

// segBytes sums the on-disk size of every segment under dir.
func segBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	for _, seg := range segPaths(t, dir) {
		info, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// TestWALBytesPerPointCeiling pins the format's on-disk cost: a page-view
// style counter (smooth daily shape plus a small integer wobble, so
// consecutive points share most of their bits) appended in 256-point frames
// must cost at most 8.6 B/pt — a fifth of the 43 B/pt the JSON-lines log
// wrote for the same points. One writer, one frame per append: the byte
// count is deterministic.
func TestWALBytesPerPointCeiling(t *testing.T) {
	const (
		nSeries = 4
		batches = 16
		batch   = 256
		ceiling = 8.6
	)
	s := openTemp(t)
	dir := s.dir
	names := make([]string, nSeries)
	for i := range names {
		m := meta
		m.Name = fmt.Sprintf("pv-%03d", i)
		names[i] = m.Name
		if err := s.CreateSeries(m); err != nil {
			t.Fatal(err)
		}
	}
	// Creates are durable before CreateSeries returns, so the bytes on disk
	// here are series bootstrap; subtracting them leaves the cost of points.
	created := segBytes(t, dir)
	vals := make([]float64, batch)
	for b := 0; b < batches; b++ {
		for i := range vals {
			k := b*batch + i
			vals[i] = float64(9000 + 40*(k%24) + (k*7)%13)
		}
		for _, name := range names {
			if err := s.AppendPoints(ctx, name, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	perPt := float64(segBytes(t, dir)-created) / (nSeries * batches * batch)
	t.Logf("WAL cost %.4f B/pt over %d points", perPt, nSeries*batches*batch)
	if perPt > ceiling {
		t.Fatalf("WAL cost %.4f B/pt over the %.1f B/pt ceiling", perPt, ceiling)
	}
}
