package tsdb

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
)

// Legacy format support: earlier versions stored one JSON-lines WAL per
// series ("<name>.wal", one checksummed self-describing JSON object per
// line). Those logs stay readable — Load falls back to this reader when a
// name is not in the segment dictionary — and the first write to a legacy
// series imports its replayed state into the segment log as a single
// atomic frame, then renames the file to "<name>.wal.migrated". A crash
// between the import fsync and the rename leaves both behind; the segment
// dictionary wins from then on and the stale file is inert.

const legacySuffix = ".wal"

func (s *Store) legacyPath(name string) string {
	return filepath.Join(s.dir, name+legacySuffix)
}

// legacyRecord is one legacy WAL line.
type legacyRecord struct {
	Kind      string    `json:"kind"` // "meta" | "points" | "label"
	Meta      *Meta     `json:"meta,omitempty"`
	Values    []float64 `json:"values,omitempty"`
	Start     int       `json:"start,omitempty"`
	End       int       `json:"end,omitempty"`
	Anomalous bool      `json:"anomalous,omitempty"`
}

// legacyLoad replays one legacy JSON-lines log. A torn trailing line (crash
// mid-write) is ignored; any other malformed or checksum-failing record is
// an error wrapping ErrCorrupt.
func (s *Store) legacyLoad(name string) (*Loaded, error) {
	f, err := os.Open(s.legacyPath(name))
	if err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	defer f.Close()

	var out *Loaded
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		payload, err := verifyLine(line)
		if err != nil {
			// A torn final line is expected after a crash; anything earlier
			// is corruption.
			if isLastLine(sc) {
				break
			}
			return nil, fmt.Errorf("tsdb: %s line %d: %w", name, lineNo, err)
		}
		var r legacyRecord
		if err := json.Unmarshal(payload, &r); err != nil {
			if isLastLine(sc) {
				break
			}
			return nil, fmt.Errorf("tsdb: %s line %d: %w (%w)", name, lineNo, err, ErrCorrupt)
		}
		switch r.Kind {
		case "meta":
			if out != nil {
				return nil, fmt.Errorf("tsdb: %s line %d: duplicate meta (%w)", name, lineNo, ErrCorrupt)
			}
			if r.Meta == nil {
				return nil, fmt.Errorf("tsdb: %s line %d: empty meta (%w)", name, lineNo, ErrCorrupt)
			}
			out = &Loaded{Meta: *r.Meta}
		case "points":
			if out == nil {
				return nil, fmt.Errorf("tsdb: %s line %d: points before meta (%w)", name, lineNo, ErrCorrupt)
			}
			out.Values = append(out.Values, r.Values...)
			for range r.Values {
				out.Labels = append(out.Labels, false)
			}
		case "label":
			if out == nil {
				return nil, fmt.Errorf("tsdb: %s line %d: label before meta (%w)", name, lineNo, ErrCorrupt)
			}
			if r.End > len(out.Labels) {
				return nil, fmt.Errorf("tsdb: %s line %d: label [%d, %d) beyond %d points (%w)",
					name, lineNo, r.Start, r.End, len(out.Labels), ErrCorrupt)
			}
			for i := r.Start; i < r.End; i++ {
				out.Labels[i] = r.Anomalous
			}
		default:
			return nil, fmt.Errorf("tsdb: %s line %d: unknown record kind %q (%w)", name, lineNo, r.Kind, ErrCorrupt)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tsdb: %s: %w", name, err)
	}
	if out == nil {
		return nil, fmt.Errorf("tsdb: %s: log has no meta record (%w)", name, ErrCorrupt)
	}
	return out, nil
}

// verifyLine strips and checks a legacy line's checksum prefix
// ("xxxxxxxx {json}"), returning the JSON payload. Lines starting with '{'
// are pre-checksum records and are accepted as-is.
func verifyLine(line []byte) ([]byte, error) {
	if line[0] == '{' {
		return line, nil // legacy unchecksummed record
	}
	if len(line) < 10 || line[8] != ' ' {
		return nil, fmt.Errorf("malformed checksum prefix (%w)", ErrCorrupt)
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("malformed checksum prefix: %v (%w)", err, ErrCorrupt)
	}
	payload := line[9:]
	if got := crc32.Checksum(payload, castagnoli); got != uint32(want) {
		return nil, fmt.Errorf("checksum mismatch: recorded %08x, computed %08x (%w)", want, got, ErrCorrupt)
	}
	return payload, nil
}

// isLastLine reports whether the scanner has no further tokens; used to
// distinguish a torn tail from mid-log corruption.
func isLastLine(sc *bufio.Scanner) bool { return !sc.Scan() }

// legacyQuarantine renames a damaged legacy log aside to
// "<name>.wal.corrupt" so List no longer returns it and an operator can
// inspect or repair it offline (it is plain JSON lines).
func (s *Store) legacyQuarantine(name string) (string, error) {
	path := s.legacyPath(name)
	dst := path + ".corrupt"
	if err := os.Rename(path, dst); err != nil {
		return "", fmt.Errorf("tsdb: quarantine %s: %w", name, err)
	}
	return dst, nil
}

// migrateLegacy imports a legacy log into the segment WAL before the first
// write to its series: replay the JSON lines, commit the whole state as one
// frame-atomic import, then rename the file aside. Reads never migrate —
// only writes — so Open and Load stay read-only. ctx bounds the wait for the
// import's commit; an abandoned import still commits and the segment
// dictionary wins from then on.
func (s *Store) migrateLegacy(ctx context.Context, name string) error {
	sh := s.shardFor(name)
	sh.mu.Lock()
	_, ok := sh.byName[name]
	sh.mu.Unlock()
	if ok {
		return nil // already segment-resident; the dictionary wins
	}
	path := s.legacyPath(name)
	if _, err := os.Stat(path); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("tsdb: %w", err)
	}
	s.migrateMu.Lock()
	defer s.migrateMu.Unlock()
	sh.mu.Lock()
	_, ok = sh.byName[name]
	sh.mu.Unlock()
	if ok {
		return nil // another writer migrated while we waited
	}
	loaded, err := s.legacyLoad(name)
	if err != nil {
		return fmt.Errorf("migrating legacy log: %w", err)
	}
	meta := loaded.Meta
	meta.Name = name
	err = s.send(ctx, &request{
		op: reqImport, name: name, meta: meta,
		values: loaded.Values, labels: loaded.Labels,
	})
	if err != nil {
		return fmt.Errorf("migrating legacy log: %w", err)
	}
	if err := os.Rename(path, path+".migrated"); err != nil {
		return fmt.Errorf("migrating legacy log: %w", err)
	}
	return nil
}

// LegacyPointsLineSize returns the byte size of one legacy JSON-lines
// points record carrying values — checksum prefix, JSON payload, newline.
// Benchmarks use it to compare segment bytes/point against what the legacy
// format would have written for the same appends.
func LegacyPointsLineSize(values []float64) int {
	payload, err := json.Marshal(legacyRecord{Kind: "points", Values: values})
	if err != nil {
		return 0
	}
	return 8 + 1 + len(payload) + 1
}
