package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"opprentice/internal/tsdb"
)

// JSON-lines upgrade. Releases before the segmented WAL kept one
// "<name>.wal" file per series in the data directory: one self-describing
// JSON object per line, from the checksummed releases on prefixed with the
// CRC32-C of the payload ("xxxxxxxx {json}"). opprenticed does not read them
// and refuses to start while one is present; `wal migrate` is the one place
// that still knows the format.

const jsonlSuffix = ".wal"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// jsonlMeta is tsdb.Meta, field for field, under the names the JSON-lines
// format gave them.
type jsonlMeta struct {
	Name            string    `json:"name"`
	Start           time.Time `json:"start"`
	IntervalSeconds int       `json:"interval_seconds"`
	Recall          float64   `json:"recall"`
	Precision       float64   `json:"precision"`
	Trees           int       `json:"trees"`
	WebhookURL      string    `json:"webhook_url,omitempty"`
	RetrainEvery    int       `json:"retrain_every,omitempty"`
	Predictor       uint8     `json:"predictor,omitempty"`
	EVTQ            float64   `json:"evt_q,omitempty"`
}

// jsonlRecord is one line.
type jsonlRecord struct {
	Kind      string     `json:"kind"` // "meta" | "points" | "label"
	Meta      *jsonlMeta `json:"meta,omitempty"`
	Values    []float64  `json:"values,omitempty"`
	Start     int        `json:"start,omitempty"`
	End       int        `json:"end,omitempty"`
	Anomalous bool       `json:"anomalous,omitempty"`
}

// readJSONLines replays one JSON-lines log. A torn final line (crash
// mid-write) is ignored; any other malformed, checksum-failing or
// out-of-sequence record is an error.
func readJSONLines(r io.Reader) (*tsdb.Loaded, error) {
	var out *tsdb.Loaded
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec jsonlRecord
		payload, err := verifyLine(line)
		if err == nil {
			err = json.Unmarshal(payload, &rec)
		}
		if err != nil {
			if !sc.Scan() {
				break // nothing follows: the torn tail of a crash
			}
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		switch rec.Kind {
		case "meta":
			if out != nil {
				return nil, fmt.Errorf("line %d: duplicate meta", lineNo)
			}
			if rec.Meta == nil {
				return nil, fmt.Errorf("line %d: empty meta", lineNo)
			}
			out = &tsdb.Loaded{Meta: tsdb.Meta(*rec.Meta)}
		case "points":
			if out == nil {
				return nil, fmt.Errorf("line %d: points before meta", lineNo)
			}
			out.Values = append(out.Values, rec.Values...)
			out.Labels = append(out.Labels, make([]bool, len(rec.Values))...)
		case "label":
			if out == nil {
				return nil, fmt.Errorf("line %d: label before meta", lineNo)
			}
			if rec.Start < 0 || rec.End > len(out.Labels) {
				return nil, fmt.Errorf("line %d: label [%d, %d) beyond %d points", lineNo, rec.Start, rec.End, len(out.Labels))
			}
			for i := rec.Start; i < rec.End; i++ {
				out.Labels[i] = rec.Anomalous
			}
		default:
			return nil, fmt.Errorf("line %d: unknown record kind %q", lineNo, rec.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if out == nil {
		return nil, fmt.Errorf("log has no meta record")
	}
	return out, nil
}

// verifyLine strips and checks a line's checksum prefix, returning the JSON
// payload. Lines starting with '{' predate the checksum and pass as they are.
func verifyLine(line []byte) ([]byte, error) {
	if line[0] == '{' {
		return line, nil
	}
	if len(line) < 10 || line[8] != ' ' {
		return nil, fmt.Errorf("malformed checksum prefix")
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("malformed checksum prefix: %v", err)
	}
	payload := line[9:]
	if got := crc32.Checksum(payload, castagnoli); got != uint32(want) {
		return nil, fmt.Errorf("checksum mismatch: recorded %08x, computed %08x", want, got)
	}
	return payload, nil
}

// walMigrate imports every "<name>.wal" in dataDir into the segment store —
// one frame per series, so a crash leaves a series wholly imported or not at
// all — and renames the file to "<name>.wal.migrated"; the rename is the
// commit point. A name the store already holds is not imported again: the
// store's copy wins and the file is only set aside, which is also what makes
// a rerun after a crash between import and rename safe. A log that does not
// parse is refused and left untouched; the others still migrate and the
// returned error counts the refusals. opprenticed must not be running on
// dataDir.
func walMigrate(w io.Writer, dataDir string) error {
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		return err
	}
	var files []string
	for _, e := range entries {
		if e.Type().IsRegular() && strings.HasSuffix(e.Name(), jsonlSuffix) {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		fmt.Fprintln(w, "no *.wal files, nothing to migrate")
		return nil
	}
	store, err := tsdb.Open(dataDir)
	if err != nil {
		return err
	}
	defer store.Close()
	refused := 0
	for _, file := range files {
		name := strings.TrimSuffix(file, jsonlSuffix)
		path := filepath.Join(dataDir, file)
		outcome := fmt.Sprintf("%q is already in the segment store, which wins; file set aside unread", name)
		if _, err := store.Load(name); errors.Is(err, fs.ErrNotExist) {
			points, err := importJSONLines(store, name, path)
			if err != nil {
				fmt.Fprintf(w, "%s: refused, file left untouched: %v\n", file, err)
				refused++
				continue
			}
			outcome = fmt.Sprintf("imported %d points", points)
		}
		if err := os.Rename(path, path+".migrated"); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: %s\n", file, outcome)
	}
	if err := store.Close(); err != nil {
		return err
	}
	if refused > 0 {
		return fmt.Errorf("wal migrate: %d of %d logs refused", refused, len(files))
	}
	return nil
}

// importJSONLines parses the log at path and imports it as series name (the
// file name wins over the name inside the meta record), returning its length
// in points.
func importJSONLines(store *tsdb.Store, name, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	loaded, err := readJSONLines(f)
	if err != nil {
		return 0, err
	}
	loaded.Meta.Name = name
	return len(loaded.Values), store.Import(context.Background(), loaded.Meta, loaded.Values, loaded.Labels)
}
