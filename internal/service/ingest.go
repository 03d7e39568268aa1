package service

// Streaming bulk ingest: a binary, length-delimited alternative to POST
// points for high-volume feeds. One persistent POST /v1/ingest request
// carries any number of point batches for any number of series, so the
// per-request JSON and HTTP overhead is paid once per connection instead of
// once per batch.
//
// The body is a sequence of length-delimited frames:
//
//	stream  := frame*
//	frame   := uvarint(len(payload)) | payload
//	payload := op(1B) | ...
//
//	op 0x01 bind:   uvarint(streamID) | name bytes (rest of the payload)
//	op 0x02 points: uvarint(streamID) | uvarint(count) | count × float64 LE
//
// A bind declares a small integer handle for a series name; subsequent
// points frames reference the handle, so a million-point session does not
// resend the name a million times — mirroring the WAL's interned series
// dictionary. Values are raw little-endian float64s appended at the series'
// next slots (the implicit-timestamp fast path of the JSON API).
//
// Frames apply in flush groups through engine.AppendBulk: one run per series,
// its frames in stream order with POST points' semantics (admission, WAL
// append, verdicts), distinct series on distinct cores. The first failing
// batch aborts the stream: the response reports the error and how much
// committed; nothing after it applies. Bulk ingest is for backfill and relay
// feeds: verdicts are not streamed back, only counts of points and alarms.

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"

	"opprentice/internal/engine"
)

const (
	ingestOpBind   = 0x01
	ingestOpPoints = 0x02

	// maxIngestFrame bounds one frame's payload; bigger batches must be
	// split by the sender (Client.StreamPoints does).
	maxIngestFrame = 8 << 20
	// ingestContentType identifies the binary framing.
	ingestContentType = "application/x-opprentice-ingest"
)

// IngestSummary is the response of POST /v1/ingest.
type IngestSummary struct {
	// Appended is the total number of points committed across all batches.
	Appended int `json:"appended"`
	// Batches is how many points frames were applied.
	Batches int `json:"batches"`
	// Alarms is how many of the appended points were judged anomalous.
	Alarms int `json:"alarms"`
}

// Flush-group bounds for frame coalescing: a group never exceeds
// maxIngestGroupBatches points frames or maxIngestGroupPoints decoded points
// (one maximum-size frame's worth), keeping the arena memory bounded.
const (
	maxIngestGroupBatches = 64
	maxIngestGroupPoints  = 1 << 20
)

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	br := bufio.NewReaderSize(r.Body, 64<<10)
	names := make(map[uint64]string)
	var sum IngestSummary
	bufp := s.vbufs.Get().(*[]engine.Verdict)
	defer s.vbufs.Put(bufp)
	var (
		payload []byte
		arena   []engine.Point       // decoded points of the pending group
		group   []engine.SeriesBatch // pending batches, aliasing arena
	)

	// flush applies the pending group through the engine's bulk path — one
	// striped admission handshake and one deadline per group instead of per
	// frame. Pipelined senders coalesce up to maxIngestGroupBatches frames
	// per flush; a trickling sender flushes after every frame (the Buffered
	// check below), so its per-point latency is unchanged. On failure it
	// writes the error response (everything before the failing batch is
	// committed and summarized) and reports false.
	flush := func() bool {
		if len(group) == 0 {
			return true
		}
		ctx, cancel := context.WithTimeout(r.Context(), appendTimeout)
		bsum, vbuf, err := s.eng.AppendBulk(ctx, group, *bufp)
		cancel()
		*bufp = vbuf
		sum.Appended += bsum.Appended
		sum.Batches += bsum.Batches
		sum.Alarms += bsum.Alarms
		group = group[:0]
		arena = arena[:0]
		if err != nil {
			s.failIngest(w, sum, statusOf(err), err)
			return false
		}
		return true
	}
	// abort reports a malformed stream: pending complete frames still apply
	// first, so the summary reflects everything committed.
	abort := func(code int, err error) {
		if flush() {
			s.failIngest(w, sum, code, err)
		}
	}

	for {
		n, err := binary.ReadUvarint(br)
		if err == io.EOF {
			break // clean end of stream
		}
		if err != nil || n == 0 || n > maxIngestFrame {
			abort(http.StatusBadRequest, fmt.Errorf("bad ingest frame length (%v)", err))
			return
		}
		if uint64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			abort(http.StatusBadRequest, fmt.Errorf("truncated ingest frame: %w", err))
			return
		}
		op := payload[0]
		id, vn := binary.Uvarint(payload[1:])
		if vn <= 0 {
			abort(http.StatusBadRequest, errors.New("bad ingest stream id"))
			return
		}
		body := payload[1+vn:]
		switch op {
		case ingestOpBind:
			if len(body) == 0 {
				abort(http.StatusBadRequest, errors.New("bind frame without a name"))
				return
			}
			names[id] = string(body)
		case ingestOpPoints:
			name, ok := names[id]
			if !ok {
				abort(http.StatusBadRequest, fmt.Errorf("points frame for unbound stream id %d", id))
				return
			}
			// The count is checked against the payload by division: count*8
			// wraps for counts of 2^61 and more.
			count, cn := binary.Uvarint(body)
			if cn <= 0 || (len(body)-cn)%8 != 0 || uint64((len(body)-cn)/8) != count {
				abort(http.StatusBadRequest,
					fmt.Errorf("points frame for %q: count %d does not match payload", name, count))
				return
			}
			if len(group) >= maxIngestGroupBatches || len(arena)+int(count) > maxIngestGroupPoints {
				if !flush() {
					return
				}
			}
			body = body[cn:]
			lo := len(arena)
			for len(body) > 0 {
				arena = append(arena, engine.Point{
					Value: math.Float64frombits(binary.LittleEndian.Uint64(body)),
				})
				body = body[8:]
			}
			group = append(group, engine.SeriesBatch{Name: name, Points: arena[lo:]})
		default:
			abort(http.StatusBadRequest, fmt.Errorf("unknown ingest op %#x", op))
			return
		}
		// Nothing more buffered: the next read would block on the network,
		// so apply what we have instead of sitting on committed-but-unacked
		// points while the sender trickles.
		if br.Buffered() == 0 && !flush() {
			return
		}
	}
	if !flush() {
		return
	}
	writeJSON(w, http.StatusOK, sum)
}

// failIngest reports a mid-stream failure: the uniform error body plus the
// partial summary, so the sender knows exactly how much committed before the
// stream died.
func (s *Server) failIngest(w http.ResponseWriter, sum IngestSummary, code int, err error) {
	s.metrics.requestErrors.Add(1)
	writeJSON(w, code, struct {
		errorResponse
		IngestSummary
	}{errorResponse{Error: err.Error()}, sum})
}

// PointStream is one live bulk-ingest session opened by Client.StreamPoints.
// Send and Close must be called from one goroutine.
type PointStream struct {
	pw      *io.PipeWriter
	bw      *bufio.Writer
	ids     map[string]uint64
	nextID  uint64
	scratch []byte
	done    chan streamResult
	err     error
}

type streamResult struct {
	sum IngestSummary
	err error
}

// StreamPoints opens a streaming bulk-ingest session: one persistent POST
// /v1/ingest request whose body is fed by subsequent Send calls. The
// returned stream must be Closed to learn the outcome; ctx cancellation
// aborts the request.
func (c *Client) StreamPoints(ctx context.Context) (*PointStream, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/ingest", pr)
	if err != nil {
		pw.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", ingestContentType)
	st := &PointStream{
		pw:   pw,
		bw:   bufio.NewWriterSize(pw, 64<<10),
		ids:  make(map[string]uint64),
		done: make(chan streamResult, 1),
	}
	go func() {
		resp, err := c.http.Do(req)
		if err != nil {
			// Unblock a Send stuck writing into the abandoned pipe.
			pr.CloseWithError(err)
			st.done <- streamResult{err: err}
			return
		}
		defer resp.Body.Close()
		data, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		var res streamResult
		if resp.StatusCode/100 != 2 {
			apiErr := &APIError{StatusCode: resp.StatusCode, Message: string(data)}
			var er errorResponse
			if jsonUnmarshal(data, &er) && er.Error != "" {
				apiErr.Message = er.Error
			}
			res.err = apiErr
			// A mid-stream failure means the server stopped reading; release
			// the writer side so Send fails fast instead of blocking forever.
			pr.CloseWithError(apiErr)
		} else if rerr != nil {
			res.err = rerr
		}
		_ = jsonUnmarshal(data, &res.sum)
		st.done <- res
	}()
	return st, nil
}

// Send appends one batch of values to the named series at its next slots.
// Batches larger than the server's frame cap are split transparently. The
// first transport or server failure sticks: every later Send reports it, and
// Close returns the definitive outcome.
func (st *PointStream) Send(name string, values []float64) error {
	if st.err != nil {
		return st.err
	}
	id, ok := st.ids[name]
	if !ok {
		st.nextID++
		id = st.nextID
		st.ids[name] = id
		st.scratch = st.scratch[:0]
		st.scratch = append(st.scratch, ingestOpBind)
		st.scratch = binary.AppendUvarint(st.scratch, id)
		st.scratch = append(st.scratch, name...)
		if err := st.writeFrame(); err != nil {
			return err
		}
	}
	const maxPer = (maxIngestFrame - 64) / 8
	for len(values) > 0 {
		batch := values
		if len(batch) > maxPer {
			batch = batch[:maxPer]
		}
		values = values[len(batch):]
		st.scratch = st.scratch[:0]
		st.scratch = append(st.scratch, ingestOpPoints)
		st.scratch = binary.AppendUvarint(st.scratch, id)
		st.scratch = binary.AppendUvarint(st.scratch, uint64(len(batch)))
		for _, v := range batch {
			st.scratch = binary.LittleEndian.AppendUint64(st.scratch, math.Float64bits(v))
		}
		if err := st.writeFrame(); err != nil {
			return err
		}
	}
	return nil
}

// writeFrame emits st.scratch as one length-delimited frame.
func (st *PointStream) writeFrame() error {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(st.scratch)))
	if _, err := st.bw.Write(hdr[:n]); err == nil {
		_, err = st.bw.Write(st.scratch)
		if err == nil {
			return nil
		}
		st.err = err
	} else {
		st.err = err
	}
	return st.err
}

// Close flushes the stream, ends the request, and returns the server's
// summary of everything committed. It must be called exactly once; after an
// error it still returns the partial summary the server reported.
func (st *PointStream) Close() (IngestSummary, error) {
	flushErr := st.bw.Flush()
	st.pw.Close()
	res := <-st.done
	if res.err == nil && flushErr != nil && st.err == nil {
		res.err = flushErr
	}
	return res.sum, res.err
}

// jsonUnmarshal reports whether data parsed into v (tolerating empty
// bodies), keeping the call sites above readable.
func jsonUnmarshal(data []byte, v any) bool {
	return len(data) > 0 && json.Unmarshal(data, v) == nil
}
