package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"opprentice/internal/engine"
)

// Client is a typed Go client for the opprenticed HTTP API. The zero value
// is not usable; construct it with NewClient. Every call is one attempt: a
// client never re-sends, so a points POST cannot double-append, and a 429 or
// 503 comes back to the caller, whose APIError carries the status.
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a client for the service at baseURL (e.g.
// "http://localhost:8080"). httpClient may be nil for sane defaults.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 5 * time.Minute}
	}
	return &Client{base: baseURL, http: httpClient}
}

// APIError is a non-2xx response from the service.
type APIError struct {
	StatusCode int
	Message    string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("opprenticed: %d: %s", e.StatusCode, e.Message)
}

// do performs one JSON round trip; in and out may be nil.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{StatusCode: resp.StatusCode, Message: string(data)}
		var er errorResponse
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			apiErr.Message = er.Error
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// Ready fetches the readiness probe: whether every series serves
// full-fidelity verdicts, and the degraded/quarantined ones by name. A
// not-ready service answers 503; the readiness body is still parsed and
// returned alongside the error so callers can name the offenders.
func (c *Client) Ready(ctx context.Context) (engine.Readiness, error) {
	var r engine.Readiness
	err := c.do(ctx, http.MethodGet, "/v1/readyz", nil, &r)
	if err != nil {
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusServiceUnavailable {
			_ = json.Unmarshal([]byte(apiErr.Message), &r)
		}
	}
	return r, err
}

// List returns the managed series names.
func (c *Client) List(ctx context.Context) ([]string, error) {
	var out map[string][]string
	if err := c.do(ctx, http.MethodGet, "/v1/series", nil, &out); err != nil {
		return nil, err
	}
	return out["series"], nil
}

// Create registers a new series.
func (c *Client) Create(ctx context.Context, name string, req CreateRequest) error {
	return c.do(ctx, http.MethodPut, "/v1/series/"+url.PathEscape(name), req, nil)
}

// Status fetches one series' status.
func (c *Client) Status(ctx context.Context, name string) (Status, error) {
	var st Status
	err := c.do(ctx, http.MethodGet, "/v1/series/"+url.PathEscape(name), nil, &st)
	return st, err
}

// Append streams points and returns the verdicts (empty until trained).
func (c *Client) Append(ctx context.Context, name string, points []Point) (PointsResponse, error) {
	var out PointsResponse
	err := c.do(ctx, http.MethodPost, "/v1/series/"+url.PathEscape(name)+"/points",
		PointsRequest{Points: points}, &out)
	return out, err
}

// Label marks or clears anomalous windows.
func (c *Client) Label(ctx context.Context, name string, windows []LabelWindow) error {
	return c.do(ctx, http.MethodPost, "/v1/series/"+url.PathEscape(name)+"/labels",
		LabelsRequest{Windows: windows}, nil)
}

// Train (re)trains the series' classifier and returns the resulting cThld.
func (c *Client) Train(ctx context.Context, name string) (float64, error) {
	var out struct {
		CThld float64 `json:"cthld"`
	}
	err := c.do(ctx, http.MethodPost, "/v1/series/"+url.PathEscape(name)+"/train", nil, &out)
	return out.CThld, err
}

// Models lists the series with published model artifacts.
func (c *Client) Models(ctx context.Context) ([]string, error) {
	var out map[string][]string
	if err := c.do(ctx, http.MethodGet, "/v1/models", nil, &out); err != nil {
		return nil, err
	}
	return out["series"], nil
}

// ModelManifest fetches one series' model generation index.
func (c *Client) ModelManifest(ctx context.Context, name string) (ModelManifest, error) {
	var man ModelManifest
	err := c.do(ctx, http.MethodGet, "/v1/models/"+url.PathEscape(name), nil, &man)
	return man, err
}

// RollbackModel rolls the series' served model back one generation and
// returns the updated manifest.
func (c *Client) RollbackModel(ctx context.Context, name string) (ModelManifest, error) {
	var man ModelManifest
	err := c.do(ctx, http.MethodPost, "/v1/models/"+url.PathEscape(name)+"/rollback", nil, &man)
	return man, err
}

// Queries fetches the pending label queries, most uncertain first; a
// non-empty series narrows to that series.
func (c *Client) Queries(ctx context.Context, series string) ([]Query, error) {
	path := "/v1/queries"
	if series != "" {
		path += "?series=" + url.QueryEscape(series)
	}
	var out map[string][]Query
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return out["queries"], nil
}

// AnswerQuery resolves one pending query as a durable label action.
func (c *Client) AnswerQuery(ctx context.Context, series string, start, end int, anomalous bool) error {
	return c.do(ctx, http.MethodPost, "/v1/queries/"+url.PathEscape(series)+"/answer",
		AnswerRequest{Start: start, End: end, Anomalous: anomalous}, nil)
}

// Alarms fetches the alarms raised after since (zero time = all retained).
func (c *Client) Alarms(ctx context.Context, name string, since time.Time) ([]Alarm, error) {
	path := "/v1/series/" + url.PathEscape(name) + "/alarms"
	if !since.IsZero() {
		path += "?since=" + url.QueryEscape(since.UTC().Format(time.RFC3339))
	}
	var out map[string][]Alarm
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return out["alarms"], nil
}
