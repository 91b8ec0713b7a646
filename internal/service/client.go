package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client is the serving fabric's one calling side: the chaos fleet's
// evaluator and the load generator reach a router or a bare replica
// through it, over one *http.Client and one retry loop (retry). The
// router is not a Client: its failover is a ring decision
// (Router.failover), not a pause and a resend. Safe for concurrent use.
type Client struct {
	base string
	http *http.Client
}

const (
	// clientTimeout caps one round trip, above the router's forward
	// timeout, so a slow job fails at the fabric, not in the caller.
	clientTimeout = 5 * time.Minute
	// maxAttempts bounds the replies one Post or Batch waits out.
	maxAttempts = 240
	// retryPause is the pause before a resend when the reply carries no
	// Retry-After hint (a /batch item carries none).
	retryPause = 25 * time.Millisecond
	// maxRetryPause caps a Retry-After hint.
	maxRetryPause = 2 * time.Second
)

// NewClient builds a client for the router or replica at base
// (http://host:port).
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), http: &http.Client{Timeout: clientTimeout}}
}

// Post sends body to path (/solve or /batch) under X-Request-Id reqID
// (none when empty) and answers with the first reply whose status is
// final, its body, and how many retryable replies came before it. When
// the attempts run out, the last retryable reply comes back with an
// error. A nil response means nothing came back (see the function Post).
func (c *Client) Post(ctx context.Context, path, reqID string, body []byte) (resp *http.Response, respBody []byte, retries int, err error) {
	retries, err = retry(ctx, func() (int, string, error) {
		resp, respBody, err = Post(ctx, c.http, c.base+path, reqID, body)
		if err != nil {
			return 0, "", err
		}
		return resp.StatusCode, resp.Header.Get("Retry-After"), nil
	})
	return resp, respBody, retries, err
}

// Batch answers reqs through POST /batch with one item per request, in
// request order. A retryable status for the whole batch is retried as
// Post retries it; the items that come back retryable inside a 200 are
// sent again as one smaller /batch (which a router re-shards past a dead
// replica), each answer landing in its request's slot. When the attempts
// run out the retryable items keep their last answer and Batch reports
// an error.
func (c *Client) Batch(ctx context.Context, reqs []JobRequest) ([]BatchItem, error) {
	items := make([]BatchItem, len(reqs))
	slots := make([]int, len(reqs)) // the slot of each request in send
	for i := range slots {
		slots[i] = i
	}
	send := reqs
	_, err := retry(ctx, func() (int, string, error) {
		body, err := json.Marshal(send)
		if err != nil {
			return 0, "", err
		}
		resp, respBody, err := Post(ctx, c.http, c.base+"/batch", "", body)
		if err != nil {
			return 0, "", err
		}
		if code := resp.StatusCode; code != http.StatusOK {
			if retryable(code) {
				return code, resp.Header.Get("Retry-After"), nil
			}
			return 0, "", fmt.Errorf("batch status %d: %s", code, respBody)
		}
		got, err := DecodeBatchReply(respBody, len(send))
		if err != nil {
			return 0, "", fmt.Errorf("batch %w", err)
		}
		status, open := http.StatusOK, slots[:0]
		var again []JobRequest
		for k, it := range got {
			items[slots[k]] = it
			if retryable(it.Code) {
				status = it.Code
				open = append(open, slots[k])
				again = append(again, send[k])
			}
		}
		slots, send = open, again
		return status, "", nil
	})
	return items, err
}

// Get reads path's reply body; any status but 200 is an error. It is not
// retried.
func (c *Client) Get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// retry is the client's one retry loop. It calls send until send reports
// a status that is not retryable or an error, pausing between calls for
// send's Retry-After hint in whole seconds (capped at maxRetryPause) or
// retryPause without one, until ctx ends or maxAttempts statuses were
// retryable, and returns how many retryable statuses it waited out.
func retry(ctx context.Context, send func() (status int, retryAfter string, err error)) (retries int, err error) {
	for {
		status, retryAfter, err := send()
		if err != nil || !retryable(status) {
			return retries, err
		}
		retries++
		if retries == maxAttempts {
			return retries, fmt.Errorf("still status %d after %d attempts", status, maxAttempts)
		}
		pause := retryPause
		if s, err := strconv.Atoi(retryAfter); err == nil && s > 0 {
			pause = min(time.Duration(s)*time.Second, maxRetryPause)
		}
		t := time.NewTimer(pause)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return retries, ctx.Err()
		}
	}
}

// retryable reports whether a status says the same request may succeed
// later: queue saturation (429), a draining replica or an empty ring
// (503), a forward that failed while the ring re-shards (502). 4xx
// validation errors and 504 deadlines are permanent for the same request.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests ||
		status == http.StatusServiceUnavailable ||
		status == http.StatusBadGateway
}

// Post sends body as one JSON POST to url (a /solve or /batch endpoint),
// under X-Request-Id reqID unless that is empty, and reads the whole
// reply; the response comes back with its body closed. An error with a
// nil response means nothing came back; with a response, that the reply
// was cut short and only its status and headers can be used. It makes
// one round trip on the given client: Client's methods retry through it,
// and the router forwards with it on its own connection pool.
func Post(ctx context.Context, client *http.Client, url, reqID string, body []byte) (*http.Response, []byte, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		hr.Header.Set("X-Request-Id", reqID)
	}
	resp, err := client.Do(hr)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	return resp, respBody, err
}

// DecodeBatchReply is DecodeBatch's counterpart on the calling side: it
// parses a 200 /batch reply and enforces exactly want items, one per job.
func DecodeBatchReply(body []byte, want int) ([]BatchItem, error) {
	var items []BatchItem
	if err := json.Unmarshal(body, &items); err != nil {
		return nil, fmt.Errorf("reply does not parse: %w", err)
	}
	if len(items) != want {
		return nil, fmt.Errorf("answered %d items for %d jobs", len(items), want)
	}
	return items, nil
}
