package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"resilience/internal/chaos"
	"resilience/internal/service"
)

// Client evaluates scenario batches against a live fleet, one POST
// /batch per batch: a resilience-router (which forwards one sub-batch to
// each replica that owns some of the scenarios) or a bare resilienced
// replica — both serve the same /batch contract, and there is no other
// path. Backpressured items (service.Retryable: 429s and transient
// 502/503s) are retried per item through /solve, so replica churn and
// queue saturation cost time, never verdicts. Safe for concurrent use.
type Client struct {
	// Base is the router or replica base URL (http://host:port).
	Base string
	// BreakInvariant is sent as each job's break_invariant field.
	BreakInvariant string

	client *http.Client
}

const (
	// maxRetries bounds the retries of one backpressured batch or item.
	maxRetries = 240
	// retrySleep is the pause between retries.
	retrySleep = 25 * time.Millisecond
)

// NewClient builds an HTTP evaluator for the fleet at base.
func NewClient(base, breakInvariant string) *Client {
	return &Client{
		Base:           strings.TrimRight(base, "/"),
		BreakInvariant: breakInvariant,
		client:         &http.Client{Timeout: 5 * time.Minute},
	}
}

// Evaluate implements Evaluator: one round trip for the whole batch,
// then per-item retry of backpressured responses.
func (c *Client) Evaluate(ctx context.Context, scenarios []*chaos.Scenario) ([]string, error) {
	if err := checkBreak(c.BreakInvariant); err != nil {
		return nil, err
	}
	reqs := make([]service.JobRequest, len(scenarios))
	for i, s := range scenarios {
		reqs[i] = service.JobRequest{Scenario: s.Args(), Verdict: true, BreakInvariant: c.BreakInvariant}
	}
	items, err := c.postBatch(ctx, reqs)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(reqs))
	for i := range reqs {
		line, err := c.finishItem(ctx, reqs[i], items[i])
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", reqs[i].Scenario, err)
		}
		out[i] = line
	}
	return out, nil
}

// postBatch submits the batch, retrying whole-batch backpressure (a
// saturated router rejects the batch before routing any of it).
func (c *Client) postBatch(ctx context.Context, reqs []service.JobRequest) ([]service.BatchItem, error) {
	body, err := json.Marshal(reqs)
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		resp, respBody, err := service.Post(ctx, c.client, c.Base+"/batch", "", body)
		if err != nil {
			return nil, err
		}
		switch code := resp.StatusCode; {
		case code == http.StatusOK:
			items, err := service.DecodeBatchReply(respBody, len(reqs))
			if err != nil {
				return nil, fmt.Errorf("fleet: batch %w", err)
			}
			return items, nil
		case service.Retryable(code) && attempt < maxRetries:
			if err := sleepCtx(ctx, retrySleep); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("fleet: batch status %d: %s", code, respBody)
		}
	}
}

// finishItem extracts one item's verdict line, retrying backpressured
// items individually through /solve until they land or the retry budget
// is gone. Retries re-enter through the router's normal routing path, so
// an item whose replica died mid-campaign re-shards to a survivor.
func (c *Client) finishItem(ctx context.Context, req service.JobRequest, item service.BatchItem) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	for attempt := 0; ; attempt++ {
		if item.Code == http.StatusOK {
			var res service.JobResult
			if err := json.Unmarshal(item.Body, &res); err != nil {
				return "", fmt.Errorf("fleet: bad job result: %w", err)
			}
			if res.Verdict == "" {
				return "", fmt.Errorf("fleet: job result carries no verdict: %s", item.Body)
			}
			return res.Verdict, nil
		}
		if !service.Retryable(item.Code) || attempt >= maxRetries {
			return "", fmt.Errorf("fleet: item status %d: %s", item.Code, item.Body)
		}
		if err := sleepCtx(ctx, retrySleep); err != nil {
			return "", err
		}
		resp, respBody, err := service.Post(ctx, c.client, c.Base+"/solve", "", body)
		if err != nil {
			return "", err
		}
		item = service.BatchItem{Code: resp.StatusCode, Body: respBody}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
