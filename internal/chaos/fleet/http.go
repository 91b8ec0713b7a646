package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"resilience/internal/chaos"
	"resilience/internal/service"
)

// Client evaluates scenario batches against a live fleet through
// service.Client.Batch: one POST /batch per batch, to a resilience-router
// (which forwards one sub-batch to each replica that owns some of the
// scenarios) or to a bare resilienced replica — both serve the same
// /batch contract, and there is no other path. Backpressured items come
// back from Batch re-sent as one smaller /batch, so replica churn and
// queue saturation cost time, never verdicts. Safe for concurrent use.
type Client struct {
	breakInvariant string // sent as each job's break_invariant field
	svc            *service.Client
}

// NewClient builds an HTTP evaluator for the fleet at base
// (http://host:port).
func NewClient(base, breakInvariant string) *Client {
	return &Client{breakInvariant: breakInvariant, svc: service.NewClient(base)}
}

// Evaluate implements Evaluator: the scenarios as verdict-bearing job
// requests, one Batch, and each item's verdict line.
func (c *Client) Evaluate(ctx context.Context, scenarios []*chaos.Scenario) ([]string, error) {
	if err := checkBreak(c.breakInvariant); err != nil {
		return nil, err
	}
	reqs := make([]service.JobRequest, len(scenarios))
	for i, s := range scenarios {
		reqs[i] = service.JobRequest{Scenario: s.Args(), Verdict: true, BreakInvariant: c.breakInvariant}
	}
	items, err := c.svc.Batch(ctx, reqs)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	out := make([]string, len(items))
	for i, it := range items {
		if it.Code != http.StatusOK {
			return nil, fmt.Errorf("fleet: scenario %q: item status %d: %s", reqs[i].Scenario, it.Code, it.Body)
		}
		var res service.JobResult
		if err := json.Unmarshal(it.Body, &res); err != nil {
			return nil, fmt.Errorf("fleet: scenario %q: bad job result: %w", reqs[i].Scenario, err)
		}
		if res.Verdict == "" {
			return nil, fmt.Errorf("fleet: scenario %q: job result carries no verdict: %s", reqs[i].Scenario, it.Body)
		}
		out[i] = res.Verdict
	}
	return out, nil
}
