package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"timecache/internal/harness"
	"timecache/internal/machine"
	"timecache/internal/stats"
)

// legExecutor runs one leg of one job. The coordinator owns scheduling,
// leases, retries, and merging; the executor owns only the simulation. Two
// implementations: inProcExecutor (a goroutine with a private machine.Pool,
// the default) and remoteExecutor (a separate worker process speaking the
// /v1/legs HTTP protocol, see worker.go). Determinism makes them
// interchangeable mid-job: a leg renders the same bytes wherever it runs.
type legExecutor interface {
	// runLeg executes leg of j under ctx.
	runLeg(ctx context.Context, j *job, leg int) (tab *stats.Table, res JobResources, err error)
}

// retryableError marks a failure of the execution channel, not of the
// simulation: connection refused, worker 5xx, truncated response. The
// coordinator re-runs the leg elsewhere. Simulation errors are never
// retryable — the simulator is deterministic, so a second run fails
// identically.
type retryableError struct{ err error }

func (e retryableError) Error() string { return e.err.Error() }
func (e retryableError) Unwrap() error { return e.err }

func isRetryable(err error) bool {
	var r retryableError
	return errors.As(err, &r)
}

// inProcExecutor is a coordinator-local executor: one per -workers slot,
// each owning a private machine pool (pooled machines are Reset between
// legs; the golden tests prove reuse is invisible in results). The legs of
// one job share the job's run memo across executors, so a baseline run
// that several legs need is simulated once; remote legs run without it.
type inProcExecutor struct {
	s    *Server
	pool *machine.Pool
}

func newInProcExecutor(s *Server) *inProcExecutor {
	return &inProcExecutor{s: s, pool: machine.NewPool()}
}

func (e *inProcExecutor) runLeg(ctx context.Context, j *job, leg int) (*stats.Table, JobResources, error) {
	account := &harness.ResourceAccount{}
	opts := j.spec.options()
	opts.Ctx = ctx
	opts.Pool = e.pool
	opts.Spans = j.trace
	opts.Now = e.s.clk.Now
	opts.Account = account
	opts.Memo = j.runMemo()

	ps0 := e.pool.Stats()
	tab, err := harness.RunJobLeg(j.spec.harnessJob(), leg, opts)
	ps1 := e.pool.Stats()
	res := JobResources{
		Resources:      account.Snapshot(),
		PoolHits:       ps1.Hits - ps0.Hits,
		PoolMisses:     ps1.Misses - ps0.Misses,
		PoolEvictions:  ps1.Evictions - ps0.Evictions,
		SnapshotHits:   ps1.SnapshotHits - ps0.SnapshotHits,
		SnapshotMisses: ps1.SnapshotMisses - ps0.SnapshotMisses,
	}
	return tab, res, err
}

// legRequest / legResponse are the coordinator↔worker wire format for one
// leg (POST {worker}/v1/legs).
type legRequest struct {
	Spec Spec `json:"spec"`
	Leg  int  `json:"leg"`
}

type legResponse struct {
	Header    []string     `json:"header"`
	Rows      [][]string   `json:"rows"`
	Resources JobResources `json:"resources"`
}

// remoteExecutor proxies legs to a worker daemon (timecache-serve -worker).
// The coordinator keeps scheduling and merging; only RunJobLeg crosses the
// wire. A worker that answers 422 reported a deterministic simulation error
// (permanent); any transport failure or other status is retryable — the leg
// is re-leased to a different executor.
type remoteExecutor struct {
	addr   string // base URL, e.g. "http://127.0.0.1:9090"
	client *http.Client
}

func newRemoteExecutor(addr string) *remoteExecutor {
	return &remoteExecutor{addr: addr, client: &http.Client{}}
}

func (e *remoteExecutor) runLeg(ctx context.Context, j *job, leg int) (*stats.Table, JobResources, error) {
	body := mustJSON(legRequest{Spec: j.spec, Leg: leg})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.addr+"/v1/legs", bytes.NewReader(body))
	if err != nil {
		return nil, JobResources{}, retryableError{fmt.Errorf("worker %s: %w", e.addr, err)}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, JobResources{}, retryableError{fmt.Errorf("worker %s: %w", e.addr, err)}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, JobResources{}, retryableError{fmt.Errorf("worker %s: read response: %w", e.addr, err)}
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusUnprocessableEntity:
		var fail struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &fail) == nil && fail.Error != "" {
			return nil, JobResources{}, errors.New(fail.Error)
		}
		return nil, JobResources{}, fmt.Errorf("worker %s: leg failed: %s", e.addr, raw)
	default:
		return nil, JobResources{},
			retryableError{fmt.Errorf("worker %s: status %d: %s", e.addr, resp.StatusCode, raw)}
	}
	var lr legResponse
	if err := json.Unmarshal(raw, &lr); err != nil {
		return nil, JobResources{}, retryableError{fmt.Errorf("worker %s: decode response: %w", e.addr, err)}
	}
	return &stats.Table{Header: lr.Header, Rows: lr.Rows}, lr.Resources, nil
}
