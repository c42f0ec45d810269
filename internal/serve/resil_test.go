package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// gateHook wraps a fault hook behind an on/off switch so a test can
// load the graph cleanly first and start injecting afterwards.
func gateHook(on *atomic.Bool, hook func(string) error) func(string) error {
	return func(site string) error {
		if !on.Load() {
			return nil
		}
		return hook(site)
	}
}

// With the limiter saturated and no queue, the next request is shed
// with 429, a Retry-After header, and a machine-readable "shed" kind.
func TestAdmissionShed429(t *testing.T) {
	block := make(chan struct{})
	var first atomic.Bool
	first.Store(true)
	cfg := Config{
		MaxInflight: 1,
		QueueDepth:  0,
		FaultHook: func(site string) error {
			if site == "serve.handler" && first.CompareAndSwap(true, false) {
				<-block // hold the admission slot
			}
			return nil
		},
	}
	s, _ := newTestServer(t, cfg)
	shedBefore := obs.Default().Counter("serve.shed_requests").Value()

	held := make(chan struct{})
	go func() {
		defer close(held)
		doJSON(t, s, "POST", "/v1/wzoom", WZoomRequest{Graph: "fig1", Window: "3 units"})
	}()
	waitForCond(t, func() bool { return s.limiter.Inflight() == 1 })

	w := doJSON(t, s, "POST", "/v1/wzoom", WZoomRequest{Graph: "fig1", Window: "5 units"})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated request: %d %s, want 429", w.Code, w.Body)
	}
	if got := w.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want 1", got)
	}
	var e errorJSON
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Kind != "shed" {
		t.Errorf("shed body = %s (err %v), want kind shed", w.Body, err)
	}
	if d := obs.Default().Counter("serve.shed_requests").Value() - shedBefore; d != 1 {
		t.Errorf("serve.shed_requests advanced by %d, want 1", d)
	}
	close(block)
	<-held
	if got := s.limiter.Inflight(); got != 0 {
		t.Errorf("inflight after release = %d, want 0", got)
	}
}

// A handler panic is converted to a typed 500 by the recovery
// middleware instead of killing the test process.
func TestPanicRecoveryMiddleware(t *testing.T) {
	cfg := Config{FaultHook: func(site string) error {
		if site == "serve.handler" {
			panic("boom")
		}
		return nil
	}}
	s, _ := newTestServer(t, cfg)
	before := obs.Default().Counter("serve.panics_recovered").Value()
	w := doJSON(t, s, "POST", "/v1/wzoom", WZoomRequest{Graph: "fig1", Window: "3 units"})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: %d %s, want 500", w.Code, w.Body)
	}
	var e errorJSON
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Kind != "internal" {
		t.Errorf("panic body = %s (err %v), want kind internal", w.Body, err)
	}
	if d := obs.Default().Counter("serve.panics_recovered").Value() - before; d != 1 {
		t.Errorf("serve.panics_recovered advanced by %d, want 1", d)
	}
	// The server still answers afterwards... with the next injected
	// panic, proving the process survived; disable to get a real answer.
}

// Client cancellation and deadline expiry map to 499 / 504 with the
// stable kind tokens.
func TestRunErrorStatusMapping(t *testing.T) {
	if got := statusForRunError(context.Canceled); got != StatusClientClosedRequest {
		t.Errorf("canceled -> %d, want 499", got)
	}
	if got := statusForRunError(context.DeadlineExceeded); got != http.StatusGatewayTimeout {
		t.Errorf("deadline -> %d, want 504", got)
	}
	if kindFor(0, context.Canceled) != "canceled" || kindFor(0, context.DeadlineExceeded) != "timeout" {
		t.Errorf("kinds = %q/%q, want canceled/timeout",
			kindFor(0, context.Canceled), kindFor(0, context.DeadlineExceeded))
	}
}

// A query that times out answers 504 with the typed dataflow.JobError
// detail in the body (the engine reports the cancellation).
func TestTimeoutBodyCarriesJobError(t *testing.T) {
	s, _ := newTestServer(t, Config{Timeout: time.Nanosecond})
	w := doJSON(t, s, "POST", "/v1/wzoom", WZoomRequest{Graph: "fig1", Window: "3 units"})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("code = %d %s, want 504", w.Code, w.Body)
	}
	var e errorJSON
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != "timeout" {
		t.Errorf("kind = %q, want timeout", e.Kind)
	}
	if e.Dataflow == nil || !e.Dataflow.Cancelled {
		t.Errorf("dataflow detail = %+v, want cancelled job error", e.Dataflow)
	}
}

// /livez stays 200 through drain; /readyz flips to 503 the moment the
// server starts draining and reports per-graph readiness before.
func TestLivezReadyz(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if w := doJSON(t, s, "GET", "/livez", nil); w.Code != http.StatusOK || w.Body.String() != "ok\n" {
		t.Fatalf("livez = %d %q", w.Code, w.Body)
	}
	w := doJSON(t, s, "GET", "/readyz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("readyz = %d %s, want 200", w.Code, w.Body)
	}
	var st ReadyStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Ready || st.Graphs["fig1"] != "ready" {
		t.Errorf("readyz body = %+v, want ready fig1", st)
	}

	s.Drain() // no requests in flight: returns immediately
	if w := doJSON(t, s, "GET", "/livez", nil); w.Code != http.StatusOK {
		t.Errorf("livez during drain = %d, want 200", w.Code)
	}
	w = doJSON(t, s, "GET", "/readyz", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", w.Code)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || st.Ready || !st.Draining {
		t.Errorf("readyz drain body = %s (err %v), want draining", w.Body, err)
	}
}

// DrainWithin reports an error when in-flight requests outlive the
// deadline, and succeeds once they finish.
func TestDrainWithinDeadline(t *testing.T) {
	block := make(chan struct{})
	var hold atomic.Bool
	hold.Store(true)
	cfg := Config{FaultHook: func(site string) error {
		if site == "serve.handler" && hold.Load() {
			<-block
		}
		return nil
	}}
	s, _ := newTestServer(t, cfg)

	reqDone := make(chan struct{})
	go func() {
		defer close(reqDone)
		doJSON(t, s, "POST", "/v1/wzoom", WZoomRequest{Graph: "fig1", Window: "3 units"})
	}()
	waitForCond(t, func() bool { return s.inflight.Value() == 1 })

	if err := s.DrainWithin(20 * time.Millisecond); err == nil {
		t.Fatal("DrainWithin succeeded with a request still in flight")
	}
	hold.Store(false)
	close(block)
	<-reqDone
	if err := s.DrainWithin(2 * time.Second); err != nil {
		t.Fatalf("DrainWithin after release: %v", err)
	}
}

// Transient faults injected at serve.reload consume the retry budget
// (one immediate retry) and fail the reload, which flips the graph into
// degraded mode serving the last-good graph; the next reload that
// succeeds clears it.
func TestReloadInjectionDegradesAndRetries(t *testing.T) {
	inj := faults.New(11, faults.Rule{Site: "serve.reload", Kind: faults.Transient, Every: 1})
	var faulty atomic.Bool
	cfg := Config{
		BreakerThreshold: 100, // keep the breaker out of this test's way
		FaultHook:        gateHook(&faulty, inj.ServeHook()),
	}
	s, _ := newTestServer(t, cfg)
	req := WZoomRequest{Graph: "fig1", Window: "3 units"}

	w0 := doJSON(t, s, "POST", "/v1/wzoom", req)
	if w0.Code != http.StatusOK || w0.Header().Get("X-TGraph-Degraded") != "" {
		t.Fatalf("healthy request: %d degraded=%q", w0.Code, w0.Header().Get("X-TGraph-Degraded"))
	}

	retriesBefore := obs.Default().Counter("serve.reload_retries").Value()
	degradedBefore := obs.Default().Counter("serve.degraded_requests").Value()
	faulty.Store(true)
	if w := doJSON(t, s, "POST", "/v1/graphs/fig1/reload", nil); w.Code == http.StatusOK {
		t.Fatalf("reload under injected faults answered 200: %s", w.Body)
	}
	if d := obs.Default().Counter("serve.reload_retries").Value() - retriesBefore; d != 1 {
		t.Errorf("serve.reload_retries advanced by %d, want 1 (transient fault, budget full)", d)
	}
	w1 := doJSON(t, s, "POST", "/v1/wzoom", req)
	if w1.Code != http.StatusOK {
		t.Fatalf("degraded request: %d %s, want 200 from last-good graph", w1.Code, w1.Body)
	}
	if got := w1.Header().Get("X-TGraph-Degraded"); got != "stale-graph" {
		t.Errorf("X-TGraph-Degraded = %q, want stale-graph", got)
	}
	if w1.Body.String() != w0.Body.String() {
		t.Error("degraded response differs from the last committed stamp's response")
	}
	if d := obs.Default().Counter("serve.degraded_requests").Value() - degradedBefore; d != 1 {
		t.Errorf("serve.degraded_requests advanced by %d, want 1", d)
	}

	faulty.Store(false)
	if w := doJSON(t, s, "POST", "/v1/graphs/fig1/reload", nil); w.Code != http.StatusOK {
		t.Fatalf("recovered reload: %d %s", w.Code, w.Body)
	}
	w2 := doJSON(t, s, "POST", "/v1/wzoom", req)
	if w2.Code != http.StatusOK || w2.Header().Get("X-TGraph-Degraded") != "" {
		t.Errorf("recovered request: %d degraded=%q, want clean 200", w2.Code, w2.Header().Get("X-TGraph-Degraded"))
	}
}

// waitForCond polls cond until true or fails the test after 2s.
func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
