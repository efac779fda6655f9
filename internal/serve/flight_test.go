package serve

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestFlightCoalesces exercises the flight directly: concurrent do() calls
// with one key run fn once and share the result; a different key runs
// separately.
func TestFlightCoalesces(t *testing.T) {
	f := newFlight()
	var mu sync.Mutex
	runs := map[string]int{}
	gate := make(chan struct{})
	fn := func(key string) func(context.Context) flightResult {
		return func(context.Context) flightResult {
			mu.Lock()
			runs[key]++
			mu.Unlock()
			<-gate
			return flightResult{status: 200, body: []byte(key)}
		}
	}

	const n = 8
	var wg sync.WaitGroup
	type res struct {
		r         flightResult
		coalesced bool
	}
	got := make([]res, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		key := "a"
		if i == n-1 {
			key = "b"
		}
		go func(i int, key string) {
			defer wg.Done()
			r, coalesced, ok := f.do(key, context.Background(), 0, fn(key))
			if !ok {
				t.Errorf("do(%q) not ok", key)
			}
			got[i] = res{r, coalesced}
		}(i, key)
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.pending("a") != n-1 || f.pending("b") != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiters: a=%d b=%d", f.pending("a"), f.pending("b"))
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if runs["a"] != 1 || runs["b"] != 1 {
		t.Fatalf("runs = %v, want a:1 b:1", runs)
	}
	coalesced := 0
	for i, r := range got[:n-1] {
		if string(r.r.body) != "a" {
			t.Fatalf("result %d = %q, want a", i, r.r.body)
		}
		if r.coalesced {
			coalesced++
		}
	}
	if coalesced != n-2 {
		t.Fatalf("coalesced = %d, want %d", coalesced, n-2)
	}
	if f.pending("a") != 0 || f.pending("b") != 0 {
		t.Fatal("calls not cleaned up")
	}
}

// TestFlightCancelsAbandonedExecution checks the refcounted cancellation:
// when every waiter of a call goes away, the shared execution's context is
// cancelled so the engine stops doing work nobody wants — and a later
// identical request starts a fresh execution instead of joining the dying
// one.
func TestFlightCancelsAbandonedExecution(t *testing.T) {
	f := newFlight()
	execCancelled := make(chan struct{})
	running := make(chan struct{})
	fn := func(ctx context.Context) flightResult {
		close(running)
		<-ctx.Done()
		close(execCancelled)
		return flightResult{status: StatusClientClosedRequest}
	}

	waiter, cancelWaiter := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		_, _, ok := f.do("k", waiter, 0, fn)
		if ok {
			t.Error("abandoned do() reported ok")
		}
		close(done)
	}()
	<-running
	cancelWaiter() // the only client disconnects
	<-done

	select {
	case <-execCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("execution context was not cancelled after the last waiter left")
	}

	// The key must be free for a fresh execution immediately.
	r, coalesced, ok := f.do("k", context.Background(), 0, func(context.Context) flightResult {
		return flightResult{status: http.StatusOK, body: []byte("fresh")}
	})
	if !ok || coalesced || string(r.body) != "fresh" {
		t.Fatalf("fresh call after abandonment: ok=%v coalesced=%v body=%q", ok, coalesced, r.body)
	}
}

// TestFlightTimeoutReachesExecution verifies the timeout is carried by the
// execution context handed to fn.
func TestFlightTimeoutReachesExecution(t *testing.T) {
	f := newFlight()
	r, _, ok := f.do("k", context.Background(), 10*time.Millisecond, func(ctx context.Context) flightResult {
		select {
		case <-ctx.Done():
			return flightResult{status: http.StatusGatewayTimeout}
		case <-time.After(10 * time.Second):
			return flightResult{status: http.StatusOK}
		}
	})
	if !ok || r.status != http.StatusGatewayTimeout {
		t.Fatalf("ok=%v status=%d, want timed-out execution", ok, r.status)
	}
}

// TestFlightSnapshot checks the live coalescing-depth readout: a blocked
// leader with joined waiters shows up in keys/waiters/maxWaiters, and a
// drained flight reads back as empty.
func TestFlightSnapshot(t *testing.T) {
	f := newFlight()
	block := make(chan struct{})
	leaderIn := make(chan struct{})
	exec := func(context.Context) flightResult {
		close(leaderIn)
		<-block
		return flightResult{status: 200}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.do("k", context.Background(), 0, exec)
	}()
	<-leaderIn
	const joiners = 3
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.do("k", context.Background(), 0, func(context.Context) flightResult {
				return flightResult{status: 200}
			})
		}()
	}
	// Wait for the joiners to register on the key.
	deadline := time.Now().Add(time.Second)
	for f.pending("k") < joiners+1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	keys, waiters, maxW := f.snapshot()
	if keys != 1 {
		t.Fatalf("in-flight keys = %d, want 1", keys)
	}
	if waiters != joiners+1 {
		t.Fatalf("waiters = %d, want %d", waiters, joiners+1)
	}
	if maxW != joiners+1 {
		t.Fatalf("max waiters on one key = %d, want %d", maxW, joiners+1)
	}
	close(block)
	wg.Wait()
	if keys, waiters, _ := f.snapshot(); keys != 0 || waiters != 0 {
		t.Fatalf("drained flight reports keys=%d waiters=%d, want 0/0", keys, waiters)
	}
}
