package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/harness"
)

// tinySpec is the smallest real plan: one cell (List under 2PL at two
// threads, one seed).
func tinySpec() Spec {
	return Spec{Figures: []string{"figure1"}, Workloads: []string{"List"}, Threads: 2, Seeds: []uint64{1}}
}

func newTestServer(t *testing.T, dir string, workers int) (*Server, *httptest.Server) {
	t.Helper()
	cache, err := exp.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cache: cache, Workers: workers, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s: %v", raw, err)
		}
	}
	return resp.StatusCode
}

func getStatus(t *testing.T, base, id string) Status {
	t.Helper()
	resp, err := http.Get(base + "/api/plans/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitDone(t *testing.T, base, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, base, id)
		if st.State != "running" {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("plan %s did not finish", id)
	return Status{}
}

func TestServerEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, dir, 2)
	s.Start()

	var st Status
	if code := postJSON(t, ts.URL+"/api/plans", tinySpec(), &st); code != http.StatusOK {
		t.Fatalf("submit returned %d", code)
	}
	if st.Total != 1 {
		t.Fatalf("tiny plan has %d cells, want 1", st.Total)
	}
	done := waitDone(t, ts.URL, st.ID)
	if done.State != "done" || done.Computed != 1 || done.Hits != 0 {
		t.Fatalf("cold plan finished as %+v", done)
	}

	// The served figure must be byte-identical to a direct harness
	// render of the same spec over the same cache.
	resp, err := http.Get(ts.URL + "/api/plans/" + st.ID + "/figures/figure1")
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("figure fetch returned %d: %s", resp.StatusCode, served)
	}
	spec := tinySpec().withDefaults()
	o := spec.options()
	o.Cache = s.cache
	direct, err := harness.RenderFigureText("figure1", spec.Threads, o)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, direct) {
		t.Fatalf("served figure differs from direct render:\nserved:\n%s\ndirect:\n%s", served, direct)
	}

	// Resubmitting the identical spec completes instantly from the cache.
	var again Status
	postJSON(t, ts.URL+"/api/plans", tinySpec(), &again)
	if again.State != "done" || again.Hits != again.Total || again.Computed != 0 {
		t.Fatalf("resubmit not fully cached: %+v", again)
	}

	// The events stream of a done plan is a single terminal snapshot.
	resp, err = http.Get(ts.URL + "/api/plans/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	stream, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var ev Event
	if err := json.Unmarshal(bytes.TrimSpace(stream), &ev); err != nil || ev.State != "done" || ev.Done != ev.Total {
		t.Fatalf("events stream of a done plan = %q (err %v)", stream, err)
	}
}

func TestServerResumesFromCacheAfterRestart(t *testing.T) {
	dir := t.TempDir()

	// First server: accept the plan but compute nothing (no executors),
	// as if it was killed the moment the plan was persisted.
	s1, ts1 := newTestServer(t, dir, -1)
	var st Status
	postJSON(t, ts1.URL+"/api/plans", tinySpec(), &st)
	if st.State != "running" || st.Done != 0 {
		t.Fatalf("executor-less plan should sit at 0: %+v", st)
	}
	ts1.Close()
	s1.Close()

	// Second server over the same directory: the persisted plan is
	// resubmitted and completes.
	s2, ts2 := newTestServer(t, dir, 2)
	s2.Start()
	done := waitDone(t, ts2.URL, st.ID)
	if done.State != "done" {
		t.Fatalf("resumed plan finished as %+v", done)
	}

	// Third server: everything is now cached, so the resumed plan is
	// born done with zero recomputes.
	s3, ts3 := newTestServer(t, dir, -1)
	_ = s3
	born := getStatus(t, ts3.URL, st.ID)
	if born.State != "done" || born.Hits != born.Total || born.Computed != 0 {
		t.Fatalf("fully cached resume must be born done: %+v", born)
	}
}

func TestExternalWorkerDrainsQueue(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, dir, -1) // no in-process executors
	_ = s
	var st Status
	postJSON(t, ts.URL+"/api/plans", tinySpec(), &st)

	cache, err := exp.OpenCache(dir) // worker's own handle on the shared dir
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Server: ts.URL, Cache: cache, Name: "test-worker", Poll: 10 * time.Millisecond, Logf: t.Logf}
	errc := make(chan error, 1)
	go func() { errc <- w.Run(ctx) }()

	done := waitDone(t, ts.URL, st.ID)
	if done.State != "done" || done.Computed != 1 {
		t.Fatalf("worker-driven plan finished as %+v", done)
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("worker exited with %v", err)
	}
}

func TestWorkerRefusesProvenanceMismatch(t *testing.T) {
	// A lease whose key does not match the worker's own sources must be
	// refused (failed back), never computed and stored.
	dir := t.TempDir()
	cache, err := exp.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The complete handler runs on the server's goroutine and may still
	// be running when the worker returns, so the log is locked.
	var mu sync.Mutex
	var completes []completeRequest
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/lease", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, leaseResponse{
			Key:  strings.Repeat("0", 64), // matches no real provenance
			Cell: exp.Cell{Workload: "List", Engine: "2PL", Threads: 2, Seed: 1},
		})
	})
	mux.HandleFunc("POST /api/complete", func(w http.ResponseWriter, r *http.Request) {
		var req completeRequest
		json.NewDecoder(r.Body).Decode(&req)
		mu.Lock()
		completes = append(completes, req)
		mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{Server: ts.URL, Cache: cache, Name: "skewed", Poll: time.Millisecond}
	go func() {
		time.Sleep(200 * time.Millisecond)
		cancel()
	}()
	w.Run(ctx)
	mu.Lock()
	defer mu.Unlock()
	if len(completes) == 0 {
		t.Fatal("worker never reported the lease back")
	}
	for _, c := range completes {
		if !c.Failed || !strings.Contains(c.Error, "provenance mismatch") {
			t.Fatalf("mismatched lease must fail with a provenance error: %+v", c)
		}
	}
	if cache.Stats().Puts != 0 {
		t.Fatal("mismatched worker must not write to the cache")
	}
}

func TestFigureConflictsWhileRunning(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), -1)
	_ = s
	var st Status
	postJSON(t, ts.URL+"/api/plans", tinySpec(), &st)
	resp, err := http.Get(ts.URL + "/api/plans/" + st.ID + "/figures/figure1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("figure of a running plan returned %d, want 409", resp.StatusCode)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), -1)
	_ = s
	if code := postJSON(t, ts.URL+"/api/plans", Spec{Figures: []string{"nosuch"}}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown figure returned %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/plans", Spec{Workloads: []string{"nosuch"}}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown workload returned %d", code)
	}
	for _, path := range []string{"/api/plans/nope", "/api/plans/nope/events", "/api/plans/nope/figures/figure1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s returned %d, want 404", path, resp.StatusCode)
		}
	}
	var st Status
	postJSON(t, ts.URL+"/api/plans", tinySpec(), &st)
	resp, err := http.Get(ts.URL + "/api/plans/" + st.ID + "/figures/figure7")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("figure outside the plan returned %d, want 404", resp.StatusCode)
	}
}

// Oversized submit, lease and complete bodies must be refused with 413,
// leaving the queue untouched.
func TestServerRejectsOversizedBodies(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), -1)
	huge := strings.Repeat("x", maxBodyBytes)
	spec := tinySpec()
	for len(spec.Workloads)*len(`"List",`) <= maxBodyBytes {
		spec.Workloads = append(spec.Workloads, "List")
	}
	for _, c := range []struct {
		path string
		body any
	}{
		{"/api/plans", spec},
		{"/api/lease", leaseRequest{Worker: huge}},
		{"/api/complete", completeRequest{Key: "k", Worker: "w", Failed: true, Error: huge}},
	} {
		if code := postJSON(t, ts.URL+c.path, c.body, nil); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized %s body returned %d, want 413", c.path, code)
		}
	}
	resp, err := http.Get(ts.URL + "/api/plans")
	if err != nil {
		t.Fatal(err)
	}
	var sts []Status
	err = json.NewDecoder(resp.Body).Decode(&sts)
	resp.Body.Close()
	if err != nil || len(sts) != 0 {
		t.Fatalf("plans after oversized submit: %+v (err %v), want none", sts, err)
	}
	if code := postJSON(t, ts.URL+"/api/lease", leaseRequest{Worker: "w"}, nil); code != http.StatusNoContent {
		t.Fatalf("lease after oversized submit returned %d, want 204 (empty queue)", code)
	}
}

func TestPlanIDsAreSequencedAndStable(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), -1)
	_ = s
	var a, b Status
	postJSON(t, ts.URL+"/api/plans", tinySpec(), &a)
	postJSON(t, ts.URL+"/api/plans", tinySpec(), &b)
	if !strings.HasPrefix(a.ID, "p001-") || !strings.HasPrefix(b.ID, "p002-") {
		t.Fatalf("ids not sequenced: %s, %s", a.ID, b.ID)
	}
	// The suffix is the spec hash: identical specs share it.
	if strings.SplitN(a.ID, "-", 2)[1] != strings.SplitN(b.ID, "-", 2)[1] {
		t.Fatalf("identical specs must share the hash suffix: %s vs %s", a.ID, b.ID)
	}
	resp, err := http.Get(ts.URL + "/api/plans")
	if err != nil {
		t.Fatal(err)
	}
	var all []Status
	json.NewDecoder(resp.Body).Decode(&all)
	resp.Body.Close()
	if len(all) != 2 || all[0].ID != a.ID || all[1].ID != b.ID {
		t.Fatalf("plan listing wrong: %+v", all)
	}
}

func TestSpecDefaultsAndHash(t *testing.T) {
	s := Spec{}.withDefaults()
	if len(s.Figures) != 1 || s.Figures[0] != "figure7" || s.Threads != 32 || len(s.Seeds) != 3 {
		t.Fatalf("defaults wrong: %+v", s)
	}
	if (Spec{}).hash() == tinySpec().hash() {
		t.Fatal("distinct specs must hash differently")
	}
	if tinySpec().hash() != tinySpec().hash() {
		t.Fatal("hash must be deterministic")
	}
}
