package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/savat"
)

func submitBody(t *testing.T, spec savat.CampaignSpec, tenant string) *bytes.Buffer {
	t.Helper()
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(SubmitRequest{Spec: specJSON, Tenant: tenant})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewBuffer(body)
}

func TestHTTPCampaignLifecycle(t *testing.T) {
	s := newServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := smokeSpec()
	total := 2 * 2 * spec.Repeats

	// Submit.
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", submitBody(t, spec, "alice"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var jb Job
	if err := json.NewDecoder(resp.Body).Decode(&jb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jb.ID == "" || jb.Tenant != "alice" {
		t.Fatalf("submit returned %+v", jb)
	}

	// Stream events as NDJSON until the campaign completes.
	resp, err = http.Get(ts.URL + "/v1/campaigns/" + jb.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type %q", ct)
	}
	events := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev engine.ProgressEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events++
	}
	resp.Body.Close()
	if events != total {
		t.Errorf("streamed %d events, want %d", events, total)
	}

	// Status.
	resp, err = http.Get(ts.URL + "/v1/campaigns/" + jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got Job
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.State != StateDone || got.Stats.Done != total {
		t.Fatalf("status %+v", got)
	}

	// List.
	resp, err = http.Get(ts.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list listResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Campaigns) != 1 || list.Campaigns[0].ID != jb.ID {
		t.Fatalf("list %+v", list)
	}

	// Result: bit-identical to a direct run of the same spec.
	resp, err = http.Get(ts.URL + "/v1/campaigns/" + jb.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var res savat.MatrixStats
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	direct, err := savat.RunSpecContext(context.Background(), spec, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(res.Cells)
	b, _ := json.Marshal(direct.Cells)
	if string(a) != string(b) {
		t.Errorf("HTTP result diverges from direct run")
	}
}

func TestHTTPEventsSSE(t *testing.T) {
	s := newServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	jb, err := s.Submit(smokeSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("GET", ts.URL+"/v1/campaigns/"+jb.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content type %q", ct)
	}
	frames := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			t.Fatalf("bad SSE line %q", line)
		}
		var ev engine.ProgressEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE data %q: %v", line, err)
		}
		frames++
	}
	if want := 2 * 2 * smokeSpec().Repeats; frames != want {
		t.Errorf("streamed %d SSE frames, want %d", frames, want)
	}
}

func TestHTTPCancel(t *testing.T) {
	s := newServer(t, Options{MaxActive: 1, Parallelism: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the slot with a slow campaign, then cancel a still-queued
	// job over HTTP. Quarter-second captures and many repetitions keep
	// the blocker busy: every repetition draws fresh per-stage seeds, and
	// a cold seed leaves no product resident from an earlier campaign,
	// so the synthesis-product layer cannot collapse the work.
	slow := smokeSpec()
	slow.Config.Duration = 0.25
	slow.Repeats = 8
	slow.Seed = coldSeed()
	running, err := s.Submit(slow, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec := smokeSpec()
	spec.Seed = 99
	queued, err := s.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Issue the cancel only once the blocker is observed mid-run with
	// the victim still queued, so the DELETE races only the blocker's
	// remaining cells (hundreds of milliseconds), not its startup.
	deadline := time.Now().Add(time.Minute)
	for {
		rj, err := s.Get(running.ID)
		if err != nil {
			t.Fatal(err)
		}
		qj, err := s.Get(queued.ID)
		if err != nil {
			t.Fatal(err)
		}
		if rj.State == StateRunning && qj.State == StateQueued {
			break
		}
		if rj.State != StateQueued && rj.State != StateRunning {
			t.Fatalf("blocker finished (%s) before the queued job could be cancelled", rj.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never reached running+queued (blocker %s, victim %s)", rj.State, qj.State)
		}
		time.Sleep(time.Millisecond)
	}

	req, err := http.NewRequest("DELETE", ts.URL+"/v1/campaigns/"+queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var jb Job
	if err := json.NewDecoder(resp.Body).Decode(&jb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jb.State != StateCancelled {
		t.Fatalf("cancelled queued job is %s", jb.State)
	}
	awaitDone(t, s, running.ID)
}

func TestHTTPErrors(t *testing.T) {
	s := newServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Errorf("%s: error body missing (%v)", path, err)
		}
		return resp.StatusCode
	}
	if st := get("/v1/campaigns/c999999"); st != http.StatusNotFound {
		t.Errorf("unknown id status %d", st)
	}
	if st := get("/v1/campaigns/c999999/result"); st != http.StatusNotFound {
		t.Errorf("unknown result status %d", st)
	}

	// A running (not done) job's result is a conflict.
	jb, err := s.Submit(smokeSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + jb.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jobNow, _ := s.Get(jb.ID); !jobNow.State.Terminal() && resp.StatusCode != http.StatusConflict {
		t.Errorf("unfinished result status %d", resp.StatusCode)
	}

	// Bad submissions: invalid JSON, missing spec, unknown field in the
	// spec, invalid spec values, a frequency the machine's clock cannot
	// alternate at (30 MHz leaves the 2 GHz Core 2 Duo under 100 cycles
	// per period), and repeats beyond savat.MaxRepeats — refused before
	// the engine would size its value grid from them.
	overBound := submitBody(t, smokeSpec(), "").String()
	if !strings.Contains(overBound, `"repeats":2,`) {
		t.Fatalf("submit body lacks the repeats field: %s", overBound)
	}
	bad := map[string]string{
		"invalid-json":  `{`,
		"missing-spec":  `{}`,
		"unknown-field": `{"spec": {"machine": "Core2Duo", "sede": 1}}`,
		"bad-machine":   `{"spec": {"machine": "Cray1"}}`,
	}
	unreachable := smokeSpec()
	unreachable.Config.Frequency, unreachable.Config.SampleRate, unreachable.Config.Duration = 30e6, 1<<26, 0.01
	bad["unreachable-frequency"] = submitBody(t, unreachable, "").String()
	for _, n := range []string{fmt.Sprint(savat.MaxRepeats + 1), "100000000000", "9223372036854775807"} {
		bad["repeats-"+n] = strings.Replace(overBound, `"repeats":2,`, `"repeats":`+n+`,`, 1)
	}
	// Finite values no cell could measure: jitter that stalls the
	// envelope timeline (a worker pinned forever) or overflows it, and
	// inputs that measured NaN or ±Inf or failed after validation.
	for name, edit := range map[string]func(*savat.Config){
		"freq-offset-stalls":  func(c *savat.Config) { c.Jitter.FreqOffset = -1 },
		"freq-offset-reverse": func(c *savat.Config) { c.Jitter.FreqOffset = -2 },
		"negative-drift":      func(c *savat.Config) { c.Jitter.DriftStd = -0.1 },
		"negative-max-drift":  func(c *savat.Config) { c.Jitter.MaxDrift = -0.1 },
		"amp-noise-huge":      func(c *savat.Config) { c.Jitter.AmpNoiseStd = 1e300 },
		"amp-corr-above":      func(c *savat.Config) { c.Jitter.AmpNoiseCorr = 5 },
		"amp-corr-below":      func(c *savat.Config) { c.Jitter.AmpNoiseCorr = -5 },
		"distance-tiny":       func(c *savat.Config) { c.Distance = 1e-100 },
		"thermal-huge":        func(c *savat.Config) { c.Environment.ThermalPSD = 1e308 },
		"background-huge":     func(c *savat.Config) { c.Environment.RFBackgroundPSD = 1e308 },
		"floor-huge":          func(c *savat.Config) { c.Analyzer.FloorPSD = 1e308 },
		"rbw-huge":            func(c *savat.Config) { c.Analyzer.RBW = 1e300 },
		"zero-sample-capture": func(c *savat.Config) { c.Duration = 2e-6 },
	} {
		spec := smokeSpec()
		edit(&spec.Config)
		bad[name] = submitBody(t, spec, "").String()
	}
	for name, body := range bad {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Errorf("%s: error body: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if strings.HasPrefix(name, "repeats-") && !strings.Contains(e.Error, savat.ErrTooLarge.Error()) {
			t.Errorf("%s: error %q does not name the bound", name, e.Error)
		}
		if name == "unreachable-frequency" && !strings.Contains(e.Error, savat.ErrBadFrequency.Error()) {
			t.Errorf("%s: error %q does not name ErrBadFrequency", name, e.Error)
		}
	}
	if n := len(s.List()); n != 1 {
		t.Errorf("%d jobs after the bad submissions, want only the valid one", n)
	}
	awaitDone(t, s, jb.ID)
}

// A spec that names an event twice is refused with 400 and creates no
// job — including a body that fits under maxSubmitBytes but would grid
// 170,001 events at savat.MaxRepeats.
func TestHTTPRejectsRepeatedEvents(t *testing.T) {
	s := newServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	twice := smokeSpec()
	twice.Events = []savat.Event{savat.ADD, savat.LDM, savat.ADD}
	huge := smokeSpec()
	huge.Events = make([]savat.Event, 170001)
	for i := range huge.Events {
		huge.Events[i] = savat.ADD
	}
	huge.Repeats = savat.MaxRepeats
	for name, spec := range map[string]savat.CampaignSpec{"twice": twice, "huge": huge} {
		body := submitBody(t, spec, "")
		if body.Len() >= maxSubmitBytes {
			t.Fatalf("%s: body of %d bytes is not under the %d-byte bound", name, body.Len(), maxSubmitBytes)
		}
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Errorf("%s: error body: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if !strings.Contains(e.Error, savat.ErrBadSpec.Error()) {
			t.Errorf("%s: error %q does not name ErrBadSpec", name, e.Error)
		}
	}
	if n := len(s.List()); n != 0 {
		t.Errorf("%d jobs after the rejected submissions, want 0", n)
	}
}

// An oversized submit body is refused with 413 before the daemon
// buffers it; a body just under the bound is still parsed (and here
// rejected as a bad spec, 400).
func TestHTTPSubmitBodyBound(t *testing.T) {
	s := newServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(padding int) int {
		t.Helper()
		body := `{"spec": {"machine": "Cray1"}, "tenant": "` + strings.Repeat("a", padding) + `"}`
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Errorf("padding %d: error body missing (%v)", padding, err)
		}
		return resp.StatusCode
	}
	if st := post(2 * maxSubmitBytes); st != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", st)
	}
	if st := post(maxSubmitBytes / 2); st != http.StatusBadRequest {
		t.Errorf("in-bound body: status %d, want 400", st)
	}
}
