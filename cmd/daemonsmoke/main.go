// Command daemonsmoke is the end-to-end smoke harness for savatd (run
// as `make daemon-smoke`). It builds the daemon, starts it on a random
// port with a temporary state directory, and drives the full campaign
// lifecycle over the HTTP API:
//
//  1. submit a 3×3 campaign and cancel it mid-run via DELETE,
//  2. resubmit the identical spec and watch it resume from the cells
//     the cancelled run left in the daemon's result cache (cached
//     cells > 0),
//  3. stream the progress events (NDJSON),
//  4. fetch the finished matrix and diff it bit-for-bit against a
//     direct in-process savat.RunSpecContext of the same spec,
//  5. submit the first spec again at another distance: every cell
//     computes (the distance is in each cell key), but no synthesis
//     product does (no product key holds a distance, and the daemon's
//     products are shared process-wide), so savat.synthcache.misses on
//     /metrics stays put, and the matrix is bit-identical to one
//     measured pair by pair through savat.Measurer.MeasurePair, which
//     computes every product itself,
//  6. SIGKILL the daemon mid-campaign, as soon as its store reports
//     cells appended, restart it on the same state directory, and watch
//     the resubmitted campaign resume from the durable cell store (a
//     SIGKILL skips every shutdown path, so each resumed cell must have
//     reached the segment file by its Put alone) and compute the rest,
//     finishing bit-identical to a direct run,
//  7. run a power-channel campaign through the same cancel/resume
//     cycle: the channel dimension must reach the daemon's fingerprint
//     and cell keys intact, and the resumed matrix must be
//     bit-identical to a direct in-process run of the same spec.
//
// Any divergence, HTTP error, or timeout exits non-zero.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/savat"
	"repro/internal/service"
	"repro/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "daemon-smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("daemon-smoke: PASS")
}

// smokeSpec is the campaign the smoke run submits: a 3×3 grid with
// one-second captures and three repetitions, enough work (run with
// -parallelism 1) that the mid-run DELETE below lands with over twenty
// cells still outstanding — a margin that has to absorb the simulator
// getting faster release over release, so err well on the slow side.
func smokeSpec() savat.CampaignSpec {
	spec := savat.DefaultCampaignSpec()
	spec.Config = savat.FastConfig()
	spec.Config.Duration = 1.0
	spec.Events = []savat.Event{savat.ADD, savat.LDM, savat.DIV}
	spec.Repeats = 3
	spec.Seed = 11
	return spec
}

func run() error {
	tmp, err := os.MkdirTemp("", "daemonsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// Build the daemon binary; `go run` would put a wrapper process
	// between us and savatd and swallow the SIGTERM at the end.
	bin := filepath.Join(tmp, "savatd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/savatd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building savatd: %w", err)
	}

	stateDir := filepath.Join(tmp, "state")
	daemon, base, err := startDaemon(bin, stateDir)
	if err != nil {
		return err
	}
	defer func() {
		daemon.Process.Signal(syscall.SIGTERM)
		daemon.Wait()
	}()
	fmt.Println("daemon-smoke: daemon at", base)

	spec := smokeSpec()
	total := len(spec.Events) * len(spec.Events) * spec.Repeats

	// Submit and cancel mid-run: wait for two cells to stream, then
	// DELETE the campaign.
	first, err := submit(base, spec)
	if err != nil {
		return err
	}
	fmt.Println("daemon-smoke: submitted", first.ID)
	if err := streamEvents(base, first.ID, 2); err != nil {
		return err
	}
	// DELETE requests cancellation; the job reaches the cancelled state
	// asynchronously once the engine unwinds.
	if _, err := cancel(base, first.ID); err != nil {
		return err
	}
	final, err := awaitTerminal(base, first.ID)
	if err != nil {
		return err
	}
	if final.State != service.StateCancelled {
		return fmt.Errorf("job %s after DELETE: %s, want cancelled", first.ID, final.State)
	}
	fmt.Printf("daemon-smoke: cancelled %s after %d/%d cells\n", first.ID, final.Stats.Done, total)

	// Resubmit the identical spec: its cell keys match, so the result
	// cache must serve the cancelled run's finished cells.
	second, err := submit(base, spec)
	if err != nil {
		return err
	}
	if second.Fingerprint != first.Fingerprint {
		return fmt.Errorf("same spec, different fingerprints: %s vs %s", second.Fingerprint, first.Fingerprint)
	}
	if err := streamEvents(base, second.ID, total); err != nil {
		return err
	}
	final, err = awaitTerminal(base, second.ID)
	if err != nil {
		return err
	}
	if final.State != service.StateDone {
		return fmt.Errorf("resumed job %s: state %s, error %q", second.ID, final.State, final.Error)
	}
	if final.Stats.Cached == 0 {
		return fmt.Errorf("resumed job %s recomputed everything; the cache served nothing", second.ID)
	}
	fmt.Printf("daemon-smoke: resumed %s (%d cells from the cache, %d computed)\n",
		second.ID, final.Stats.Cached, final.Stats.Computed)

	// The daemon's matrix must match a direct in-process run bit for bit.
	var served savat.MatrixStats
	if err := getJSON(base+"/v1/campaigns/"+second.ID+"/result", &served); err != nil {
		return err
	}
	direct, err := savat.RunSpecContext(context.Background(), spec, engine.Options{})
	if err != nil {
		return err
	}
	a, _ := json.Marshal(served.Cells)
	b, _ := json.Marshal(direct.Cells)
	if !bytes.Equal(a, b) {
		return fmt.Errorf("daemon result diverges from direct run:\n%s\nvs\n%s", a, b)
	}
	fmt.Println("daemon-smoke: matrix bit-identical to direct run")

	// Phase 5: the first spec again at another distance, as the paper
	// measures one pair set at three distances.
	far := spec
	far.Config.Distance = 0.5
	misses, err := counterValue(base, "savat.synthcache.misses")
	if err != nil {
		return err
	}
	fj, err := submit(base, far)
	if err != nil {
		return err
	}
	if final, err = awaitTerminal(base, fj.ID); err != nil {
		return err
	}
	if final.State != service.StateDone {
		return fmt.Errorf("job %s at %g m: state %s, error %q", fj.ID, far.Config.Distance, final.State, final.Error)
	}
	if final.Stats.Computed != total {
		return fmt.Errorf("job %s at %g m computed %d of %d cells; the distance is in every cell key",
			fj.ID, far.Config.Distance, final.Stats.Computed, total)
	}
	after, err := counterValue(base, "savat.synthcache.misses")
	if err != nil {
		return err
	}
	if after != misses {
		return fmt.Errorf("job %s at %g m computed %d synthesis products; the first campaign's products should serve it",
			fj.ID, far.Config.Distance, after-misses)
	}
	fmt.Printf("daemon-smoke: %s at %g m computed %d cells and no synthesis product\n", fj.ID, far.Config.Distance, total)
	var servedFar savat.MatrixStats
	if err := getJSON(base+"/v1/campaigns/"+fj.ID+"/result", &servedFar); err != nil {
		return err
	}
	mc, err := far.MachineConfig()
	if err != nil {
		return err
	}
	events := far.GridEvents()
	pairwise := make([][]stats.Summary, len(events))
	for i, ea := range events {
		pairwise[i] = make([]stats.Summary, len(events))
		for j, eb := range events {
			if _, pairwise[i][j], err = savat.NewMeasurer(mc, far.Config).MeasurePair(ea, eb, far.Repeats, far.Seed); err != nil {
				return err
			}
		}
	}
	a, _ = json.Marshal(servedFar.Cells)
	b, _ = json.Marshal(pairwise)
	if !bytes.Equal(a, b) {
		return fmt.Errorf("result at %g m diverges from pairwise measurement:\n%s\nvs\n%s", far.Config.Distance, a, b)
	}
	fmt.Println("daemon-smoke: matrix at another distance bit-identical to pairwise measurement")

	// Phase 6: SIGKILL mid-campaign. A fresh spec (different seed) avoids
	// the cells already persisted above, and the restarted daemon starts
	// with an empty memory cache, so it can only resume from cells the
	// durable store appended before the kill. Four-second captures take
	// tens of milliseconds a cell, so the kill lands with most of the
	// grid outstanding.
	spec2 := smokeSpec()
	spec2.Seed = 23
	spec2.Config.Duration = 4
	appended, err := counterValue(base, "store.puts")
	if err != nil {
		return err
	}
	killed, err := submit(base, spec2)
	if err != nil {
		return err
	}
	fmt.Println("daemon-smoke: submitted", killed.ID, "(kill phase)")
	// Kill without any shutdown path as soon as the store has appended
	// three of the campaign's cells to its segment file: an appended
	// record survives SIGKILL.
	deadline := time.Now().Add(time.Minute)
	for n := appended; n < appended+3; {
		if time.Now().After(deadline) {
			return fmt.Errorf("kill-phase job %s: %d cells in the store after 1m, want 3", killed.ID, n-appended)
		}
		time.Sleep(5 * time.Millisecond)
		if n, err = counterValue(base, "store.puts"); err != nil {
			return err
		}
	}
	if err := daemon.Process.Kill(); err != nil {
		return fmt.Errorf("SIGKILL: %w", err)
	}
	daemon.Wait()
	fmt.Println("daemon-smoke: daemon SIGKILLed mid-campaign")

	daemon, base, err = startDaemon(bin, stateDir)
	if err != nil {
		return fmt.Errorf("restarting after SIGKILL: %w", err)
	}
	fmt.Println("daemon-smoke: restarted at", base)

	resumed, err := submit(base, spec2)
	if err != nil {
		return err
	}
	if resumed.Fingerprint != killed.Fingerprint {
		return fmt.Errorf("same spec, different fingerprints: %s vs %s", resumed.Fingerprint, killed.Fingerprint)
	}
	final, err = awaitTerminal(base, resumed.ID)
	if err != nil {
		return err
	}
	if final.State != service.StateDone {
		return fmt.Errorf("post-kill job %s: state %s, error %q", resumed.ID, final.State, final.Error)
	}
	if final.Stats.Cached == 0 || final.Stats.Computed == 0 {
		return fmt.Errorf("post-kill job %s: %d cells from the store, %d computed; want both > 0 (the store recovers the appended cells of a campaign killed mid-run)",
			resumed.ID, final.Stats.Cached, final.Stats.Computed)
	}
	fmt.Printf("daemon-smoke: resumed %s after SIGKILL (%d cells from the store, %d computed)\n",
		resumed.ID, final.Stats.Cached, final.Stats.Computed)

	var served2 savat.MatrixStats
	if err := getJSON(base+"/v1/campaigns/"+resumed.ID+"/result", &served2); err != nil {
		return err
	}
	direct2, err := savat.RunSpecContext(context.Background(), spec2, engine.Options{})
	if err != nil {
		return err
	}
	a, _ = json.Marshal(served2.Cells)
	b, _ = json.Marshal(direct2.Cells)
	if !bytes.Equal(a, b) {
		return fmt.Errorf("post-kill result diverges from direct run:\n%s\nvs\n%s", a, b)
	}
	fmt.Println("daemon-smoke: post-kill matrix bit-identical to direct run")

	// Phase 7: a conducted-channel campaign through the cancel/resume
	// cycle. The channel dimension is part of the spec's fingerprint and
	// cell keys, so the resumed run may only be served cells the power
	// campaign itself finished — never the EM cells persisted above.
	spec3 := smokeSpec()
	spec3.Config.Channel = "power"
	spec3.Config.Environment = machine.Channels()["power"].Environment()
	spec3.Seed = 31
	pj, err := submit(base, spec3)
	if err != nil {
		return err
	}
	fmt.Println("daemon-smoke: submitted", pj.ID, "(power channel)")
	if err := streamEvents(base, pj.ID, 2); err != nil {
		return err
	}
	if _, err := cancel(base, pj.ID); err != nil {
		return err
	}
	if final, err = awaitTerminal(base, pj.ID); err != nil {
		return err
	}
	if final.State != service.StateCancelled {
		return fmt.Errorf("power job %s after DELETE: %s, want cancelled", pj.ID, final.State)
	}
	pr, err := submit(base, spec3)
	if err != nil {
		return err
	}
	if pr.Fingerprint != pj.Fingerprint {
		return fmt.Errorf("same power spec, different fingerprints: %s vs %s", pr.Fingerprint, pj.Fingerprint)
	}
	if pr.Fingerprint == killed.Fingerprint {
		return fmt.Errorf("power campaign fingerprint collides with the EM campaign's")
	}
	if final, err = awaitTerminal(base, pr.ID); err != nil {
		return err
	}
	if final.State != service.StateDone {
		return fmt.Errorf("resumed power job %s: state %s, error %q", pr.ID, final.State, final.Error)
	}
	if final.Stats.Cached == 0 {
		return fmt.Errorf("resumed power job %s recomputed everything; the cache served nothing", pr.ID)
	}
	fmt.Printf("daemon-smoke: resumed power campaign %s (%d cells from the cache, %d computed)\n",
		pr.ID, final.Stats.Cached, final.Stats.Computed)

	var served3 savat.MatrixStats
	if err := getJSON(base+"/v1/campaigns/"+pr.ID+"/result", &served3); err != nil {
		return err
	}
	direct3, err := savat.RunSpecContext(context.Background(), spec3, engine.Options{})
	if err != nil {
		return err
	}
	a, _ = json.Marshal(served3.Cells)
	b, _ = json.Marshal(direct3.Cells)
	if !bytes.Equal(a, b) {
		return fmt.Errorf("power-channel result diverges from direct run:\n%s\nvs\n%s", a, b)
	}
	fmt.Println("daemon-smoke: power-channel matrix bit-identical to direct run")
	return nil
}

// startDaemon launches the built savatd on a random port over stateDir
// and returns the process and its base URL.
func startDaemon(bin, stateDir string) (*exec.Cmd, string, error) {
	daemon := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-state-dir", stateDir,
		"-max-active", "1",
		"-parallelism", "1",
	)
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		return nil, "", fmt.Errorf("starting savatd: %w", err)
	}
	base, err := listenAddr(stdout)
	if err != nil {
		daemon.Process.Kill()
		daemon.Wait()
		return nil, "", err
	}
	return daemon, base, nil
}

// listenAddr reads the daemon's startup line ("savatd: listening on
// http://ADDR") and returns the base URL.
func listenAddr(stdout interface{ Read([]byte) (int, error) }) (string, error) {
	type result struct {
		base string
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Println("daemon-smoke: savatd:", line)
			if i := strings.Index(line, "listening on "); i >= 0 {
				ch <- result{base: strings.TrimSpace(line[i+len("listening on "):])}
				// Keep draining so the daemon never blocks on stdout.
				for sc.Scan() {
				}
				return
			}
		}
		ch <- result{err: fmt.Errorf("savatd exited before announcing its address")}
	}()
	select {
	case r := <-ch:
		return r.base, r.err
	case <-time.After(30 * time.Second):
		return "", fmt.Errorf("timed out waiting for savatd to listen")
	}
}

func submit(base string, spec savat.CampaignSpec) (service.Job, error) {
	var jb service.Job
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return jb, err
	}
	body, err := json.Marshal(service.SubmitRequest{Spec: specJSON, Tenant: "smoke"})
	if err != nil {
		return jb, err
	}
	resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return jb, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return jb, fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	return jb, json.NewDecoder(resp.Body).Decode(&jb)
}

// streamEvents reads the NDJSON event stream until n events arrived,
// then drops the connection (the daemon must tolerate that).
func streamEvents(base, id string, n int) error {
	resp, err := http.Get(base + "/v1/campaigns/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	seen := 0
	for seen < n && sc.Scan() {
		var ev engine.ProgressEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("bad event line %q: %v", sc.Text(), err)
		}
		seen++
	}
	if seen < n {
		return fmt.Errorf("event stream for %s ended after %d events, want %d", id, seen, n)
	}
	return nil
}

func cancel(base, id string) (service.Job, error) {
	var jb service.Job
	req, err := http.NewRequest("DELETE", base+"/v1/campaigns/"+id, nil)
	if err != nil {
		return jb, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return jb, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jb, fmt.Errorf("cancel %s: status %d", id, resp.StatusCode)
	}
	return jb, json.NewDecoder(resp.Body).Decode(&jb)
}

func awaitTerminal(base, id string) (service.Job, error) {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var jb service.Job
		if err := getJSON(base+"/v1/campaigns/"+id, &jb); err != nil {
			return jb, err
		}
		if jb.State.Terminal() {
			return jb, nil
		}
		if time.Now().After(deadline) {
			return jb, fmt.Errorf("job %s still %s after 2m", id, jb.State)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// counterValue reads one of savatd's counters from /metrics, such as
// store.puts (the cell records its store has appended since the daemon
// started); 0 when it has none of that name.
func counterValue(base, name string) (uint64, error) {
	var snap obs.Snapshot
	if err := getJSON(base+"/metrics", &snap); err != nil {
		return 0, err
	}
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value, nil
		}
	}
	return 0, nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
