#!/usr/bin/env python3
"""End-to-end benchmark of the SAVAT reproduction, with a per-layer ledger.

Run from the repository root:

    python3 -B savatbench/run.py --workload fig9-fast --seed 1 --seconds 20 --trace 0

The script builds cmd/savat and cmd/savatd from the checkout it runs in
(Go caches and temporary files stay under .bench_build/), then drives the
two programs through the surfaces their users see:

  fig9-fast   the Figure 9 matrix: Core 2 Duo at 10 cm, all 11x11 event
              pairs, quarter-second captures, one repetition. One
              operation is one `savat -spec F -matrix -format csv` process.
  capture-1s  the paper's full one-second capture on the ADD/LDM pair's
              2x2 grid, two repetitions: few cells, long captures, so
              synthesis and Welch analysis dominate and little is shared
              between cells. One operation is one `savat` process.
  savatd-mix  two tenants against one long-running savatd over HTTP. One
              operation is one round: both tenants submit the same new
              3x3 campaign at once (in-flight deduplication), then one
              resubmits it (result cache) while the other submits a grid
              sharing four of its pairs (partial cache hits).

The workload seed (--seed) picks the campaign seeds; the event grids and
campaign sizes are fixed, so every seed asks for the same amount of work.
Operations run back to back (a closed loop) for --seconds seconds after one
untimed warm-up operation.

Correctness: every matrix must be finite and positive, repeated runs of a
campaign must agree exactly, the Figure 9 matrix must rank like the
paper's (Spearman), the ADD/LDM signal must stand above its diagonal
floor, the daemon's overlapping campaigns must agree cell for cell, and
one daemon campaign per run must match the CLI's matrix for the same spec.

End-to-end metrics (--trace 0), per operation: latency_ms and p90_ms, the
median and 90th-percentile wall time; cpu_ms, the program's mean user +
system CPU; setup_s, the median time the program takes to start and
become ready (savat loading and re-emitting the spec; savatd restarting
on its state directory until its API answers).

--trace 1 runs the same loop with the programs' observability registry
on (savat -metrics-addr prints it on exit; savatd always records and
serves /metrics) and reports the per-layer ledger, per operation: stage
times summed over the parallel workers and work counts.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import concurrent.futures
import http.client
import json
import math
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
SAVAT = os.path.join(BIN, "savat")
SAVATD = os.path.join(BIN, "savatd")

WORKLOADS = ("fig9-fast", "capture-1s", "savatd-mix")

# Per-process timeout for one CLI operation or daemon request; far above
# any healthy operation, low enough that a hang still ends the run within
# the benchmark's 180 s limit.
OP_TIMEOUT_S = 60

# Start-up probes per run; setup_s is their median.
SETUP_PROBES_CLI = 9
SETUP_PROBES_DAEMON = 5

# The paper's Figure 9 (Core 2 Duo, 10 cm, 80 kHz), in zJ, rows = A,
# columns = B, in the event order below.
PAPER_EVENTS = ["LDM", "STM", "LDL2", "STL2", "LDL1", "STL1", "NOI", "ADD", "SUB", "MUL", "DIV"]
PAPER_FIG9 = [
    [1.8, 2.4, 7.9, 11.5, 4.6, 4.4, 4.3, 4.2, 4.4, 4.2, 5.1],
    [2.3, 2.4, 8.8, 11.8, 4.3, 4.2, 3.8, 3.9, 3.9, 4.3, 4.2],
    [7.7, 7.7, 0.6, 0.8, 3.9, 3.5, 4.3, 3.6, 4.8, 3.8, 6.2],
    [11.5, 10.6, 0.8, 0.7, 5.1, 6.1, 6.1, 6.1, 6.1, 6.2, 10.1],
    [4.4, 4.2, 3.3, 5.8, 0.7, 0.6, 0.7, 0.7, 0.7, 0.7, 1.3],
    [4.5, 4.2, 3.8, 4.9, 0.7, 0.6, 0.7, 0.6, 0.6, 0.6, 1.2],
    [4.1, 3.8, 4.1, 6.4, 0.7, 0.7, 0.6, 0.6, 0.7, 0.6, 1.0],
    [4.2, 4.1, 4.1, 7.0, 0.7, 0.7, 0.6, 0.7, 0.6, 0.6, 1.0],
    [4.4, 4.0, 3.8, 7.3, 0.7, 0.6, 0.7, 0.6, 0.6, 0.6, 1.1],
    [4.4, 3.9, 3.7, 5.7, 0.7, 0.7, 0.6, 0.6, 0.6, 0.6, 1.1],
    [5.0, 4.6, 6.9, 9.3, 1.3, 1.2, 1.0, 1.1, 1.1, 1.1, 0.8],
]
# One-repetition fast matrices rank like the paper at rho ~0.94 and sit
# within a typical factor ~1.2 of its cells (geometric mean of the
# per-cell ratio); a model or pipeline bug breaks one of these bounds.
FIG9_MIN_SPEARMAN = 0.85
FIG9_MAX_CELL_RATIO = 1.6
# Paper ADD/LDM at 10 cm; the simulated value must be within this factor.
PAPER_ADD_LDM_ZJ = 4.2
ADD_LDM_FACTOR = 2.0

# savatd-mix grids: the overlap grid shares the 2x2 pairs of LDM and DIV
# with the first grid, so 8 of its 18 cells are cache hits.
MIX_GRID = ["ADD", "LDM", "DIV"]
MIX_OVERLAP = ["LDM", "DIV", "LDL2"]
MIX_REPEATS = 2

# End-to-end, per operation: median and 90th-percentile wall time, and
# the mean host CPU (user + system) the program spent.
END_TO_END = (("latency_ms", "ms"), ("p90_ms", "ms"), ("cpu_ms", "ms"), ("setup_s", "s"))

# Per-layer ledger, per operation. Times are the registry's histogram
# totals, summed over the parallel workers; counts are counter deltas.
LEDGER = (
    ("wall_ms", "ms"),  # traced operation wall time, client side
    ("engine_cell_ms", "ms"),  # engine.cell: every computed cell
    ("measure_ms", "ms"),  # savat.measure: the measurement pipeline
    ("alternation_ms", "ms"),  # cycle-level alternation simulation
    ("radiate_ms", "ms"),  # radiator calibration and phase amplitudes
    ("synthesize_ms", "ms"),  # envelope and noise synthesis + Welch products
    ("render_ms", "ms"),  # rest of savat.measure: product lookups, render, band power
    ("analyze_ms", "ms"),  # specan: Welch products and trace render
    ("fft_ms", "ms"),  # dsp segment transforms
    ("unattributed_ms", "ms"),  # engine.cell minus savat.measure
    ("cells_computed", "count"),
    ("cells_cached", "count"),
    ("cells_deduped", "count"),
    ("alt_sims", "count"),  # alternation simulations (alt-cache misses)
    ("synth_products", "count"),  # synthesis products computed
    ("synth_hits", "count"),  # synthesis products reused
    ("envelope_samples", "count"),  # envelope samples synthesized
    ("noise_samples", "count"),  # noise samples synthesized
    ("fft_segments", "count"),
    ("store_puts", "count"),  # durable cell-store writes
)


class BenchError(Exception):
    """A failure of the benchmark's own machinery: no result is printed."""


# ---------------------------------------------------------------- inputs


def measure_config(duration):
    """The paper's measurement setup (savat DefaultConfig), spelled out so
    the benchmark's inputs do not move when the program's defaults do."""
    return {
        "distance": 0.1,
        "frequency": 80000,
        "band_half_width": 1000,
        "sample_rate": 262144,
        "duration": duration,
        "warmup_periods": 3,
        "measure_periods": 6,
        "environment": {
            "thermal_psd": 6e-18,
            "rf_background_psd": 3.8e-17,
            "rf_background_spread": 0.12,
            "carriers": [{"freq": 81700, "power": 2.5e-13, "am_depth": 0.3, "am_rate": 7}],
        },
        "analyzer": {"rbw": 1, "window": "hann", "floor_psd": 6e-18},
        "jitter": {
            "freq_offset": 0.005,
            "drift_std": 0.0007,
            "max_drift": 0.004,
            "amp_noise_std": 0,
            "amp_noise_corr": 0,
        },
        "channel": "em",
    }


def campaign_spec(events, duration, repeats, seed):
    return {
        "version": 2,
        "machine": "Core2Duo",
        "config": measure_config(duration),
        "events": list(events),
        "repeats": repeats,
        "seed": seed,
    }


def seed_stream(workload, seed):
    """Campaign seeds for one run, derived from the workload seed only."""
    rng = random.Random("%s:%d" % (workload, seed))
    while True:
        yield rng.randrange(1, 1 << 31)


# ---------------------------------------------------------------- build


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOTMPDIR=os.path.join(BUILD, "go-tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        raise BenchError("run from the repository root: no go.mod in %s" % ROOT)
    env = go_env()
    for d in (BIN, env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    for name in ("savat", "savatd"):
        p = subprocess.run(
            ["go", "build", "-o", os.path.join(BIN, name), "./cmd/" + name],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=840,
        )
        if p.returncode != 0:
            raise BenchError("building %s failed:\n%s" % (name, p.stdout.decode(errors="replace")))


# ---------------------------------------------------------------- checks


def ranks(xs):
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    r = [0.0] * len(xs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        for k in range(i, j + 1):
            r[order[k]] = (i + j) / 2.0 + 1
        i = j + 1
    return r


def spearman(a, b):
    ra, rb = ranks(a), ranks(b)
    ma, mb = statistics.fmean(ra), statistics.fmean(rb)
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = sum((x - ma) ** 2 for x in ra)
    vb = sum((y - mb) ** 2 for y in rb)
    return cov / math.sqrt(va * vb)


def parse_csv(text):
    """Parse `savat -format csv` output: (events, rows of zJ values)."""
    lines = text.strip().splitlines()
    if len(lines) < 2:
        raise ValueError("matrix CSV has no rows")
    events = lines[0].split(",")[1:]
    vals = []
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if i >= len(events) or cells[0] != events[i] or len(cells) != len(events) + 1:
            raise ValueError("malformed matrix CSV row %r" % line)
        vals.append([float(c) for c in cells[1:]])
    if len(vals) != len(events):
        raise ValueError("matrix CSV is %d rows for %d events" % (len(vals), len(events)))
    return events, vals


def finite_positive(vals):
    return all(math.isfinite(v) and v > 0 for row in vals for v in row)


def check_fig9(events, vals):
    if events != PAPER_EVENTS:
        return "fig9 events %s, want %s" % (events, PAPER_EVENTS)
    if not finite_positive(vals):
        return "fig9 matrix has a non-finite or non-positive cell"
    sim = [v for row in vals for v in row]
    paper = [v for row in PAPER_FIG9 for v in row]
    rho = spearman(sim, paper)
    if rho < FIG9_MIN_SPEARMAN:
        return "fig9 Spearman vs paper %.3f < %.2f" % (rho, FIG9_MIN_SPEARMAN)
    ratio = 10 ** statistics.fmean(abs(math.log10(a / b)) for a, b in zip(sim, paper))
    if ratio > FIG9_MAX_CELL_RATIO:
        return "fig9 typical cell ratio vs paper %.2f > %.2f" % (ratio, FIG9_MAX_CELL_RATIO)
    return None


def check_add_ldm(zj):
    if not PAPER_ADD_LDM_ZJ / ADD_LDM_FACTOR <= zj <= PAPER_ADD_LDM_ZJ * ADD_LDM_FACTOR:
        return "ADD/LDM %.4f zJ outside %gx of the paper's %.1f zJ" % (zj, ADD_LDM_FACTOR, PAPER_ADD_LDM_ZJ)
    return None


def check_capture(events, vals):
    if events != ["ADD", "LDM"]:
        return "capture events %s, want [ADD LDM]" % events
    if not finite_positive(vals):
        return "capture matrix has a non-finite or non-positive cell"
    floor = max(vals[0][0], vals[1][1])
    for v in (vals[0][1], vals[1][0]):
        if v <= floor:
            return "ADD/LDM signal %.4f zJ not above the diagonal floor %.4f zJ" % (v, floor)
    return check_add_ldm(vals[0][1])


# ---------------------------------------------------------------- ledger


def _duration_ms(tok):
    m = re.fullmatch(r"([0-9.]+)(ns|µs|ms|s)?", tok)
    if not m:
        raise ValueError("bad duration %r" % tok)
    scale = {"ns": 1e-6, "µs": 1e-3, "ms": 1.0, "s": 1e3, None: 0.0}[m.group(2)]
    return float(m.group(1)) * scale


def parse_obs_summary(stderr):
    """Read the end-of-run table `savat -metrics-addr` writes to stderr
    into {"hist": {name: total_ms}, "count": {name: value}}."""
    reg = {"hist": {}, "count": {}}
    lines = stderr.splitlines()
    try:
        start = next(i for i, l in enumerate(lines) if "observability summary" in l)
    except StopIteration:
        raise ValueError("no observability summary on stderr")
    for line in lines[start + 1:]:
        tok = line.split()
        if len(tok) == 7 and tok[0] != "stage":
            reg["hist"][tok[0]] = _duration_ms(tok[2])
        elif len(tok) == 2 and re.fullmatch(r"[0-9]+", tok[1]):
            reg["count"][tok[0]] = int(tok[1])
    return reg


def registry_from_snapshot(snap):
    """The same shape from savatd's /metrics JSON snapshot."""
    reg = {"hist": {}, "count": {}}
    for h in snap.get("histograms") or []:
        reg["hist"][h["name"]] = h["sum_ns"] / 1e6
    for c in snap.get("counters") or []:
        reg["count"][c["name"]] = c["value"]
    return reg


def registry_add(acc, reg, sign=1):
    for kind in ("hist", "count"):
        for k, v in reg[kind].items():
            acc[kind][k] = acc[kind].get(k, 0) + sign * v


def ledger_metrics(reg, ops, wall_s):
    h = lambda n: reg["hist"].get(n, 0.0) / ops
    c = lambda n: reg["count"].get(n, 0) / ops
    vals = {
        "wall_ms": wall_s * 1e3 / ops,
        "engine_cell_ms": h("engine.cell"),
        "measure_ms": h("savat.measure"),
        "alternation_ms": h("savat.stage.alternation"),
        "radiate_ms": h("savat.stage.radiate"),
        "synthesize_ms": h("savat.stage.synthesize"),
        "render_ms": h("savat.measure") - h("savat.stage.alternation") - h("savat.stage.radiate")
        - h("savat.stage.synthesize"),
        "analyze_ms": h("specan.analyze"),
        "fft_ms": h("dsp.fft.segment"),
        "unattributed_ms": h("engine.cell") - h("savat.measure"),
        "cells_computed": c("engine.cells.computed"),
        "cells_cached": c("engine.cells.cached"),
        "cells_deduped": c("engine.cells.deduped"),
        "alt_sims": c("savat.altcache.misses"),
        "synth_products": c("savat.synthcache.misses"),
        "synth_hits": c("savat.synthcache.hits"),
        "envelope_samples": c("emsim.samples"),
        "noise_samples": c("noise.samples"),
        "fft_segments": c("dsp.fft.segments"),
        "store_puts": c("store.puts"),
    }
    return {name: {"value": vals[name], "unit": unit} for name, unit in LEDGER}


# ---------------------------------------------------------------- runs


class Run:
    """Bookkeeping for one benchmark run: attempts, failures, problems."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.env = dict(os.environ, TMPDIR=os.path.join(workdir, "tmp"))
        os.makedirs(self.env["TMPDIR"], exist_ok=True)

    def problem(self, msg):
        if len(self.problems) < 20:
            self.problems.append(msg)

    def path(self, name):
        return os.path.join(self.workdir, name)


def closed_loop(seconds, op):
    """Run op back to back for `seconds` (at least once); returns the
    per-op wall times in seconds."""
    walls = []
    end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        op()
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() >= end:
            return walls


def p90(xs):
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


def end_to_end(walls, cpu_s, setup):
    vals = {
        "latency_ms": statistics.median(walls) * 1e3,
        "p90_ms": p90(walls) * 1e3,
        "cpu_ms": cpu_s * 1e3 / len(walls),
        "setup_s": setup,
    }
    return {name: {"value": vals[name], "unit": unit} for name, unit in END_TO_END}


def children_cpu_s():
    """User + system CPU of every child process waited for so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def time_cmd(args, env):
    t0 = time.perf_counter()
    p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, timeout=OP_TIMEOUT_S)
    return time.perf_counter() - t0, p


def cli_setup(run, spec_path):
    """savat start-up: load and validate the spec, resolve the machine,
    write the canonical spec back (-emit-spec), exit."""
    times = []
    for _ in range(SETUP_PROBES_CLI):
        out = run.path("emitted.json")
        dt, p = time_cmd([SAVAT, "-spec", spec_path, "-emit-spec", out], run.env)
        if p.returncode != 0:
            raise BenchError("savat -emit-spec failed: %s" % p.stderr.decode(errors="replace"))
        with open(out) as f:
            if json.load(f).get("machine") != "Core2Duo":
                run.problem("emitted spec lost its machine")
        times.append(dt)
    return statistics.median(times)


def run_cli_workload(run, name, seed, seconds, trace):
    seeds = seed_stream(name, seed)
    if name == "fig9-fast":
        spec, check = campaign_spec(PAPER_EVENTS, 0.25, 1, next(seeds)), check_fig9
    else:
        spec, check = campaign_spec(["ADD", "LDM"], 1.0, 2, next(seeds)), check_capture
    spec_path = run.path("spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)

    setup = cli_setup(run, spec_path)

    args = [SAVAT, "-spec", spec_path, "-matrix", "-format", "csv"]
    if trace:
        args += ["-metrics-addr", "127.0.0.1:0"]
    reference = []
    reg = {"hist": {}, "count": {}}
    warm = False

    def op():
        run.attempted += 1
        _, p = time_cmd(args, run.env)
        if p.returncode != 0:
            run.failed += 1
            run.problem("savat exited %d: %s" % (p.returncode, p.stderr.decode(errors="replace")[-400:]))
            return
        out = p.stdout.decode()
        if not reference:
            reference.append(out)
            try:
                err = check(*parse_csv(out))
            except ValueError as e:
                err = str(e)
            if err:
                run.problem(err)
        elif out != reference[0]:
            run.problem("the same campaign produced a different matrix")
        if trace and warm:
            try:
                registry_add(reg, parse_obs_summary(p.stderr.decode(errors="replace")))
            except ValueError as e:
                run.problem(str(e))

    op()  # warm-up, untimed
    warm = True
    cpu0 = children_cpu_s()
    walls = closed_loop(seconds, op)
    if trace:
        return ledger_metrics(reg, len(walls), sum(walls))
    return end_to_end(walls, children_cpu_s() - cpu0, setup)


# ---------------------------------------------------------------- savatd


class Daemon:
    """One savatd process on 127.0.0.1, an ephemeral port, and state_dir."""

    def __init__(self, run, state_dir):
        self.proc = subprocess.Popen(
            [SAVATD, "-addr", "127.0.0.1:0", "-state-dir", state_dir],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=run.env,
        )
        line = self.proc.stdout.readline().decode(errors="replace")
        m = re.search(r"listening on http://([0-9.]+):([0-9]+)", line)
        if not m:
            self.stop()
            raise BenchError("savatd did not announce its address: %r" % line)
        self.host, self.port = m.group(1), int(m.group(2))

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=OP_TIMEOUT_S)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        if resp.status >= 300:
            raise BenchError("%s %s: HTTP %d %s" % (method, path, resp.status, data[:300]))
        return data

    def cpu_s(self):
        """The daemon's user + system CPU so far (Linux /proc)."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def get_json(self, path):
        return json.loads(self.request("GET", path))

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def run_campaign(d, tenant, spec):
    """Submit spec as tenant, stream its events to the end, fetch the
    result. Returns (result, number of progress events)."""
    job = json.loads(d.request("POST", "/v1/campaigns", json.dumps({"spec": spec, "tenant": tenant})))
    events = d.request("GET", "/v1/campaigns/%s/events" % job["id"]).count(b"\n")
    return d.get_json("/v1/campaigns/%s/result" % job["id"]), events


def cells_of(res):
    """{(A, B): [mean, min, max]} from a served MatrixStats."""
    ev = res["Mean"]["Events"]
    return {(a, b): [res["Cells"][i][j][k] for k in ("Mean", "Min", "Max")]
            for i, a in enumerate(ev) for j, b in enumerate(ev)}


def check_mix_round(run, twin_a, twin_b, again, overlap):
    for res, n in (twin_a, twin_b, again, overlap):
        want = len(res["Mean"]["Events"]) ** 2 * MIX_REPEATS
        if n != want:
            run.problem("campaign streamed %d events for %d cells" % (n, want))
        if not finite_positive(res["Mean"]["Vals"]):
            run.problem("daemon matrix has a non-finite or non-positive cell")
    base = cells_of(twin_a[0])
    err = check_add_ldm(base[("ADD", "LDM")][0] * 1e21)
    if err:
        run.problem(err)
    if cells_of(twin_b[0]) != base or cells_of(again[0]) != base:
        run.problem("identical daemon campaigns returned different cells")
    if again[0]["Engine"]["cached"] != len(base) * MIX_REPEATS:
        run.problem("resubmitted campaign recomputed cells: %s" % again[0]["Engine"])
    for pair, v in cells_of(overlap[0]).items():
        if pair in base and base[pair] != v:
            run.problem("overlapping campaigns disagree on %s/%s" % pair)


def check_against_cli(run, spec, res):
    """The daemon's matrix must equal the CLI's for the same spec."""
    path = run.path("cross.json")
    with open(path, "w") as f:
        json.dump(spec, f)
    _, p = time_cmd([SAVAT, "-spec", path, "-matrix", "-format", "csv"], run.env)
    if p.returncode != 0:
        run.problem("savat cross-check failed: %s" % p.stderr.decode(errors="replace")[-300:])
        return
    events, vals = parse_csv(p.stdout.decode())
    served = res["Mean"]
    if events != served["Events"]:
        run.problem("CLI and daemon grids differ: %s vs %s" % (events, served["Events"]))
        return
    for i, row in enumerate(served["Vals"]):
        for j, v in enumerate(row):
            if abs(v * 1e21 - vals[i][j]) > 1e-4 + 1e-6 * abs(vals[i][j]):
                run.problem("daemon %s/%s = %r zJ, CLI %r zJ" % (events[i], events[j], v * 1e21, vals[i][j]))
                return


def run_savatd_workload(run, seed, seconds, trace):
    seeds = seed_stream("savatd-mix", seed)
    state = run.path("state")
    pool = concurrent.futures.ThreadPoolExecutor(max_workers=2)
    daemon = None
    try:
        # Seed the state directory with one campaign (cross-checked
        # against the CLI), then time daemon start-up on it: spawn, store
        # open and replay, first API answer.
        daemon = Daemon(run, state)
        first = campaign_spec(MIX_GRID, 0.25, MIX_REPEATS, next(seeds))
        check_against_cli(run, first, run_campaign(daemon, "tenant-a", first)[0])
        daemon.stop()
        daemon = None
        starts = []
        for _ in range(SETUP_PROBES_DAEMON):
            t0 = time.perf_counter()
            daemon = Daemon(run, state)
            daemon.get_json("/v1/campaigns")
            starts.append(time.perf_counter() - t0)
            daemon.stop()
            daemon = None
        setup = statistics.median(starts)

        daemon = Daemon(run, state)

        def op():
            run.attempted += 1
            s = next(seeds)
            grid = campaign_spec(MIX_GRID, 0.25, MIX_REPEATS, s)
            overlap = campaign_spec(MIX_OVERLAP, 0.25, MIX_REPEATS, s)
            try:
                twin = list(pool.map(lambda t: run_campaign(daemon, t, grid), ("tenant-a", "tenant-b")))
                again = pool.submit(run_campaign, daemon, "tenant-a", grid)
                over = pool.submit(run_campaign, daemon, "tenant-b", overlap)
                check_mix_round(run, twin[0], twin[1], again.result(), over.result())
            except (BenchError, OSError, http.client.HTTPException, ValueError, KeyError) as e:
                run.failed += 1
                run.problem("savatd round failed: %s" % e)

        op()  # warm-up, untimed
        before = registry_from_snapshot(daemon.get_json("/metrics")) if trace else None
        cpu0 = daemon.cpu_s()
        walls = closed_loop(seconds, op)
        if trace:
            reg = registry_from_snapshot(daemon.get_json("/metrics"))
            registry_add(reg, before, -1)
            return ledger_metrics(reg, len(walls), sum(walls))
        return end_to_end(walls, daemon.cpu_s() - cpu0, setup)
    finally:
        pool.shutdown(wait=True)
        if daemon is not None:
            daemon.stop()


# ---------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
        workdir = os.path.join(BUILD, "run-%d" % os.getpid())
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        try:
            run = Run(workdir)
            if args.workload == "savatd-mix":
                metrics = run_savatd_workload(run, args.seed, args.seconds, args.trace)
            else:
                metrics = run_cli_workload(run, args.workload, args.seed, args.seconds, args.trace)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        print("savatbench: %s" % e, file=sys.stderr)
        return 1

    for p in run.problems:
        print("savatbench: check failed: %s" % p, file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
