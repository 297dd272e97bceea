#!/usr/bin/env python3
"""The repository's benchmark: workloads plan, simulate and serve.

Run from the root of the repository:

  python3 perfbench/run.py --workload plan --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 1
  python3 perfbench/run.py --workload simulate --repeat 5
  python3 perfbench/run.py --workload all

It builds the release binaries with dune, starts them directly (never
through `dune exec`), runs the workload in its own processes, checks
their outputs and prints every metric with its unit and sample count.
--workload all runs the three in turn. The last line of standard
output is one JSON object. With --trace 0
it holds the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a separate traced run. --repeat K runs the workload K times
with seeds seed..seed+K-1 and prints each metric's median and
quartiles. The command exits nonzero when the build fails or when an
output check fails. WORKLOADS.md says why each workload was chosen.
"""

import argparse
import http.client
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats as bs  # noqa: E402

WORKLOADS = ("plan", "simulate", "serve")

# serve's tail percentile: the highest one that a run resolves with at
# least ten samples beyond it
SERVE_TAIL = 0.99

# how many times a run sets up, so that setup_s is a median
SETUPS = {"plan": 31, "simulate": 31, "serve": 3}

# The reference kernel's time on a quiet machine: three 128 x 128
# matrix products (calib.ml), which the workload process times before
# its first operation and after each. The machine the benchmark shares
# changes speed by up to 2x for seconds to minutes at a time, so each
# operation time of plan and simulate is scaled by REFERENCE_MS over the
# kernel's time measured around it, and reads as the time on the quiet
# machine.
REFERENCE_MS = 8.4

# Process start slows in other periods than the kernel does, so set-up
# is scaled by a trivial process instead: run.py starts it alternately
# with the set-up spawns and scales their median by SPAWN_REFERENCE_MS,
# its start time on the quiet machine, over its median.
SPAWN_REFERENCE = ["/bin/echo", "ready"]
SPAWN_REFERENCE_MS = 1.3

SERVE_RATE = 150.0  # requests per second of the open loop
SERVE_OPEN_SHARE = 0.75  # of --seconds; the closed loop takes the rest
CLOSED_BATCH = 200  # requests per closed-loop batch timed by wall_s
P99_OBJECTIVE_MS = 250.0  # the default `urs serve` objective
MAX_RESIDUAL = 1e-10

OUT = ".bench_out"
CLI = os.path.join("_build", "default", "bin", "urs_cli.exe")
BENCH = os.path.join("_build", "default", "perfbench", "perfbench.exe")

class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        raise BenchError("run from the root of a urs checkout: no dune-project, lib/ or bin/ here")
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "--cache=disabled",
           "bin/urs_cli.exe", "perfbench/perfbench.exe"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout[-4000:])


# ---- processes ------------------------------------------------------------

def stop(p, timeout=20.0):
    """Ends a process we started and waits until it has ended."""
    if p.poll() is None:
        p.terminate()
        try:
            p.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
    for f in (p.stdout, p.stderr):
        if f:
            f.close()


def start_ready(args):
    """Starts a process; returns it and the seconds from spawn until it
    printed `ready`: for a workload process, until it could start its
    first timed operation."""
    t0 = time.perf_counter()
    p = subprocess.Popen(args, stdout=subprocess.PIPE, text=True)
    line = p.stdout.readline()
    dt = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(p)
        raise BenchError(f"{' '.join(args[:2])}: no ready line (got {line!r})")
    return p, dt


def result_of(p, timeout):
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(p)
        raise BenchError("a workload process timed out")
    if p.returncode != 0:
        raise BenchError(f"a workload process exited with code {p.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def bench_json(args, timeout):
    p = subprocess.Popen([BENCH] + args, stdout=subprocess.PIPE, text=True)
    return result_of(p, timeout)



def http_request(port, method, path, body=None, timeout=10.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        r = conn.getresponse()
        return r.status, r.read()
    finally:
        conn.close()


def start_server(hot, trace_file=None):
    """Starts `urs serve` with the soak's ledger flags and waits until it
    serves: its quick doctor self-check has run, /healthz answers 200
    and the hot models are in the solve cache. Returns the process, its
    port and the seconds all that took."""
    ledger = os.path.join(OUT, "serve-ledger.jsonl")
    for name in os.listdir(OUT):
        if name.startswith("serve-ledger.jsonl"):
            os.remove(os.path.join(OUT, name))
    args = [CLI, "serve", "--port", "0", "--ledger", ledger, "--ledger-max-bytes", "65536",
            "--ledger-keep", "3", "--ledger-flush-every", "64"]
    if trace_file:
        args += ["--trace", trace_file]
    t0 = time.perf_counter()
    p = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    port = None
    while port is None:
        line = p.stdout.readline()
        if not line:
            stop(p)
            raise BenchError("urs serve exited before serving")
        if line.startswith("urs: serving http://127.0.0.1:"):
            port = int(line.split(":")[3].split()[0])
    deadline = time.monotonic() + 60.0
    while True:
        try:
            status, _ = http_request(port, "GET", "/healthz")
        except OSError:
            status = None
        if status == 200:
            break
        if time.monotonic() > deadline:
            stop(p)
            raise BenchError(f"/healthz never answered 200 (last {status})")
        time.sleep(0.01)
    for body in hot:
        status, _ = http_request(port, "POST", "/solve", body)
        if status != 200:
            stop(p)
            raise BenchError(f"warming {body} got {status}")
    return p, port, time.perf_counter() - t0


def hot_bodies():
    r = subprocess.run([BENCH, "hot-bodies"], stdout=subprocess.PIPE, text=True, check=True)
    return r.stdout.split()


def run_client(server, port, seed, open_s, closed_s):
    args = ["client", "--port", str(port), "--server-pid", str(server.pid), "--seed", str(seed),
            "--open-s", str(open_s), "--closed-s", str(closed_s), "--rate", str(SERVE_RATE)]
    return bench_json(args, timeout=open_s + closed_s + 120)


# ---- metrics --------------------------------------------------------------

class Result:
    def __init__(self):
        self.metrics = {}  # name -> (value, unit, samples, note)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.report = []  # extra lines printed before the metrics

    def put(self, name, value, unit, samples, note=""):
        self.metrics[name] = (value, unit, samples, note)

    def count(self, attempted, failed, problems):
        self.attempted += attempted
        self.failed += failed
        self.problems += problems


def round_figures(out):
    """The latencies of one round of a plan or simulate run, each
    operation at its kind's median over the run, with every latency
    scaled to the reference speed; the same unscaled; each kind's
    samples and scaled and unscaled medians; and the scaled latencies
    of every operation that belongs to a round."""
    raw = bs.with_failures(out["latencies_ms"], out["ok"])
    lat = bs.scale(raw, out["reference_ms"], REFERENCE_MS)
    per_kind = bs.by_kind(lat, out["kinds"], 0.5)
    raw_per_kind = bs.by_kind(raw, out["kinds"], 0.5)
    rows = [(k, out["kinds"].count(k), per_kind[k], raw_per_kind[k]) for k in sorted(per_kind)]
    in_rounds = [x for x, k in zip(lat, out["kinds"]) if k in out["round"]]
    return (bs.round_latencies(out["round"], per_kind), bs.round_latencies(out["round"], raw_per_kind),
            rows, in_rounds)


def library_workload(workload, seed, seconds):
    """plan and simulate: one process asks the library back to back."""
    res = Result()
    setups, starts = [], []
    for i in range(SETUPS[workload]):
        p, dt = start_ready(SPAWN_REFERENCE)
        p.communicate(timeout=60)
        starts.append(dt)
        if i < SETUPS[workload] - 1:
            p, dt = start_ready([BENCH, workload, "--seed", str(seed), "--setup-only", "1"])
            p.communicate(timeout=60)
            setups.append(dt)
    p, dt = start_ready([BENCH, workload, "--seed", str(seed), "--seconds", str(seconds)])
    setups.append(dt)
    out = result_of(p, timeout=seconds + 150)
    raw_setup = statistics.median(setups)
    start_ms = statistics.median(starts) * 1000.0
    round_lat, raw_round, rows, in_rounds = round_figures(out)
    n = len(in_rounds)
    ops = "questions" if workload == "plan" else "Replicate.run calls"
    mix = ", ".join(f"{c} {k}" for k, c in out["round"].items())
    res.put("setup_s", raw_setup * SPAWN_REFERENCE_MS / start_ms, "s", len(setups), "spawn to first operation")
    res.put("wall_s", sum(round_lat) / 1000.0, "s", n, f"one round of {len(round_lat)} {ops}")
    res.put("p50_ms", bs.quantile(round_lat, 0.5), "ms", n, f"median of a round's {ops}")
    res.put("peak_rss_mb", out["peak_rss_mb"], "MiB", 1, "VmHWM")
    res.count(out["attempted"], out["failed"], out["problems"])
    res.report.append(f"round: {mix}")
    res.report.append(f"times scaled to the reference speed: kernel median "
                      f"{statistics.median(out['reference_ms']):.3f} ms, scaled to {REFERENCE_MS:g} ms")
    res.report.append(f"set-up scaled to the reference start: {SPAWN_REFERENCE[0]} median {start_ms:.3f} ms, "
                      f"scaled to {SPAWN_REFERENCE_MS:g} ms")
    res.report.append(f"unscaled: setup_s {raw_setup:.6g}, wall_s {sum(raw_round) / 1000.0:.6g}, "
                      f"p50_ms {bs.quantile(raw_round, 0.5):.6g}")
    q = bs.highest_resolved(n)
    if q and q > 0.5:
        res.report.append(f"{ops}, scaled: p50 {bs.quantile(in_rounds, 0.5):.4g} ms, p{q * 100:g} "
                          f"{bs.quantile(in_rounds, q):.4g} ms of {n} ({bs.beyond(n, q):.1f} beyond)")
    res.report.append(f"  {'kind':<16} {'samples':>8} {'median ms':>11} {'unscaled':>11}")
    for k, c, v, r in rows:
        res.report.append(f"  {k:<16} {c:>8} {v:>11.4f} {r:>11.4f}")
    if workload == "plan":
        res.report.append(f"largest spectral residual {out['max_residual']:.3g} (limit {MAX_RESIDUAL:g})")
    else:
        res.report.append(f"largest CI half-width / estimate {out['ci_rel']:.3f}")
    return res


def serve_phase_metrics(out):
    """Per-request figures of one client run, failures included."""
    rows = out["open"]
    lat = bs.with_failures([r[1] for r in rows], [r[5] for r in rows])
    closed = out["closed"]
    closed_lat = bs.with_failures([r[1] for r in closed], [r[3] for r in closed])
    completed = sum(1 for r in closed if r[3])
    return rows, lat, closed, closed_lat, completed


def serve_workload(seed, seconds):
    res = Result()
    hot = hot_bodies()
    setups = []
    server = None
    try:
        for i in range(SETUPS["serve"]):
            server, port, dt = start_server(hot)
            setups.append(dt)
            if i < SETUPS["serve"] - 1:
                stop(server)
        open_s = round(seconds * SERVE_OPEN_SHARE, 3)
        out = run_client(server, port, seed, open_s, seconds - open_s)
    finally:
        if server:
            stop(server)
    rows, lat, closed, closed_lat, completed = serve_phase_metrics(out)
    res.put("setup_s", statistics.median(setups), "s", len(setups),
            "spawn, doctor, first /healthz 200, warm cache")
    done = sorted(r[2] for r in closed)
    ends = [0.0] + done[CLOSED_BATCH - 1::CLOSED_BATCH]
    batches = [b - a for a, b in zip(ends, ends[1:])]
    res.put("wall_s", statistics.median(batches), "s", len(batches),
            f"closed-loop batch of {CLOSED_BATCH} requests")
    n = len(lat)
    note = f"p{SERVE_TAIL * 100:g}, {bs.beyond(n, SERVE_TAIL):.1f} beyond"
    if not bs.resolves(n, SERVE_TAIL):
        note += " (fewer than 10)"
    res.put("p50_ms", bs.quantile(lat, 0.5), "ms", n, f"open loop at {SERVE_RATE:g}/s, from scheduled send")
    res.put("p99_ms", bs.quantile(lat, SERVE_TAIL), "ms", n, note)
    closed_p99 = bs.quantile(closed_lat, 0.99)
    res.put("max_rps", completed / out["closed_s"], "1/s", len(closed),
            f"closed loop, 2 clients, p99 {closed_p99:.1f} ms, "
            f"{bs.misses(closed_lat, P99_OBJECTIVE_MS)} over {P99_OBJECTIVE_MS:g} ms")
    res.put("peak_rss_mb", out["server_rss_mb"], "MiB", 1, "VmHWM of urs serve")
    problems = list(out["problems"])
    failed = out["failed"]
    if not closed_p99 < P99_OBJECTIVE_MS:
        failed += 1
        problems.append(f"closed-loop p99 {closed_p99:.1f} ms breaks the {P99_OBJECTIVE_MS:g} ms objective")
    res.count(out["attempted"], failed, problems)
    return res


# ---- traced run -------------------------------------------------------------

def serve_probe(seed, trace_file=None):
    """A short serve run for the per-layer HTTP figures."""
    hot = hot_bodies()
    server, port, _ = start_server(hot, trace_file)
    try:
        out = run_client(server, port, seed, 6.0, 4.0)
    finally:
        stop(server)
    return out


def traced(workload, seed, seconds):
    res = Result()
    os.makedirs(OUT, exist_ok=True)
    layers = bench_json(["layers", "--seed", str(seed), "--out", OUT], timeout=170)
    m = dict(layers["metrics"])
    handle_hit_us = m.pop("solve_service.handle_hit_us")
    if not m["spectral.residual_max"] <= MAX_RESIDUAL:
        res.count(0, 1, [f"spectral residual {m['spectral.residual_max']:.3g} above {MAX_RESIDUAL:g}"])

    probe = serve_probe(seed)
    rows, lat, closed, _, completed = serve_phase_metrics(probe)
    res.count(probe["attempted"], probe["failed"], probe["problems"])

    def rtt(kind):
        xs = [r[2] for r in rows if r[0] == kind and r[5]]
        return bs.quantile(xs, 0.5), len(xs)

    hit_ms, n_hit = rtt("hit")
    miss_ms, n_miss = rtt("miss")
    scrape_ms, n_scrape = rtt("scrape")
    late = [r[3] for r in rows if r[4]]
    m["http.hit_ms"] = hit_ms
    m["http.miss_ms"] = miss_ms
    m["http.transport_us"] = hit_ms * 1000.0 - handle_hit_us
    m["metrics.scrape_ms"] = scrape_ms
    m["solve_cache.hit_ratio"] = probe["hits"] / probe["lookups"]
    m["server.cpu_us_per_req"] = probe["server_cpu_s"] / completed * 1e6
    m["loadgen.late_ms"] = bs.quantile(late, 0.99)

    # tracing overhead on the named workload: traced minus untraced
    if workload == "serve":
        p50_plain = bs.quantile(lat, 0.5)
        tprobe = serve_probe(seed, os.path.join(OUT, "serve-trace.json"))
        _, tlat, _, _, _ = serve_phase_metrics(tprobe)
        res.count(tprobe["attempted"], tprobe["failed"], tprobe["problems"])
        p50_traced = bs.quantile(tlat, 0.5)
        overhead = ("p50_ms", p50_plain, p50_traced)
    else:
        out = bench_json([workload, "--seed", str(seed), "--seconds", str(seconds), "--overhead", "1"],
                         timeout=seconds + 150)
        res.count(out["attempted"], out["failed"], out["problems"])
        lat = bs.scale(out["latencies_ms"], out["reference_ms"], REFERENCE_MS)
        per_kind = bs.by_kind(lat, out["kinds"], 0.5)
        traced_kinds = {k: per_kind["traced " + k] for k in out["round"]}
        overhead = ("wall_s", sum(bs.round_latencies(out["round"], per_kind)) / 1000.0,
                    sum(bs.round_latencies(out["round"], traced_kinds)) / 1000.0)
        layers["self_times"] += out["self_times"]
    name, plain, with_tracing = overhead
    m["tracing.overhead_ratio"] = with_tracing / plain

    units = {e["name"]: e["unit"] for e in spec()["per_layer"]}
    for k, v in m.items():
        res.put(k, v, units.get(k, "?"), 1)

    res.report += self_time_report(layers["self_times"])
    res.report += spectral_report(layers["spectral_table"], m["spectral.scaling_exp"])
    res.report.append(f"tracing overhead on {workload}: {name} {plain:.4g} untraced, {with_tracing:.4g} "
                      f"traced, difference {with_tracing - plain:+.4g} ({100 * (with_tracing / plain - 1):+.1f}%)")
    res.report.append(f"serve probe: {n_hit} hits, {n_miss} misses, {n_scrape} scrapes; "
                      f"spans written under {OUT}/")
    return res


def self_time_report(entries):
    merged = {}
    for e in entries:
        c, t, s = merged.get(e["name"], (0, 0.0, 0.0))
        merged[e["name"]] = (c + e["calls"], t + e["total_s"], s + e["self_s"])
    lines = ["self time per layer (span minus its children):",
             f"  {'span':<44} {'calls':>7} {'total s':>10} {'self s':>10}"]
    for name, (c, t, s) in sorted(merged.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"  {name:<44} {c:>7} {t:>10.4f} {s:>10.4f}")
    return lines


def spectral_report(table, slope):
    lines = ["Spectral.solve by N:",
             f"  {'N':>3} {'s':>4} {'solve s':>9} {'eigval':>8} {'eigvec':>8} {'bound.':>8} "
             f"{'norm.':>8} {'residual':>10} {'qr sweeps':>10}"]
    for r in table:
        lines.append(f"  {r['N']:>3} {r['s']:>4} {r['solve_s']:>9.4f} {r['eigenvalues_s']:>8.4f} "
                     f"{r['eigenvectors_s']:>8.4f} {r['boundary_s']:>8.4f} {r['normalization_s']:>8.4f} "
                     f"{r['residual']:>10.2e} {int(r['qr_sweeps']):>10}")
    lines.append(f"  fitted spectral.scaling_exp (seconds ~ s^k): k = {slope:.2f}")
    return lines


# ---- output -----------------------------------------------------------------

def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def measure(workload, seed, seconds, trace):
    os.makedirs(OUT, exist_ok=True)
    if trace:
        return traced(workload, seed, seconds)
    if workload == "serve":
        return serve_workload(seed, seconds)
    return library_workload(workload, seed, seconds)


def print_result(workload, seed, seconds, trace, res):
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {trace}")
    for line in res.report:
        print(line)
    print(f"  {'metric':<28} {'value':>14} {'unit':<6} {'samples':>8}  note")
    for name, (value, unit, n, note) in res.metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit:<6} {n:>8}  {note}")
    frac = bs.fail_frac(res.attempted, res.failed)
    print(f"  {'fail_frac':<28} {frac:>14.6g} {'ratio':<6} {res.attempted:>8}  "
          f"{res.failed} failed of {res.attempted} attempted")
    for p in res.problems[:10]:
        print(f"  check failed: {p}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="run K times with seeds seed..seed+K-1 and print medians and quartiles")
    a = ap.parse_args()
    workloads = WORKLOADS if a.workload == "all" else (a.workload,)
    runs = {}
    try:
        build()
        for w in workloads:
            runs[w] = []
            for k in range(a.repeat):
                res = measure(w, a.seed + k, a.seconds, a.trace)
                print_result(w, a.seed + k, a.seconds, a.trace, res)
                missing = [e["name"] for e in spec()["per_layer" if a.trace else "end_to_end"]
                           if e["name"] not in res.metrics]
                if missing:
                    raise BenchError(f"no figure for {missing}, which BENCHMARK.json lists")
                runs[w].append(res)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    everything = [r for rs in runs.values() for r in rs]
    correct = all(r.failed == 0 for r in everything)
    metrics = {}
    for w, rs in runs.items():
        if a.repeat > 1:
            print(f"{a.repeat} runs of {w}, seeds {a.seed}..{a.seed + a.repeat - 1}:")
            print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
            for name in rs[0].metrics:
                vals = [r.metrics[name][0] for r in rs]
                med, q1, q3 = bs.summary(vals)
                print(f"  {name:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {bs.spread(vals):>8.3f}")
        # one run reports its metrics, repeated runs their medians; with
        # every workload, names carry the workload as a prefix
        prefix = f"{w}." if len(runs) > 1 else ""
        for name, v in rs[0].metrics.items():
            metrics[prefix + name] = {"value": statistics.median(r.metrics[name][0] for r in rs), "unit": v[1]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in everything),
        "failed": sum(r.failed for r in everything),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
