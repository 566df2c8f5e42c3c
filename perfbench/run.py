#!/usr/bin/env python3
"""Benchmark of the commands users run: `mce enumerate` and `mce serve`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the release `mce` binary and the
probe package in perfbench/probe into $CARGO_TARGET_DIR (default
.bench_build), generates the workload's graph from --seed under
.bench_work/, converts it to .mcg, then spends S seconds in rounds that
alternate two phases: `mce enumerate --preset HBBMC++` at --threads 1 and
2, one process after another, and a closed loop of queries from two
connections against `mce serve`. Every output is checked outside the timed regions: CLI
output against an RDegen answer computed in process (and --threads 2
byte-for-byte against --threads 1), serve answers against the same spec
run in process. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.

With --trace 1 the metrics are the per-layer ones: perfbench-layers calls
each layer's public functions in process, and the serve loop records
client-side spans per request. PERFBENCH_SCALE=tiny and PERFBENCH_INJECT
exist for perfbench/selftest.py. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

# Each workload is one graph on which every command is run, in rounds of
# ROUND_SECONDS: the enumerate phase takes ENUMERATE_SHARE of each round and
# the serve phase the rest. `tiny` is the self-test size.
WORKLOADS = {
    "sparse-communities": {
        # Small enough for ~12 enumerate pairs per run. At n=50000 about
        # eight complete 10-vertex communities are expected, so whether
        # top-10 needed 9-cliques depended on the seed and its cost was
        # bimodal.
        "graph": ["planted", 25_000],
        "tiny": ["planted", 3_000],
        "output": "text",
    },
    "dense-random": {
        # At density 0.22 the top-10 answer is all 7-cliques on most seeds;
        # at 0.2 it often needed 6-cliques and its cost varied more.
        "graph": ["er", 500, 28_000],
        "tiny": ["er", 120, 2_000],
        "output": "count",
    },
}
ROUND_SECONDS = 3.0
ENUMERATE_SHARE = 0.65

KINDS = ("anchored", "topk", "maximum")
# The layers' counters that must repeat exactly for a given seed.
EXACT_COUNTERS = (
    "solver.roots",
    "solver.calls",
    "solver.et_eligible",
    "solver.et_terminated",
    "solver.gr_removed_vertices",
    "report.bytes",
    "maxclique.pruned_by_color",
    "maxclique.pruned_by_core",
    "maxclique.lb_updates",
)

MIN_SAMPLES = 3  # enumerate invocations per thread count, even past the deadline
ANCHOR_POOL = 4096
TOP_K = 10
LAYER_REPS = 2
PROCESS_TIMEOUT = 120.0
QUERY_TIMEOUT = 60.0
UNREACHABLE = 1e9  # stands in for an infinite latency in the JSON output


class Failure(Exception):
    """A step the run cannot continue without (build, input generation)."""


class Tally:
    """Operations attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED: {what}", file=sys.stderr)
        return ok


def median(values):
    return statistics.median(values) if values else math.inf


def low(values):
    """The 10th percentile of a run's samples, failed ones counting as
    infinite. The shared host slows a process by up to half for seconds at
    a time, which moves a run's median by about 20% between runs; the
    fastest tenth moves about half as much, and a change to the program
    moves both alike."""
    if len(values) < 2:
        return min(values, default=math.inf)
    value = statistics.quantiles(values, n=10, method="inclusive")[0]
    return math.inf if math.isnan(value) else value


def finite(value):
    return value if math.isfinite(value) else UNREACHABLE


def log_path(work):
    return work / "stderr.log"


def check_output(argv, work, timeout=PROCESS_TIMEOUT, show_stderr=False):
    """Runs an untimed helper step and returns its stdout."""
    with open(log_path(work), "ab") as err:
        done = subprocess.run(argv, stdout=subprocess.PIPE, timeout=timeout,
                              stderr=sys.stderr if show_stderr else err)
    if done.returncode != 0:
        raise Failure(f"{' '.join(map(str, argv))} exited {done.returncode}; see {log_path(work)}")
    return done.stdout.decode()


def vm_hwm_kb(pid):
    """Peak resident set of a live process, from the kernel's own count.

    The rusage of a child is no use here: its peak includes the pages of
    this Python process it was forked from."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


LIVE = set()  # children not yet reaped; main() kills them if a run aborts


class Watched:
    """A child process whose peak RSS is sampled until it exits."""

    def __init__(self, argv, **popen):
        self.proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, **popen)
        LIVE.add(self.proc)
        self.peak_kb = 0
        self.done = threading.Event()
        self.sampler = threading.Thread(target=self._sample, daemon=True)
        self.sampler.start()

    def _sample(self):
        while True:
            self.peak_kb = max(self.peak_kb, vm_hwm_kb(self.proc.pid))
            if self.done.wait(0.005):
                break

    def wait(self, timeout=PROCESS_TIMEOUT):
        """Reaps the process; returns (exit code, CPU seconds)."""
        killer = threading.Timer(timeout, self.proc.kill)
        killer.start()
        _, status, usage = os.wait4(self.proc.pid, 0)
        killer.cancel()
        self.done.set()
        self.sampler.join()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        LIVE.discard(self.proc)
        return self.proc.returncode, usage.ru_utime + usage.ru_stime


class Run:
    """State shared by the phases of one run."""

    def __init__(self, args, spec, bins, work):
        self.args = args
        self.spec = spec
        self.bins = bins
        self.work = work
        self.tally = Tally()
        self.peaks_kb = {}  # command label -> peak RSS of each process
        self.counters = {}
        self.inject = os.environ.get("PERFBENCH_INJECT", "")
        self.edges = work / "graph.txt"
        self.mcg = work / "graph.mcg"

    def peak(self, label, kb):
        self.peaks_kb.setdefault(label, []).append(kb)

    def timed(self, argv, label):
        """Runs argv to completion: (ok, wall seconds, CPU seconds)."""
        with open(log_path(self.work), "ab") as err:
            start = time.perf_counter()
            child = Watched(argv, stderr=err)
            code, cpu = child.wait()
            wall = time.perf_counter() - start
        self.peak(label, child.peak_kb)
        return code == 0, wall, cpu


# ---------------------------------------------------------------------------
# Build, inputs and reference answers.
# ---------------------------------------------------------------------------


def build(trace):
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    probe_bins = ["--bin", "perfbench-oracle"] + (["--bin", "perfbench-layers"] if trace else [])
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "mce-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(HERE / "probe" / "Cargo.toml")] + probe_bins,
    ]
    for argv in steps:
        done = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise Failure(f"{' '.join(argv)} exited {done.returncode}")
    release = target / "release"
    return {
        "mce": str(release / "mce"),
        "oracle": str(release / "perfbench-oracle"),
        "layers": str(release / "perfbench-layers"),
    }


def generate(run, graph):
    """Writes the seed's edge list and converts it to the .mcg every command
    reads."""
    kind, *params = graph
    if kind == "planted":
        argv = [run.bins["mce"], "gen", "planted", "--n", str(params[0]),
                "--seed", str(run.args.seed), "--out", str(run.edges)]
    else:
        n, m = params
        argv = [run.bins["oracle"], "gen-er", str(n), str(m), str(run.args.seed), str(run.edges)]
    check_output(argv, run.work)
    ok, _, _ = run.timed([run.bins["mce"], "convert", str(run.edges), str(run.mcg)], "convert")
    if not run.tally.op(ok, "mce convert exited non-zero"):
        raise Failure("mce convert failed")


def setup_sample(run):
    """One timed set-up: `mce convert` of the edge list to .mcg."""
    ok, wall, _ = run.timed(
        [run.bins["mce"], "convert", str(run.edges), str(run.work / "setup.mcg")], "convert")
    return wall if run.tally.op(ok, "mce convert exited non-zero") else math.inf


def sorted_lines_digest(data):
    """Digest of the lines of `data` in byte order, and their count."""
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    lines.sort()
    return hashlib.sha256(b"".join(line + b"\n" for line in lines)).hexdigest(), len(lines)


def reference(run):
    """The RDegen answer the CLI output must match."""
    ref_path = run.work / "reference.txt"
    text = run.spec["output"] == "text"
    ref = json.loads(check_output(
        [run.bins["oracle"], "reference", str(run.mcg), str(ref_path) if text else "-"], run.work))
    if text:
        ref["digest"] = hashlib.sha256(ref_path.read_bytes()).hexdigest()
        ref_path.unlink()
    run.counters["cliques"] = ref["cliques"]
    return ref


def anchor_pool(run):
    out = check_output(
        [run.bins["oracle"], "anchors", str(run.mcg), str(run.args.seed), str(ANCHOR_POOL)],
        run.work)
    path = run.work / "anchors.txt"
    path.write_text(out)
    return path, [[int(v) for v in line.split()] for line in out.splitlines()]


# ---------------------------------------------------------------------------
# The enumerate phase.
# ---------------------------------------------------------------------------


class Enumerations:
    """`mce enumerate` at 1 and 2 threads, one process after another, with
    one set-up sample before each pair: spread over the run, a short burst
    of load from elsewhere on the host cannot set the set-up median."""

    def __init__(self, run, ref):
        self.run = run
        self.ref = ref
        self.walls = {1: [], 2: []}
        self.cpu_t2 = []
        self.setups = []
        self.first_ok = None  # raw digest of the first output that matched the reference

    def pairs(self, seconds):
        """Runs pairs for `seconds`, and at least one."""
        stop_at = time.perf_counter() + seconds
        while True:
            self.setups.append(setup_sample(self.run))
            self.invoke(1)
            self.invoke(2)
            if time.perf_counter() >= stop_at:
                return

    def short(self):
        return len(self.walls[2]) < MIN_SAMPLES

    def invoke(self, threads):
        run = self.run
        mode = run.spec["output"]
        out = run.work / "cliques.out"
        out.unlink(missing_ok=True)
        ok, wall, cpu = run.timed([
            run.bins["mce"], "enumerate", str(run.mcg), "--preset", "HBBMC++",
            "--threads", str(threads), "--output", mode, "--out", str(out)], f"enumerate_t{threads}")
        if threads == 2 and run.inject == "corrupt-cli" and not self.cpu_t2:
            data = bytearray(out.read_bytes())
            data[len(data) // 2] ^= 0x01
            out.write_bytes(bytes(data))
        data = out.read_bytes() if ok and out.is_file() else b""
        raw = hashlib.sha256(data).hexdigest()
        if not ok:
            what = f"mce enumerate --threads {threads} exited non-zero"
        elif self.first_ok is not None:
            ok = raw == self.first_ok
            what = f"--threads {threads} output differs from the first checked output"
        else:
            if mode == "text":
                ok = sorted_lines_digest(data) == (self.ref["digest"], self.ref["cliques"])
            else:
                ok = data.decode(errors="replace") == self.ref["count_summary"]
            what = f"--threads {threads} output does not match the RDegen reference"
            if ok:
                self.first_ok = raw
        run.tally.op(ok, what)
        self.walls[threads].append(wall if ok else math.inf)
        if threads == 2:
            self.cpu_t2.append(cpu if ok else math.inf)

    def metrics(self):
        self.run.counters["cli_output_sha256"] = self.first_ok
        print(f"perfbench: enumerate samples: {len(self.walls[1])} at --threads 1, "
              f"{len(self.walls[2])} at --threads 2", file=sys.stderr)
        return {
            "setup_s": median(self.setups),
            "enumerate_t1_s": low(self.walls[1]),
            "enumerate_t2_s": low(self.walls[2]),
            "enumerate_t2_cpu_s": low(self.cpu_t2),
        }


# ---------------------------------------------------------------------------
# The serve phase.
# ---------------------------------------------------------------------------


class Connection:
    """A plain blocking NDJSON client: no socket options are set, so the
    server's segments are acknowledged the way any default client would."""

    def __init__(self, addr):
        self.sock = socket.create_connection(addr, timeout=QUERY_TIMEOUT)
        self.reader = self.sock.makefile("rb")

    def send(self, request):
        self.sock.sendall(json.dumps(request, separators=(",", ":")).encode() + b"\n")

    def frame(self):
        line = self.reader.readline()
        if not line:
            raise OSError("connection closed by the server")
        return line

    def close(self):
        self.reader.close()
        self.sock.close()


class Server:
    """One `mce serve` process with default flags on a free port."""

    def __init__(self, run):
        self.run = run
        argv = [run.bins["mce"], "serve", "--addr", "127.0.0.1:0"]
        self.child = Watched(argv, stderr=subprocess.PIPE)
        banner = self.child.proc.stderr.readline().decode()
        if "listening on" not in banner:
            self.child.proc.kill()
            self.child.wait()
            raise Failure(f"mce serve did not start: {banner.strip()!r}")
        host, port = banner.rsplit(" ", 1)[1].strip().rsplit(":", 1)
        self.addr = (host, int(port))

    def load(self, path):
        """Loads the graph as 'g'."""
        conn = Connection(self.addr)
        conn.send({"op": "load", "name": "g", "path": str(path)})
        frame = json.loads(conn.frame())
        conn.close()
        if not self.run.tally.op(frame.get("type") == "loaded", f"load answered {frame}"):
            raise Failure("mce serve could not load the graph")

    def metrics(self):
        conn = Connection(self.addr)
        conn.send({"op": "metrics"})
        frame = json.loads(conn.frame())
        conn.close()
        return frame

    def shutdown(self):
        peak_kb = vm_hwm_kb(self.child.proc.pid)
        try:
            conn = Connection(self.addr)
            conn.send({"op": "shutdown"})
            ok = json.loads(conn.frame()).get("type") == "shutdown"
            conn.close()
        except OSError:
            ok = False
        code, _ = self.child.wait(timeout=30)
        self.child.proc.stderr.close()
        self.run.peak("serve", max(peak_kb, self.child.peak_kb))
        self.run.tally.op(ok and code == 0, f"mce serve shutdown (exit {code})")


def one_query(conn, kind, anchor, graph):
    """Sends one query and reads its frames. Times are perf_counter()
    readings: request written, `begin` read, `end` read. The header names
    the spec for perfbench-oracle check-serve."""
    request = {"op": "query", "graph": graph}
    if kind == "anchored":
        request.update(mode="anchored", anchor=anchor)
        header = "anchored " + " ".join(map(str, anchor))
    elif kind == "topk":
        request.update(mode="top", k=TOP_K)
        header = f"top {TOP_K}"
    else:
        request.update(mode="maximum")
        header = "maximum"
    rec = {"kind": kind, "header": header, "lines": [], "error": None, "end": None, "bytes": 0}
    rec["sent"] = time.perf_counter()
    try:
        conn.send(request)
        first = conn.frame()
        rec["begin"] = time.perf_counter()
        rec["bytes"] += len(first)
        if not first.startswith(b'{"type":"begin"'):
            rec["error"] = first.decode(errors="replace").strip()
        while rec["error"] is None:
            line = conn.frame()
            rec["bytes"] += len(line)
            if line.startswith(b'{"type":"end"'):
                rec["end"] = json.loads(line)
                break
            if line.startswith(b'{"type":'):
                rec["error"] = line.decode(errors="replace").strip()
            else:
                rec["lines"].append(line)
    except (OSError, ValueError) as e:
        rec["error"] = f"{type(e).__name__}: {e}"
        rec.setdefault("begin", time.perf_counter())
    rec["done"] = time.perf_counter()
    return rec


class Client:
    """One connection in a closed loop: it sends its next query only after
    the previous one's `end` frame. The mix is seeded per connection and
    exact per block of 20 requests: 18 anchored (alternately a vertex and an
    edge from the pool), 1 top-k and 1 maximum, shuffled, so the share of
    slow whole-graph queries does not vary with the seed."""

    def __init__(self, run, addr, pool, index):
        self.run = run
        self.addr = addr
        self.pool = pool
        self.index = index
        self.rng = random.Random(run.args.seed * 1000 + index)
        self.schedule = []
        self.records = []
        self.active = 0.0  # seconds from each burst's start to its last `end`
        self.conn = Connection(addr)

    def until(self, start, stop_at):
        while time.perf_counter() < stop_at:
            if not self.schedule:
                self.schedule = ["anchored"] * 18 + ["topk", "maximum"]
                self.rng.shuffle(self.schedule)
            kind = self.schedule.pop()
            sent = len(self.records)
            anchor = self.pool[(2 * sent + self.index) % len(self.pool)]
            graph = "missing" if self.run.inject == "refused-query" and sent == 0 else "g"
            rec = one_query(self.conn, kind, anchor, graph)
            self.records.append(rec)
            if rec["error"] is not None and rec["end"] is None:
                self.conn.close()
                self.conn = Connection(self.addr)
        self.active += time.perf_counter() - start


class QueryLoad:
    """Two clients against one server, run in bursts; the connections, their
    mixes and their records last across bursts."""

    def __init__(self, run, server, pool):
        self.clients = [Client(run, server.addr, pool, i) for i in range(2)]

    def burst(self, seconds):
        start = time.perf_counter()
        threads = [threading.Thread(target=client.until, args=(start, start + seconds))
                   for client in self.clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def records(self):
        return [rec for client in self.clients for rec in client.records]

    def queries_per_s(self):
        """Each connection's completed queries over its own time in the
        loop, summed: the connection that finishes a burst first does not
        count as idle while the other ends a slow query."""
        return sum(sum(1 for rec in client.records if rec["ok"]) / client.active
                   for client in self.clients if client.active > 0)

    def close(self):
        for client in self.clients:
            client.conn.close()


def check_serve(run, records):
    """Marks each record ok or failed. A query fails on an error frame, a
    truncated or miscounted `end`, or an answer that differs from the same
    spec run in process (anchored compared as a set, the others exactly)."""
    candidates = []
    for rec in records:
        end = rec["end"]
        rec["ok"] = (rec["error"] is None and end is not None
                     and end.get("outcome") == "complete" and end.get("cliques") == len(rec["lines"]))
        if rec["ok"]:
            candidates.append(rec)
    if run.inject == "wrong-serve":
        victim = next(rec for rec in candidates if rec["lines"])
        victim["lines"][0] = victim["lines"][0].replace(b"]}", b",4294967295]}")
    path = run.work / "served.txt"
    with open(path, "wb") as out:
        for rec in candidates:
            out.write(b"> " + rec["header"].encode() + b"\n")
            for line in rec["lines"]:
                start, stop = line.index(b"[") + 1, line.rindex(b"]")
                out.write(line[start:stop].replace(b",", b" ") + b"\n")
    verdict = json.loads(check_output([run.bins["oracle"], "check-serve", str(run.mcg), str(path)],
                                      run.work))
    for i in verdict["mismatched"]:
        candidates[i]["ok"] = False
    for rec in records:
        run.tally.op(rec["ok"], f"{rec['header']}: {rec['error'] or 'wrong or truncated answer'}")


def percentile_tail(samples):
    """The highest percentile with at least 10 samples beyond it: the 11th
    largest sample. Returns (value, percentile, sample count)."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return ordered[-1] if ordered else math.inf, 100.0, len(ordered)
    index = len(ordered) - 11
    return ordered[index], 100.0 * index / (len(ordered) - 1), len(ordered)


def round_trips(records, kind):
    """Round trips in ms; a failed or refused query counts as infinitely slow."""
    return [(rec["done"] - rec["sent"]) * 1e3 if rec["ok"] else math.inf
            for rec in records if rec["kind"] == kind]


def serve_metrics(load):
    records = load.records()
    anchored = round_trips(records, "anchored")
    tail, pct, count = percentile_tail(anchored)
    print(f"perfbench: anchored_tail_ms = p{pct:.1f} of {count} anchored round trips",
          file=sys.stderr)
    topk = round_trips(records, "topk")
    print(f"perfbench: topk_p10_ms over {len(topk)} top-{TOP_K} round trips, "
          f"median {median(topk):.3f} ms", file=sys.stderr)
    return {
        "queries_per_s": load.queries_per_s(),
        "anchored_p50_ms": median(anchored),
        "anchored_tail_ms": tail,
        "topk_p10_ms": low(topk),
        "maximum_p50_ms": median(round_trips(records, "maximum")),
    }


# ---------------------------------------------------------------------------
# Runs.
# ---------------------------------------------------------------------------


def measured(run, seconds):
    """The end-to-end run: every `end_to_end` metric of BENCHMARK.json.

    Rounds of enumerate pairs and query bursts until `seconds` have passed,
    so every metric's samples spread over the whole run and a slow spell of
    the shared host weighs on all of them alike."""
    ref = reference(run)
    _, pool = anchor_pool(run)
    cli = Enumerations(run, ref)
    server = Server(run)
    try:
        server.load(run.mcg)
        load = QueryLoad(run, server, pool)
        try:
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline or cli.short():
                cli.pairs(ROUND_SECONDS * ENUMERATE_SHARE)
                load.burst(ROUND_SECONDS * (1 - ENUMERATE_SHARE))
        finally:
            load.close()
    finally:
        server.shutdown()
    metrics = cli.metrics()
    check_serve(run, load.records())
    metrics.update(serve_metrics(load))
    print("perfbench: peak RSS MB by command (min/median/max): " + ", ".join(
        f"{label} {min(p) / 1024:.1f}/{statistics.median(p) / 1024:.1f}/{max(p) / 1024:.1f}"
        for label, p in sorted(run.peaks_kb.items())), file=sys.stderr)
    # The larger of the two thread counts' median enumerate peak: a maximum
    # over single processes, or the one server's peak, moved with allocator
    # luck by 10-20% between seeds.
    peaks = run.peaks_kb
    metrics["peak_rss_mb"] = max(median(peaks["enumerate_t1"]), median(peaks["enumerate_t2"])) / 1024
    return metrics


def write_client_spans(records, path):
    """Appends the serve client's spans (one request span with its two
    phases as children per query) and prints their self times."""
    origin = min(rec["sent"] for rec in records)
    totals = {}
    with open(path, "a") as out:
        for request, rec in enumerate(records):
            phases = [("serve.to_begin", rec["sent"], rec["begin"]),
                      ("serve.to_end", rec["begin"], rec["done"])]
            parent = f"c{request}"
            spans = [(parent, "serve.request", rec["sent"], rec["done"], None)]
            spans += [(f"c{request}.{i}", name, a, b, parent) for i, (name, a, b) in enumerate(phases)]
            covered = sum(b - a for _, a, b in phases)
            for span_id, name, a, b, up in spans:
                own = (b - a) - (covered if up is None else 0)
                out.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": round((a - origin) * 1e9),
                    "end_ns": round((b - origin) * 1e9), "parent": up, "request": request,
                    "kind": rec["kind"], "self_ns": round(own * 1e9)}) + "\n")
                count, total, self_total = totals.get(name, (0, 0.0, 0.0))
                totals[name] = (count + 1, total + b - a, self_total + own)
    for name, (count, total, own) in sorted(totals.items()):
        print(f"{name:<28} {count:>7} {total:>12.6f} {own:>12.6f}", file=sys.stderr)


def traced(run, seconds):
    """The traced run: every `per_layer` metric of BENCHMARK.json."""
    ref = reference(run)
    anchors_path, pool = anchor_pool(run)
    out = check_output([run.bins["layers"], str(run.edges), str(run.mcg), str(anchors_path),
                        str(run.work), str(LAYER_REPS)], run.work, timeout=150, show_stderr=True)
    layers = json.loads(out)
    run.tally.op(layers["cliques"] == ref["cliques"],
                 f"HBBMC++ found {layers['cliques']} cliques, RDegen {ref['cliques']}")
    run.tally.op(layers["repeat_failures"] == 0, "layer counters differ between repetitions")
    metrics = dict(layers["metrics"])
    for name in EXACT_COUNTERS:
        run.counters[name] = layers["metrics"][name]

    server = Server(run)
    try:
        server.load(run.mcg)
        before = server.metrics()
        load = QueryLoad(run, server, pool)
        try:
            load.burst(seconds * 0.3)
        finally:
            load.close()
        after = server.metrics()
    finally:
        server.shutdown()
    records = load.records()
    check_serve(run, records)
    write_client_spans(records, run.work / "spans.jsonl")
    engine_ms = {"anchored": metrics["query.anchored_us"] / 1e3,
                 "topk": metrics["query.topk_ms"], "maximum": metrics["maxclique.bb_ms"]}
    for kind in KINDS:
        done = [rec for rec in records if rec["kind"] == kind and rec["ok"]]
        metrics[f"serve.to_begin_ms.{kind}"] = median([(r["begin"] - r["sent"]) * 1e3 for r in done])
        metrics[f"serve.to_end_ms.{kind}"] = median([(r["done"] - r["begin"]) * 1e3 for r in done])
        metrics[f"serve.wire_overhead_ms.{kind}"] = (
            median(round_trips(records, kind)) - engine_ms[kind])
    metrics["serve.bytes_per_query"] = sum(rec["bytes"] for rec in records) / max(len(records), 1)
    for name in ("sessions_rejected", "peak_sessions"):
        metrics[f"serve.{name}"] = after.get(name, 0) - before.get(name, 0)
    print(f"perfbench: tracing overhead {metrics['trace.overhead_s']:+.4f} s on "
          f"{layers['metrics']['trace.untraced_s']:.4f} s untraced", file=sys.stderr)
    return metrics


# ---------------------------------------------------------------------------
# Stamps: the host and build a result came from, and counters that must
# repeat exactly for a seed.
# ---------------------------------------------------------------------------


def tree_digest(paths):
    """Digest of the files at or under `paths`, build output excluded."""
    h = hashlib.sha256()
    for base in paths:
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file() and "target" not in p.parts)
        for path in files:
            h.update(str(path.relative_to(base.parent)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def fingerprint():
    def first_line(argv):
        try:
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
            return done.stdout.strip() if done.returncode == 0 else None
        except OSError:
            return None

    return {
        "cpus": os.cpu_count(),
        "arch": platform.machine(),
        "rustc": first_line(["rustc", "-V"]),
        "git_rev": first_line(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None,
        "source_sha256": tree_digest(
            [ROOT / top for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor")]),
        "bench_sha256": tree_digest([HERE]),
        "profile": "release",
    }


def stamp(run, host):
    """Prints the stamp and compares its counters with earlier runs of the
    same program and benchmark sources, workload, seed and mode; a counter
    that differs fails."""
    key = {"source_sha256": host["source_sha256"], "bench_sha256": host["bench_sha256"],
           "workload": run.args.workload, "seed": run.args.seed, "trace": run.args.trace,
           "scale": os.environ.get("PERFBENCH_SCALE", "full")}
    record = {"key": key, "host": host, "counters": run.counters}
    path = WORK / "stamps.jsonl"
    earlier = []
    if path.is_file():
        for line in path.read_text().splitlines():
            entry = json.loads(line)
            if entry["key"] == key:
                earlier.append(entry["counters"])
    if earlier and not run.inject:
        run.tally.op(earlier[-1] == run.counters,
                     f"counters {run.counters} differ from an earlier run's {earlier[-1]}")
    if not run.inject:
        with open(path, "a") as out:
            out.write(json.dumps(record, sort_keys=True) + "\n")
    print("stamp: " + json.dumps(record, sort_keys=True))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        print("perfbench: run from the root of a checkout of the repository", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    spec = dict(WORKLOADS[args.workload])
    graph = spec["tiny"] if os.environ.get("PERFBENCH_SCALE") == "tiny" else spec["graph"]
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        host = fingerprint()
        run = Run(args, spec, build(args.trace), work)
        generate(run, graph)
        metrics = traced(run, args.seconds) if args.trace else measured(run, args.seconds)
        stamp(run, host)
        if args.trace:
            spans = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            spans.parent.mkdir(exist_ok=True)
            shutil.copyfile(work / "spans.jsonl", spans)
            print(f"perfbench: spans written to {spans.relative_to(ROOT)}", file=sys.stderr)
    except (Failure, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        for proc in list(LIVE):
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    t = run.tally
    print(f"perfbench: {args.workload} seed {args.seed}: failed_frac = "
          f"{t.failed / max(t.attempted, 1):.4f} fraction ({t.failed} of {t.attempted} operations)",
          file=sys.stderr)
    print(json.dumps({
        "correct": t.failed == 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {name: {"value": finite(float(metrics[name])), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an error, so the children are stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    sys.exit(main())
