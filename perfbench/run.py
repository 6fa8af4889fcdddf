#!/usr/bin/env python3
"""The repo benchmark: closed-loop workloads against the real `mhc serve`.

    python3 perfbench/run.py --workload fresh_check --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout. It builds `mhc` and the traced server
from source (dune, build directory .bench_build/dune), drives the server
from this single-threaded process with one request in flight, times each
request on the client side, checks every response against its reference,
prints each metric with its name and unit, and prints one JSON result as
the last line of standard output. It exits 1 when any response is wrong.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
reports the per-layer metrics: it serves the same stream from `mhc serve`
and from perfbench/tracer (the same request loop with a stopwatch around
each layer) in turns, and reports the difference between their p50
latencies as the tracing overhead. See perfbench/NOTES.md.
"""

import argparse
import gc
import json
import os
import platform
import signal
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

BUILD_DIR = os.path.join(".bench_build", "dune")
WORK_DIR = os.path.join(".bench_build", "work")
MHC = os.path.join(BUILD_DIR, "default", "bin", "mhc.exe")
TRACER = os.path.join(BUILD_DIR, "default", "perfbench", "tracer", "tracer.exe")

# Set-ups per --trace 0 run; setup_s is their median.
SETUPS = 7
# After the build, a run must end well inside this.
WATCHDOG_S = 150

# Turns each server of a --trace 1 run takes.
TRACE_ROUNDS = 3

# Layer self times must add up to serve.handle_us within this share.
COVERAGE_TOLERANCE = 0.10

# Memory and other gauges that grow with the requests served are read
# after this many timed requests, the same count in every run, so a
# faster server does not read as a bigger one.
GAUGE_AT = 2000


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Statistics.

def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it. Exact, never interpolated."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    rank = max(1, -(-p * len(xs) // 100))
    return xs[rank - 1]


def beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, -(-p * n // 100))


# ---------------------------------------------------------------------------
# Build.

def build():
    for f in ("dune-project", os.path.join("bin", "mhc.ml")):
        if not os.path.exists(f):
            raise BenchError("%s not found: run from the root of a checkout" % f)
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
         "./bin/mhc.exe", "./perfbench/tracer/tracer.exe"],
        stdout=sys.stderr, stderr=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"))  # write nothing outside
    if r.returncode != 0:
        raise BenchError("build failed")


def emit_spec_profile(work):
    path = os.path.join(work, "spec.json")
    subprocess.run(
        [MHC, "profile", "--emit-spec", path,
         workloads.corpus_path(workloads.PROFILE_PROGRAM)],
        stdout=subprocess.DEVNULL, check=True)
    return path


# ---------------------------------------------------------------------------
# One server process and its client end.

LIVE = []
FIXED_LAYOUT = []


class Server:
    """A server process spoken to over stdio or TCP, one request at a time."""

    def __init__(self, argv, transport):
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE if transport == "tcp" else subprocess.DEVNULL)
        LIVE.append(self)
        self.sock = None
        if transport == "tcp":
            banner = self.proc.stderr.readline().decode()
            if "listening on" not in banner:
                raise BenchError("server did not start: %r" % banner)
            host, port = banner.split("listening on ")[1].split()[0].split(":")
            self.sock = socket.create_connection((host, int(port)))
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.reader = self.sock.makefile("rb")
            self.send = self.sock.sendall
        else:
            self.reader = self.proc.stdout

            def send(data, w=self.proc.stdin):
                w.write(data)
                w.flush()
            self.send = send

    def roundtrip(self, line):
        self.send(line + b"\n")
        resp = self.reader.readline()
        if not resp:
            raise BenchError("server closed the connection")
        return resp

    def cpu_s(self):
        """User plus system CPU of the whole process, in seconds."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def close(self):
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for f in (self.proc.stdout, self.proc.stderr):
            if f is not None:
                f.close()
        if self in LIVE:
            LIVE.remove(self)


def stop_all():
    for s in list(LIVE):
        if s.proc.poll() is None:
            s.proc.kill()
        s.proc.wait()
        LIVE.remove(s)


def fixed_layout():
    """A prefix that starts a program with address randomization off, so
    every server of every run gets the same memory layout; empty when
    setarch is missing or not permitted."""
    cmd = ["setarch", platform.machine(), "-R"]
    try:
        r = subprocess.run(cmd + ["true"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
    except OSError:
        return []
    return cmd if r.returncode == 0 else []


def server_argv(exe, transport, spec, report=None):
    """`mhc serve` (or the tracer) as the workload runs it."""
    if exe == MHC:
        argv = [MHC, "serve"]
        if transport == "tcp":
            argv += ["--listen", "127.0.0.1:0"]
    else:
        argv = [TRACER]
        argv += (["--listen", "0"] if transport == "tcp" else
                 ["--report", report, "--gauges-at", str(GAUGE_AT)])
    if spec:
        argv += ["--spec-profile", spec]
    return FIXED_LAYOUT + argv


def set_up(wl, argv, transport):
    """Spawn a server and warm it: the first answered `ready` probe, then
    the warm-up requests. Returns the server, the seconds it took, and
    each warm-up request's check (None when it passed)."""
    t0 = time.perf_counter()
    srv = Server(argv, transport)
    checks = [workloads.check_response(req.ref, srv.roundtrip(req.line))
              for req in [wl.ready()] + wl.warmup()]
    return srv, time.perf_counter() - t0, checks


class ClosedLoop:
    """Timed requests to one server, one in flight, numbered from 0 and
    sent in one or more segments. Responses are checked after the
    segments, so checking costs the loop nothing. `probe`, if given, is
    called once, right after request GAUGE_AT - 1 is answered."""

    def __init__(self, srv, wl, probe=None):
        self.srv, self.wl, self.probe = srv, wl, probe
        self.lats, self.sent, self.window_ns = [], [], 0
        self.probed = None

    def run_for(self, seconds):
        start = time.perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        end = start
        gc.disable()
        try:
            while end < deadline:
                req = self.wl.request(len(self.lats))
                t0 = time.perf_counter_ns()
                resp = self.srv.roundtrip(req.line)
                end = time.perf_counter_ns()
                self.lats.append(end - t0)
                self.sent.append((req.ref, resp))
                if len(self.sent) == GAUGE_AT and self.probe:
                    self.probed = self.probe()
        finally:
            gc.enable()
        self.window_ns += end - start

    def reach_gauge(self):
        """After the window: send untimed requests, continuing the stream,
        until GAUGE_AT requests have been answered. A run that gets
        through that many in its window sends none."""
        while len(self.sent) < GAUGE_AT:
            req = self.wl.request(len(self.sent))
            self.sent.append((req.ref, self.srv.roundtrip(req.line)))
            if len(self.sent) == GAUGE_AT and self.probe:
                self.probed = self.probe()

    def checks(self):
        return [workloads.check_response(ref, resp) for ref, resp in self.sent]


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics.

def end_to_end(wl, seconds, spec, work):
    """The timed window runs on the first server set up. The other
    set-ups happen between equal segments of the window, so setup_s
    samples the machine across the whole run, as the latencies do."""
    argv = server_argv(MHC, wl.transport, spec)
    srv, s, checks = set_up(wl, argv, wl.transport)
    setups = [s]
    loop = ClosedLoop(srv, wl, probe=srv.peak_rss_mb)
    cpu0 = srv.cpu_s()
    for k in range(SETUPS):
        loop.run_for(seconds / SETUPS)
        if k < SETUPS - 1:
            extra, s, c = set_up(wl, argv, wl.transport)
            extra.close()
            setups.append(s)
            checks += c
    cpu = srv.cpu_s() - cpu0
    loop.reach_gauge()
    srv.close()
    lats, window = loop.lats, loop.window_ns / 1e9
    bad = [e for e in loop.checks() if e]
    checks += loop.checks()
    n, sent = len(lats), len(loop.sent)
    metrics = {
        "setup_s": percentile(setups, 50),
        "throughput_rps": n / window,
        "p50_ms": percentile(lats, 50) / 1e6,
        "p99_ms": percentile(lats, 99) / 1e6,
        "cpu_ms_per_req": cpu * 1e3 / n,
        "peak_rss_mb": loop.probed,
        "ok_frac": (sent - len(bad)) / sent,
    }
    notes = [
        "requests %d timed in %.3f s, p99 has %d samples beyond it"
        % (n, window, beyond(n, 99)),
        "peak_rss_mb read after request %d; %d untimed requests sent to "
        "reach it" % (GAUGE_AT, sent - n),
        "setup_s over %d set-ups: %s" % (
            len(setups), " ".join("%.4f" % s for s in setups)),
        "failed_frac %.6f (%d of %d requests)" % (len(bad) / sent, len(bad), sent),
    ]
    return metrics, checks, notes


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics from the traced server.

# Registry phase spans grouped into the layers they belong to. Syntax
# covers the user's tokens only: the prelude is lexed and parsed under
# compile/prelude.
PHASES = {
    "syntax": ["compile/lex", "compile/layout", "compile/parse"],
    "static": ["compile/fixity", "compile/static"],
    "desugar": ["compile/desugar"],
    "infer": ["compile/infer", "compile/methods", "compile/resolve"],
    "dicts": ["compile/dicts"],
    "normalize": ["compile/normalize"],
}


def split_compile(spans, baseline):
    """Split one request's compile spans (ns) into the prelude's share and
    each phase's share for the user's program. The prelude's share of a
    phase is what that phase took to check a trivial program, capped at
    what it took here; the prelude's own lex and parse and the compile
    span's self time are all prelude."""
    if "compile" not in spans:
        return None
    out = {}
    prelude = spans.get("compile/prelude", 0)
    children = prelude
    for layer, names in PHASES.items():
        took = sum(spans.get(n, 0) for n in names)
        children += took
        base = 0 if layer == "syntax" else sum(baseline.get(n, 0) for n in names)
        share = min(base, took)
        prelude += share
        out[layer] = took - share
    out["prelude"] = prelude + max(0, spans["compile"] - children)
    return out


def self_times(r, baseline):
    """One traced request's layer self times (ns) and counts."""
    sp = r["spans"]
    spec = r["spec"]
    compiled = split_compile(sp, baseline)
    # on a miss the compile seam also ran the request's optimizer passes;
    # the specialise seam's own optimize pass is already in `spec`
    passes = max(0, sp.get("optimize", 0) - spec) if compiled else 0
    in_hook = sp.get("compile", 0) + passes
    vm = "exec/lower" in sp
    # lazy evaluation leaves most of the work to rendering, which forces
    # the value, so a backend's run time is its eval and render spans
    run_ns = sp.get("exec/eval", 0) + sp.get("exec/render", 0)
    row = {
        "serve.parse": r["parse"],
        "serve.render": r["render"],
        "cache": max(0, r["hook"] - in_hook),
        "opt.passes": passes,
        "opt.spec_hook": spec,
        "exec.eval": 0 if vm else run_ns,
        "exec.vm_lower": sp.get("exec/lower", 0),
        "exec.vm_run": run_ns if vm else 0,
    }
    row["exec.other"] = max(0, sp.get("exec", 0) - run_ns
                            - row["exec.vm_lower"])
    for layer in ["prelude"] + list(PHASES):
        row["compile." + layer] = compiled[layer] if compiled else 0
    return row, {"handle": r["handle"], "hit": r["hits"] > 0,
                 "run": r["sel"] is not None, "vm": vm}


def coverage(rows):
    """Each layer's mean self time, the mean handling time, and whether
    the layers add up to the handling time within COVERAGE_TOLERANCE:
    None if they do, else the reason."""
    mean_handle = sum(k["handle"] for _, k in rows) / len(rows)
    means = {layer: sum(t[layer] for t, _ in rows) / len(rows)
             for layer in rows[0][0]}
    covered = sum(means.values()) / mean_handle
    err = None
    if abs(covered - 1) > COVERAGE_TOLERANCE:
        err = "layer self times cover %.1f%% of serve.handle, beyond %d%%" % (
            100 * covered, 100 * COVERAGE_TOLERANCE)
    return means, mean_handle, covered, err


def per_layer(wl, seconds, spec, work):
    """Serve the stream from an untraced `mhc serve` and from the tracer on
    stdio (and, for a TCP workload, from the tracer on TCP too), all alive
    at once and taking turns in short segments, so drift in the machine's
    speed falls on every server alike."""
    report_path = os.path.join(work, "trace-report.json")
    servers = {"untraced": (MHC, wl.transport, None),
               "stdio": (TRACER, "stdio", report_path)}
    if wl.transport == "tcp":
        servers["tcp"] = (TRACER, "tcp", None)
    loops, checks = {}, []
    for name, (exe, transport, report) in servers.items():
        srv, _, c = set_up(wl, server_argv(exe, transport, spec, report),
                           transport)
        loops[name] = ClosedLoop(srv, wl)
        checks += c
    for _ in range(TRACE_ROUNDS):
        for loop in loops.values():
            loop.run_for(seconds / (TRACE_ROUNDS * len(loops)))
    n_timed = len(loops["stdio"].lats)
    loops["stdio"].reach_gauge()
    for loop in loops.values():
        loop.srv.close()
        checks += loop.checks()
    with open(report_path) as fh:
        report = json.load(fh)
    os.remove(report_path)
    untraced_p50 = percentile(loops["untraced"].lats, 50)
    traced_p50 = percentile(loops[wl.transport].lats, 50)

    timed = [r for r in report["requests"]
             if isinstance(r["id"], int) and r["id"] < n_timed]
    first = [r for r in report["requests"]
             if isinstance(r["id"], int) and r["id"] < GAUGE_AT]
    gauges = report["gauges"]
    if not gauges:
        raise BenchError("tracer read no gauges after request %d" % GAUGE_AT)
    rows = [self_times(r, report["prelude"]) for r in timed]
    layers = list(rows[0][0])

    def p50(values, scale):
        values = list(values)
        return percentile(values, 50) / scale if values else 0.0

    def layer_p50(layer, scale, where=lambda k: True):
        return p50((t[layer] for t, k in rows if where(k)), scale)

    hits = sum(r["hits"] for r in timed)
    misses = sum(r["misses"] for r in timed)
    # hot workloads insert only while warming up, so inserts are taken
    # over every request the tracer served
    inserts = [self_times(r, report["prelude"])[0]["cache"]
               for r in report["requests"] if r["misses"] > 0]
    handle_us = p50((k["handle"] for _, k in rows), 1e3)
    m = {
        "compile.prelude_ms": layer_p50("compile.prelude", 1e6),
        "compile.syntax_ms": layer_p50("compile.syntax", 1e6),
        "compile.static_ms": layer_p50("compile.static", 1e6),
        "compile.desugar_ms": layer_p50("compile.desugar", 1e6),
        "compile.infer_ms": layer_p50("compile.infer", 1e6),
        "compile.dicts_ms": layer_p50("compile.dicts", 1e6),
        "compile.normalize_ms": layer_p50("compile.normalize", 1e6),
        "checker.unifications": p50((r.get("unif", 0) for r in timed), 1),
        "checker.context_reductions": p50((r.get("ctx", 0) for r in timed), 1),
        "cache.lookup_us": layer_p50("cache", 1e3, lambda k: k["hit"]),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.insert_us": p50(inserts, 1e3),
        "cache.bytes": gauges["cache_bytes"],
        "cache.evictions": sum(r["evictions"] for r in first),
        "opt.spec_hook_ms": layer_p50("opt.spec_hook", 1e6),
        "exec.eval_ms": layer_p50("exec.eval", 1e6,
                                  lambda k: k["run"] and not k["vm"]),
        "exec.vm_lower_ms": layer_p50("exec.vm_lower", 1e6, lambda k: k["vm"]),
        "exec.vm_run_ms": layer_p50("exec.vm_run", 1e6, lambda k: k["vm"]),
        "exec.selections": p50((r["sel"] for r in timed
                                if r["sel"] is not None), 1),
        "exec.dict_constructions": p50((r["dc"] for r in timed
                                        if r["dc"] is not None), 1),
        "serve.parse_us": layer_p50("serve.parse", 1e3),
        "serve.render_us": layer_p50("serve.render", 1e3),
        "serve.handle_us": handle_us,
        "net.transit_us": traced_p50 / 1e3 - handle_us,
        "ident.interned": gauges["ident_interned"],
        "gc.minor_words_per_req": sum(r["minor"] for r in timed) / len(timed),
        "gc.major_collections": sum(r["major"] for r in first),
        "gc.heap_peak_words": gauges["heap_peak_words"],
        "trace.overhead_ms": (traced_p50 - untraced_p50) / 1e6,
    }

    # self-time table: each layer's mean, its share of the mean handling
    # time, and whether the layers account for all of it
    means, mean_handle, covered, err = coverage(rows)
    # a split that misses part of the handling time fails the run, as a
    # wrong response does
    checks.append(err)
    notes = ["%-22s %10s %10s %7s" % ("layer self time", "mean ms",
                                       "p50 ms*", "share")]
    for layer in layers:
        ran = [t[layer] for t, _ in rows if t[layer] > 0]
        notes.append("%-22s %10.4f %10.4f %6.1f%%" % (
            layer, means[layer] / 1e6, p50(ran, 1e6),
            100 * means[layer] / mean_handle))
    notes.append("%-22s %10.4f %10.4f %6.1f%%" % (
        "serve.handle", mean_handle / 1e6, handle_us / 1e3, 100.0))
    notes.append("(* p50 over the requests in which the layer ran)")
    top = max(layers, key=lambda layer: means[layer])
    notes.append("largest layer share: %s (%.1f%% of handling)"
                 % (top, 100 * means[top] / mean_handle))
    notes.append("layer self times cover %.1f%% of serve.handle: %s"
                 % (100 * covered, "ok" if err is None else "MISMATCH"))
    notes.append("tracing overhead: traced p50 %.4f ms - untraced p50 %.4f ms"
                 " = %.4f ms" % (traced_p50 / 1e6, untraced_p50 / 1e6,
                                 m["trace.overhead_ms"]))
    return m, checks, notes


# ---------------------------------------------------------------------------

def declared_metrics(trace):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOAD_TAG))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    def on_alarm(signum, frame):
        raise BenchError("run exceeded %d s after the build" % WATCHDOG_S)
    signal.signal(signal.SIGALRM, on_alarm)
    work = os.path.join(WORK_DIR, "%s-%d" % (args.workload, os.getpid()))
    try:
        build()
        signal.alarm(WATCHDOG_S)
        FIXED_LAYOUT[:] = fixed_layout()
        os.makedirs(work, exist_ok=True)
        wl = workloads.Workload(args.workload, args.seed)
        spec = emit_spec_profile(work) if wl.transport == "tcp" else None
        measure = per_layer if args.trace else end_to_end
        metrics, checks, notes = measure(wl, args.seconds, spec, work)
        units = declared_metrics(args.trace)
        if set(metrics) != set(units):
            raise BenchError("metrics %s differ from BENCHMARK.json's %s"
                             % (sorted(metrics), sorted(units)))
    except (BenchError, OSError, subprocess.CalledProcessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        stop_all()
        if os.path.isdir(work):
            for f in os.listdir(work):
                os.remove(os.path.join(work, f))
            os.rmdir(work)

    print("workload %s seed %d trace %d" % (args.workload, args.seed, args.trace))
    for line in notes:
        print("  " + line)
    for name, value in metrics.items():
        print("  %-28s %14.6f %s" % (name, value, units[name]))
    failures = [e for e in checks if e]
    for err in failures[:5]:
        print("  MISMATCH: %s" % err)
    correct = not failures
    # every checked request counts, warm-up and ready probes included
    print(json.dumps({
        "correct": correct,
        "attempted": len(checks),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
