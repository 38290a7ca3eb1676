#!/usr/bin/env python3
"""End-to-end benchmark of `blockc serve`, with a per-layer ledger.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload cold-compile --seed 1 --seconds 25 --trace 0

The script builds `blockc` and the benchmark's OCaml helper
(perfbench/layers.ml) with dune, spawns `blockc serve` over its stdio
NDJSON protocol, and drives it from one client with one request in
flight (a closed loop).  Every server gets a fresh, empty artifact cache
directory (BLOCKC_JIT_CACHE) that is removed when the server stops.

Every `execute` digest and every `batch` item digest is compared with
the IR interpreter's digest for the same kernel, bindings and seed.
The references are computed by `layers.exe refs` before any server is
spawned, so they sit outside every timed window and outside setup_s,
and are cached under .perfbench/refs keyed by the helper binary.

With --trace 0 the last stdout line carries the end-to-end metrics;
with --trace 1 it carries the per-layer metrics: the same serve run
supplies the response-side layers (serve, runtime, GC), and an
in-process replay of the run's request sequence through the layer
calls (layers.exe replay) supplies the rest.  The replay is made twice,
untraced and traced; the difference is the tracing overhead.  Traced
runs leave a Chrome trace_event file and a ledger table under
.perfbench/runs/.  perfbench/README.md explains the workloads and the
metrics.
"""

import argparse
import hashlib
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")
BLOCKC = os.path.join(ROOT, "_build", "default", "bin", "blockc.exe")
LAYERS = os.path.join(ROOT, "_build", "default", "perfbench", "layers.exe")

WORKLOADS = ("cold-compile", "warm-exec", "batch-fanout")
VARIANTS = ("point", "transformed")
BACKENDS = ("ocaml", "c")

# The warm set: kernel plus the bindings fixed for every size.
WARM_CELLS = (
    ("lu_opt", {}),
    ("lu_pivot_opt", {}),
    ("cholesky", {}),
    ("trisolve", {}),
    ("matmul", {"FREQ_PCT": 5}),
    ("matmul", {"FREQ_PCT": 50}),
    ("givens", {}),
    ("aconv", {}),
)
# 72-648 KiB per n x n matrix: past the 48 KiB L1d, inside the 2 MiB L2.
SIZES = (96, 192, 288)
# Array contents come from a small pool of data seeds so that the
# interpreter references (seconds each at n = 288) are computed once
# per checkout; --seed draws the request sequence and the data seed.
DATA_SEEDS = (1, 2)
# Every batch carries the same sizes, the size list dealt in order, so
# batches of one cell are the same work and the loop's latency mix
# depends on the drawn cells only, not on how sizes fell into lanes.
BATCH_ITEMS = 8
BATCH_SIZES = tuple(SIZES[i % len(SIZES)] for i in range(BATCH_ITEMS))

REQUEST_TIMEOUT_S = 120.0
# cold-compile's setup is a spawn and a ping: cheap enough to repeat.
SETUP_SPAWNS = 6
# Two walks give the compile-miss p75 more than ten samples beyond it.
MIN_WALKS = 2
# The warm workloads pre-warm this many fresh servers, one after the
# other: on a 2-vCPU host with no CPU stolen, one pre-warm's wall
# spread by about a fifth over ten runs, the median of two by less.
PREWARMS = 2
# Host contention.  A walk, pre-warm or loop window during which the
# hypervisor stole more than MAX_STEAL of the CPU time measured the
# neighbours, not the program (a few per cent stolen from two vCPUs
# slows the program by a quarter): its samples are set aside (its
# outputs are still checked) and the run measures on, up to MAX_WALKS
# walks or LOOP_CAP x --seconds of timed loop.  If too little was clean
# by then, the least-stolen measurements are used and the report says
# so.
MAX_STEAL = 0.03
WINDOW_S = 1.0
MAX_WALKS = 3
LOOP_CAP = 1.5


class BenchError(Exception):
    """The benchmark cannot run here (no checkout, build failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env(cache_dir=None):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("BLOCKC_", "BLOCKABILITY_"))}
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    env["DUNE_CACHE"] = "disabled"
    if cache_dir is not None:
        env["BLOCKC_JIT_CACHE"] = cache_dir
    return env


def pct(values, p):
    """Percentile p (0-100) with linear interpolation between ranks."""
    xs = sorted(values)
    if not xs:
        return 0.0
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def geomean(values):
    vs = [v for v in values if v > 0]
    return math.exp(sum(math.log(v) for v in vs) / len(vs)) if vs else 0.0


# ---- build and environment ---------------------------------------------


def build():
    for f in ("dune-project", os.path.join("bin", "blockc.ml"), "lib"):
        if not os.path.exists(os.path.join(ROOT, f)):
            raise BenchError(f"not the root of a checkout: {f} is missing")
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./bin/blockc.exe", "./perfbench/layers.exe"],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout.decode(errors="replace")[-4000:])


def command_output(argv):
    try:
        r = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return r.stdout.decode(errors="replace").strip()
    except OSError:
        return ""


def source_digest():
    h = hashlib.md5()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", ".c", ".py")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def environment(seed, catalog):
    def getconf(name):
        v = command_output(["getconf", name])
        return int(v) if v.isdigit() else None
    commit = command_output(["git", "-C", ROOT, "rev-parse", "HEAD"]) if os.path.isdir(
        os.path.join(ROOT, ".git")) else ""
    return {
        "commit": commit or None,
        "source_digest": source_digest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "l1d_bytes": getconf("LEVEL1_DCACHE_SIZE"),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "ocamlopt_version": command_output(["ocamlopt", "-version"]),
        "cc_version": command_output(["cc", "--version"]).split("\n")[0],
        "recommended_domain_count": catalog["recommended_domain_count"],
    }


def read_catalog():
    """Registry entries and host facts from the helper."""
    r = subprocess.run([LAYERS, "catalog"], env=child_env(), stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE)
    if r.returncode != 0:
        raise BenchError("layers.exe catalog failed: " + r.stderr.decode(errors="replace"))
    return json.loads(r.stdout)


# ---- interpreter references --------------------------------------------


def ref_key(kernel, bindings, seed):
    return f"{kernel} {json.dumps(bindings, sort_keys=True)} {seed}"


def ref_store():
    with open(LAYERS, "rb") as f:
        tag = hashlib.md5(f.read()).hexdigest()
    return os.path.join(WORK, "refs", tag + ".json")


def reference_digests(wanted):
    """Interpreter digests for (kernel, bindings, seed) triples, computed
    by two helper processes for the triples not cached yet."""
    path = ref_store()
    store = {}
    if os.path.exists(path):
        with open(path) as f:
            store = json.load(f)
    missing, seen = [], set()
    for kernel, bindings, seed in wanted:
        k = ref_key(kernel, bindings, seed)
        if k not in store and k not in seen:
            seen.add(k)
            missing.append({"kernel": kernel, "bindings": bindings, "seed": seed})
    if missing:
        # Longest first, dealt round-robin, to balance the two workers.
        missing.sort(key=lambda r: -math.prod(r["bindings"].values()))
        chunks = [missing[i::2] for i in range(2)]
        procs = [subprocess.Popen([LAYERS, "refs"], stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, env=child_env())
                 for c in chunks if c]
        for p, c in zip(procs, chunks):
            p.stdin.write(json.dumps(c).encode())
            p.stdin.close()
        outs = [p.stdout.read() for p in procs]
        if any(p.wait() != 0 for p in procs):
            raise BenchError("computing interpreter references failed")
        for c, out in zip(chunks, outs):
            for r, d in zip(c, json.loads(out)):
                store[ref_key(r["kernel"], r["bindings"], r["seed"])] = d
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".tmp", "w") as f:
            json.dump(store, f)
        os.replace(path + ".tmp", path)
    return {ref_key(*w): store[ref_key(*w)] for w in wanted}


# ---- workload plans ----------------------------------------------------


def warm_bindings(kernel, fixed, n):
    if kernel == "givens":
        return {"M": n, "N": n}
    if kernel == "aconv":
        # Band n over n*n/3 points: the work of an n x n LU.
        return {"N1": n * n // 3, "N2": n, "N3": n * n // 3}
    return dict({"N": n}, **fixed)


def warm_ref_triples():
    return [(k, warm_bindings(k, fixed, n), s)
            for k, fixed in WARM_CELLS for n in SIZES for s in DATA_SEEDS]


def variants_of(kernel_info):
    return VARIANTS if kernel_info["blockable"] else VARIANTS[:1]


def first_use(kernels, execute_seed=None, refs=None):
    """derive, then compile (and, for cold-compile, execute) every variant
    on every backend, kernel by kernel."""
    reqs = []
    for k in kernels:
        reqs.append({"op": "derive", "kernel": k["name"]})
        for v in variants_of(k):
            for b in BACKENDS:
                reqs.append({"op": "compile", "kernel": k["name"], "variant": v, "backend": b})
                if execute_seed is not None:
                    bindings = k["default_bindings"]
                    reqs.append({"op": "execute", "kernel": k["name"], "variant": v, "backend": b,
                                 "bindings": bindings, "seed": execute_seed,
                                 "ref": refs[ref_key(k["name"], bindings, execute_seed)]})
    return reqs


def decks(rng, items):
    """Endless stream of seeded shuffles of `items`: every item comes up
    once per deck, so the request mix barely depends on the seed."""
    while True:
        deck = list(items)
        rng.shuffle(deck)
        yield from deck


def warm_draws(workload, seed, refs):
    """The endless seeded request stream of a warm workload."""
    rng = random.Random(f"{workload}/{seed}")
    combos = [(c, v, b) for c in WARM_CELLS for v in VARIANTS for b in BACKENDS]
    if workload == "warm-exec":
        for (kernel, fixed), variant, backend, n in decks(rng, [c + (n,) for c in combos for n in SIZES]):
            data_seed = rng.choice(DATA_SEEDS)
            b = warm_bindings(kernel, fixed, n)
            yield {"op": "execute", "kernel": kernel, "variant": variant, "backend": backend,
                   "bindings": b, "seed": data_seed, "ref": refs[ref_key(kernel, b, data_seed)]}
    else:
        for (kernel, fixed), variant, backend in decks(rng, combos):
            data_seed = rng.choice(DATA_SEEDS)
            bl = [warm_bindings(kernel, fixed, n) for n in BATCH_SIZES]
            yield {"op": "batch", "kernel": kernel, "variant": variant, "backend": backend,
                   "bindings_list": bl, "seed": data_seed,
                   "refs": [refs[ref_key(kernel, b, data_seed)] for b in bl]}


def wire(req):
    """What the client sends: the request without its expected digests."""
    return {k: v for k, v in req.items() if k not in ("ref", "refs")}


# ---- the server --------------------------------------------------------


class Server:
    """One `blockc serve` process with its own empty artifact cache."""

    count = 0

    def __init__(self):
        Server.count += 1
        self.cache = os.path.join(WORK, "cache", f"{os.getpid()}-{Server.count}")
        shutil.rmtree(self.cache, ignore_errors=True)
        os.makedirs(self.cache)
        self.stderr = open(os.path.join(WORK, "logs", f"serve-{os.getpid()}-{Server.count}.err"), "wb")
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen([BLOCKC, "serve"], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.stderr,
                                     env=child_env(self.cache), cwd=ROOT)
        self.next_id = 0

    def request(self, req):
        """Send one request, wait for its response; returns (response, seconds)."""
        self.next_id += 1
        line = json.dumps(dict(wire(req), id=self.next_id), separators=(",", ":")) + "\n"
        t0 = time.perf_counter()
        self.proc.stdin.write(line.encode())
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], REQUEST_TIMEOUT_S)
        out = self.proc.stdout.readline() if ready else b""
        dt = time.perf_counter() - t0
        if not out:
            raise BenchError(f"serve gave no response to {line.strip()}")
        resp = json.loads(out)
        if resp.get("id") != self.next_id:
            raise BenchError(f"response id {resp.get('id')} for request {self.next_id}")
        return resp, dt

    def status(self):
        resp, _ = self.request({"op": "status"})
        return resp

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def close(self):
        try:
            if self.proc.poll() is None:
                self.request({"op": "shutdown"})
                self.proc.wait(timeout=30)
        except (BenchError, OSError, ValueError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            for f in (self.proc.stdin, self.proc.stdout, self.stderr):
                try:
                    f.close()
                except OSError:  # unflushed bytes to a server that died
                    pass
            shutil.rmtree(self.cache, ignore_errors=True)


def toolchain_runs(status):
    return status["compiler_invocations"] + status["cc_invocations"]


class Steal:
    """Share of the host's CPU time stolen by the hypervisor since mark()."""

    def __init__(self):
        self.mark()

    @staticmethod
    def ticks():
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:9]]
        return v[7], sum(v)

    def mark(self):
        self.start = self.ticks()

    def frac(self):
        (s0, t0), (s1, t1) = self.start, self.ticks()
        return (s1 - s0) / (t1 - t0) if t1 > t0 else 0.0


def least_stolen(measured, enough):
    """Which measurements to use, from (stolen share, weight, sample)
    triples: every clean one when together they weigh `enough`, else the
    least-stolen ones until they do.  Returns (samples, number set
    aside, whether a contended one is used)."""
    used = [m for m in measured if m[0] <= MAX_STEAL]
    if sum(m[1] for m in used) < enough:
        used = []
        for m in sorted(measured, key=lambda m: m[0]):
            if sum(u[1] for u in used) >= enough:
                break
            used.append(m)
    return [m[2] for m in used], len(measured) - len(used), any(m[0] > MAX_STEAL for m in used)


# ---- running a workload ------------------------------------------------


class Run:
    """Counts, samples and checks of one benchmark run."""

    def __init__(self, keep_samples=False):
        self.keep_samples = keep_samples
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.setups = []  # seconds, spawn to first timed request
        self.first_use = []  # seconds per first-use sequence
        self.misses = []  # seconds per compile answered "compiled"
        self.ops = []  # seconds per timed-loop operation
        self.loop_s = 0.0  # wall of the timed loops
        self.rss = []
        self.samples = []  # (request, response, seconds) of timed requests, when kept
        self.steal = []  # stolen share of each walk, pre-warm or loop window
        self.set_aside = 0  # walks, pre-warms or windows not used because of steal
        self.loop_requests = 0  # requests sent by the timed loop
        self.contended = False  # a contended walk, pre-warm or window is used
        self.plan = []  # phases replayed by the traced run

    def fail(self, msg):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(msg)

    def send(self, srv, req, timed=False):
        """Send a request, check its response; returns (response, seconds)."""
        self.attempted += 1
        resp, dt = srv.request(req)
        if timed and self.keep_samples:
            self.samples.append((req, resp, dt))
        what = f"{req['op']} {req['kernel']} {req.get('variant', '')} {req.get('backend', '')}"
        if not resp.get("ok"):
            self.fail(f"{what}: {resp.get('error')}")
        elif req["op"] == "derive":
            if resp.get("blockable") != req["expect_blockable"]:
                self.fail(f"{what}: blockable={resp.get('blockable')} ({resp.get('reason', '')})")
        elif req["op"] == "execute":
            if resp.get("digest") != req["ref"]:
                self.fail(f"{what} {req['bindings']}: digest {resp.get('digest')}, "
                          f"interpreter {req['ref']}")
        elif req["op"] == "batch":
            for i, (got, ref) in enumerate(zip(resp.get("digests", []), req["refs"])):
                if got != ref:
                    self.fail(f"{what} item {i} {req['bindings_list'][i]}: digest {got}, "
                              f"interpreter {ref}")
            if len(resp.get("digests", [])) != len(req["refs"]):
                self.fail(f"{what}: {len(resp.get('digests', []))} digests for {len(req['refs'])} items")
        return resp, dt

    def first_use_sequence(self, srv, reqs, timed):
        """Send a first-use sequence; the toolchain must run exactly once
        per compile answered "compiled", and nothing may come from disk.
        Returns (wall seconds, compile-miss latencies)."""
        before = toolchain_runs(srv.status())
        misses = []
        t0 = time.perf_counter()
        for req in reqs:
            resp, dt = self.send(srv, req, timed)
            if req["op"] == "compile" and resp.get("ok"):
                if resp["disposition"] == "compiled":
                    misses.append(dt)
                elif resp["disposition"] == "disk":
                    self.fail(f"compile {req['kernel']}: artifact came from disk in a fresh cache")
        wall = time.perf_counter() - t0
        st = srv.status()
        if toolchain_runs(st) - before != len(misses) or st["disk_hits"] != 0:
            self.fail(f"cold guard: {toolchain_runs(st) - before} toolchain runs, {len(misses)} "
                      f"compile misses, {st['disk_hits']} disk hits")
        return wall, misses


def with_expectations(reqs, catalog):
    blockable = {k["name"]: k["blockable"] for k in catalog["kernels"]}
    for r in reqs:
        if r["op"] == "derive":
            r["expect_blockable"] = blockable[r["kernel"]]
    return reqs


def run_cold(run, seed, seconds, catalog, refs):
    """Walks of all registry kernels, each on a fresh server, until
    `seconds` have passed and at least MIN_WALKS were made; extra spawns
    give setup_s a median."""
    for _ in range(SETUP_SPAWNS):
        srv = Server()
        try:
            srv.request({"op": "ping"})
            run.setups.append(time.perf_counter() - srv.t_spawn)
        finally:
            srv.close()
    t_start = time.perf_counter()
    walk, walks = 0, []
    clean = lambda: sum(1 for w in walks if w[0] <= MAX_STEAL)
    while walk < MAX_WALKS and (clean() < MIN_WALKS or time.perf_counter() - t_start < seconds):
        rng = random.Random(f"cold-compile/{seed}/{walk}")
        kernels = list(catalog["kernels"])
        rng.shuffle(kernels)
        reqs = with_expectations(first_use(kernels, execute_seed=seed, refs=refs), catalog)
        srv = Server()
        try:
            srv.request({"op": "ping"})
            run.setups.append(time.perf_counter() - srv.t_spawn)
            steal = Steal()
            wall, misses = run.first_use_sequence(srv, reqs, timed=walk == 0)
            run.steal.append(steal.frac())
            walked = (wall, misses, srv.peak_rss_mb())
        finally:
            srv.close()
        walks.append((run.steal[-1], 1, walked))
        if walk == 0:
            run.plan = [{"name": "walk", "requests": reqs}]
        walk += 1
    used, run.set_aside, run.contended = least_stolen(walks, MIN_WALKS)
    for wall, misses, rss in used:
        run.first_use.append(wall)
        run.misses += misses
        run.ops += misses
        run.loop_s += wall
        run.rss.append(rss)


def prewarmed_server(run, prewarm):
    """PREWARMS fresh servers through the pre-warm, one after another;
    the last one serves the timed loop.  setup_s, cold_compile_s and the
    compile misses come from the pre-warms during which the host stole
    at most MAX_STEAL of the CPU time, or from the least-stolen one."""
    done, srv = [], None  # (stolen share, 1, (setup, wall, misses))
    try:
        for _ in range(PREWARMS):
            if srv is not None:
                srv.close()
            srv = Server()
            srv.request({"op": "ping"})
            steal = Steal()
            wall, misses = run.first_use_sequence(srv, prewarm, timed=False)
            run.steal.append(steal.frac())
            done.append((run.steal[-1], 1, (time.perf_counter() - srv.t_spawn, wall, misses)))
    except BaseException:
        if srv is not None:
            srv.close()
        raise
    used, run.set_aside, run.contended = least_stolen(done, 1)
    for setup, wall, misses in used:
        run.setups.append(setup)
        run.first_use.append(wall)
        run.misses += misses
    return srv


def run_warm(run, workload, seed, seconds, catalog, refs):
    """Pre-warm every cell of the warm set, then a closed loop of seeded
    execute (warm-exec) or batch (batch-fanout) requests."""
    names = []
    for k, _ in WARM_CELLS:
        if k not in names:
            names.append(k)
    by_name = {k["name"]: k for k in catalog["kernels"]}
    prewarm = with_expectations(first_use([by_name[n] for n in names]), catalog)
    srv = prewarmed_server(run, prewarm)
    try:
        runs_after_setup = toolchain_runs(srv.status())
        sent = []
        draws = warm_draws(workload, seed, refs)
        # Windows of the timed loop, each with the share of CPU time the
        # host stole during it: (stolen share, wall, (op latencies, wall)).
        windows = []
        clean = lambda: sum(w for st, w, _ in windows if st <= MAX_STEAL)
        window, steal = [], Steal()
        t0 = w0 = time.perf_counter()
        while clean() < seconds and w0 - t0 < LOOP_CAP * seconds:
            req = next(draws)
            resp, dt = run.send(srv, req, timed=True)
            window.append(dt)
            sent.append(req)
            if resp.get("ok") and resp.get("disposition") != "memo":
                run.fail(f"{req['op']} {req['kernel']}: disposition {resp.get('disposition')} after setup")
            now = time.perf_counter()
            if now - w0 >= min(WINDOW_S, seconds - clean()):
                run.steal.append(steal.frac())
                windows.append((run.steal[-1], now - w0, (window, now - w0)))
                window, w0 = [], now
                steal.mark()
        run.loop_requests = len(sent)
        used, aside, contended = least_stolen(windows, seconds)
        run.set_aside += aside
        run.contended = run.contended or contended
        for ops, w in used:
            run.ops += ops
            run.loop_s += w
        if toolchain_runs(srv.status()) != runs_after_setup:
            run.fail("warm guard: the toolchain ran after setup")
        run.rss.append(srv.peak_rss_mb())
    finally:
        srv.close()
    # The traced run replays as many loop requests as the metrics used,
    # from the start, which keeps it short when contention stretched
    # the loop.
    run.plan = [{"name": "setup", "requests": prewarm},
                {"name": "loop", "requests": sent[:len(run.ops)]}]


# ---- metrics -----------------------------------------------------------

# The timed loop's operation and the tail percentile that keeps at least
# ten samples beyond it in a run of the configured length.
OP_TAIL = {"cold-compile": 75, "warm-exec": 95, "batch-fanout": 90}


def end_to_end(run, workload):
    ops_per_s = len(run.ops) / run.loop_s if run.loop_s > 0 else 0.0
    return {
        "setup_s": (statistics.median(run.setups), "s"),
        "peak_rss_mb": (statistics.median(run.rss), "MB"),
        "cold_compile_s": (statistics.median(run.first_use), "s"),
        "op_p50_ms": (pct(run.ops, 50) * 1e3, "ms"),
        "op_tail_ms": (pct(run.ops, OP_TAIL[workload]) * 1e3, "ms"),
        "ops_per_s": (ops_per_s, "1/s"),
    }


def workload_aliases(workload, m):
    """The workload-specific names the metrics stand for on this workload."""
    if workload == "cold-compile":
        return {"compile_miss_p50_ms": m["op_p50_ms"], "compile_miss_p75_ms": m["op_tail_ms"]}
    if workload == "warm-exec":
        return {"exec_rps": m["ops_per_s"], "exec_p50_ms": m["op_p50_ms"],
                "exec_p95_ms": m["op_tail_ms"]}
    if workload == "batch-fanout":
        return {"batch_items_per_s": (m["ops_per_s"][0] * BATCH_ITEMS, "1/s"),
                "batch_p50_ms": m["op_p50_ms"], "batch_p90_ms": m["op_tail_ms"]}
    return {}


def serve_side_layers(run, lanes):
    """Per-layer metrics read from the timed loop's responses."""
    samples = run.samples
    srv = [r["server"] for _, r, _ in samples if r.get("ok")]
    lat = [dt for _, r, dt in samples if r.get("ok")]
    n = max(len(srv), 1)
    out = {
        "serve.queue_ms": (pct([s["queue_ns"] for s in srv], 50) / 1e6, "ms"),
        "serve.handle_ms": (pct([s["total_ns"] - s["queue_ns"] - s["compile_ns"] - s["exec_ns"]
                                 for s in srv], 50) / 1e6, "ms"),
        "serve.pipe_ms": (pct([dt * 1e3 - s["total_ns"] / 1e6 for s, dt in zip(srv, lat)], 50), "ms"),
        "gc.minor_per_req": (sum(s["minor_gcs"] for s in srv) / n, "count"),
        "gc.major_per_req": (sum(s["major_gcs"] for s in srv) / n, "count"),
        "gc.alloc_mwords_per_req": (sum(s["allocated_words"] for s in srv) / n / 1e6, "Mwords"),
    }
    items_ns = sum(i["ns"] for _, r, _ in samples if r.get("ok") and "items" in r for i in r["items"])
    wall_ns = sum(r["server"]["exec_ns"] for _, r, _ in samples if r.get("ok") and "items" in r)
    out["runtime.fanout_eff"] = (items_ns / (lanes * wall_ns) if wall_ns else 0.0, "ratio")
    return out


def replay(run, label, traced):
    """Replay the run's plan in-process on a fresh cache; returns the
    helper's report plus the bytes of source it emitted."""
    d = os.path.join(WORK, "runs", label)
    os.makedirs(d, exist_ok=True)
    plan_path = os.path.join(d, "plan.json")
    with open(plan_path, "w") as f:
        json.dump({"phases": run.plan}, f)
    cache = os.path.join(WORK, "cache", f"{os.getpid()}-replay-{int(traced)}")
    shutil.rmtree(cache, ignore_errors=True)
    os.makedirs(cache)
    argv = [LAYERS, "replay", plan_path] + (["--chrome", os.path.join(d, "trace.json")] if traced else [])
    try:
        r = subprocess.run(argv, env=child_env(cache), stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, timeout=170)
        if r.returncode != 0:
            raise BenchError("replay failed: " + r.stderr.decode(errors="replace")[-2000:])
        rep = json.loads(r.stdout)
        rep["emit_bytes"] = sum(os.path.getsize(os.path.join(cache, f)) for f in os.listdir(cache)
                                if f.startswith("bk_") and f.endswith((".ml", ".c")))
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return rep


LEDGER_ORDER = ("core", "transform", "blueprint", "emit.ocaml", "emit.c", "toolchain.ocamlopt",
                "toolchain.cc", "load", "cache", "kernels", "exec", "digest", "other", "unattributed")


def ledger_table(rep, workload):
    rows = rep["ledger"]
    # The replay's root span lies outside every phase; it shows in the totals.
    phases = list(rep["phase_ms"])
    wall = rep["wall_ms"]
    lines = [f"ledger {workload}: in-process traced replay, {wall:.1f} ms wall",
             f"{'layer':<20}" + "".join(f"{p + ' ms':>14}{'n':>8}" for p in phases)
             + f"{'total ms':>14}{'share':>8}"]
    for layer in LEDGER_ORDER:
        cells = ""
        for p in phases:
            hit = [r for r in rows if r["phase"] == p and r["layer"] == layer]
            cells += f"{sum(r['self_ms'] for r in hit):>14.1f}{sum(r['count'] for r in hit):>8}"
        total = sum(r["self_ms"] for r in rows if r["layer"] == layer)
        if total > 0:
            lines.append(f"{layer:<20}{cells}{total:>14.1f}{total / wall:>8.1%}")
    return "\n".join(lines)


def per_layer(run, lanes, untraced, traced):
    recs = traced["records"]
    kind = lambda k: [r for r in recs if r["kind"] == k]
    led = {}
    for r in traced["ledger"]:
        led[r["layer"]] = led.get(r["layer"], 0.0) + r["self_ms"]
        led[r["layer"] + "#"] = led.get(r["layer"] + "#", 0) + r["count"]
    dec = traced["decisions"]
    compiles = kind("compile")
    memo = [r for r in compiles if r["disposition"] == "memo"]
    cells = {}
    for r in kind("exec"):
        cells.setdefault((r["kernel"], r["cell"], r["backend"], r["variant"]), []).append(r["ms"])
    med = {k: statistics.median(v) for k, v in cells.items()}

    def exec_ms(backend):
        return geomean([v for k, v in med.items() if k[2] == backend])

    def speedup(backend):
        return geomean([med[k] / med[k[:3] + ("transformed",)] for k in med
                        if k[2] == backend and k[3] == "point"
                        and med.get(k[:3] + ("transformed",), 0) > 0])

    env_ms = [r["ms"] for r in kind("env")]
    m = {
        "derive.cold_ms": (sum(r["ms"] for r in kind("derive") if r["first"]), "ms"),
        "derive.warm_ms": (sum(r["ms"] for r in kind("derive") if not r["first"]), "ms"),
        "fsa.proofs": (dec["fsa"], "count"),
        "fsa.equivalent_frac": (dec["fsa_equivalent"] / dec["fsa"] if dec["fsa"] else 0.0, "ratio"),
        "transform.decisions": (dec["other"], "count"),
        "transform.applied_frac": (dec["other_applied"] / dec["other"] if dec["other"] else 0.0, "ratio"),
        "blocker.self_ms": (led.get("transform", 0.0), "ms"),
        "blueprint.ms": (led.get("blueprint", 0.0), "ms"),
        "emit.ocaml_ms": (led.get("emit.ocaml", 0.0), "ms"),
        "emit.c_ms": (led.get("emit.c", 0.0), "ms"),
        "emit.bytes": (traced["emit_bytes"], "bytes"),
        "toolchain.ocamlopt_ms": (led.get("toolchain.ocamlopt", 0.0), "ms"),
        "toolchain.cc_ms": (led.get("toolchain.cc", 0.0), "ms"),
        "toolchain.invocations": (led.get("toolchain.ocamlopt#", 0) + led.get("toolchain.cc#", 0), "count"),
        "load.ms": (led.get("load", 0.0), "ms"),
        "cache.lookup_ms": (sum(r["ms"] for r in memo), "ms"),
        "cache.hit_frac": (len(memo) / len(compiles) if compiles else 0.0, "ratio"),
        "env.ms_p50": (pct(env_ms, 50), "ms"),
        "env.ms_p99": (pct(env_ms, 99), "ms"),
        "digest.ms_p50": (pct([r["ms"] for r in kind("digest")], 50), "ms"),
        "exec.ocaml_ms": (exec_ms("ocaml"), "ms"),
        "exec.c_ms": (exec_ms("c"), "ms"),
        "exec.speedup_ocaml": (speedup("ocaml"), "ratio"),
        "exec.speedup_c": (speedup("c"), "ratio"),
        "ledger.unattributed_frac": (led.get("unattributed", 0.0) / traced["wall_ms"], "ratio"),
        "trace.overhead_ms": (traced["wall_ms"] - untraced["wall_ms"], "ms"),
    }
    m.update(serve_side_layers(run, lanes))
    return m


# ---- main --------------------------------------------------------------


def run_workload(workload, seed, seconds, catalog, refs, keep_samples=False):
    run = Run(keep_samples)
    if workload == "cold-compile":
        run_cold(run, seed, seconds, catalog, refs)
    else:
        run_warm(run, workload, seed, seconds, catalog, refs)
    return run


def line(name, value, unit, note=""):
    print(f"{name:<26} {value:>14.4f} {unit:<7}{note}")


def bench(workload, args, catalog, env, refs):
    """Run one workload, print its report; returns (run, metrics)."""
    label = f"{workload}-seed{args.seed}-trace{args.trace}"
    run = run_workload(workload, args.seed, args.seconds, catalog, refs,
                       keep_samples=bool(args.trace))
    e2e = end_to_end(run, workload)
    result = {"workload": workload, "env": env,
              "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}}
    if args.trace:
        traced = replay(run, label, traced=True)
        untraced = replay(run, label, traced=False)
        for rep in (untraced, traced):
            for msg in rep["messages"]:
                run.fail("replay: " + msg)
            run.failed += rep["errors"] - len(rep["messages"])
        layer_metrics = per_layer(run, catalog["recommended_domain_count"], untraced, traced)
        table = ledger_table(traced, workload)
    out_dir = os.path.join(WORK, "runs", label)
    os.makedirs(out_dir, exist_ok=True)
    print(f"# perfbench {workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# samples: {len(run.setups)} setups, {len(run.first_use)} first-use sequences, "
          f"{len(run.misses)} compile misses, {len(run.ops)} timed-loop ops "
          f"(tail = p{OP_TAIL[workload]})")
    print(f"# host: stolen CPU per walk, pre-warm or loop window median {pct(run.steal, 50):.1%}, "
          f"max {max(run.steal):.1%}; {run.set_aside} set aside above {MAX_STEAL:.0%}"
          + ("; nothing clean within the caps, contended samples used" if run.contended else ""))
    for name, (v, unit) in e2e.items():
        line(name, v, unit)
    for name, (v, unit) in workload_aliases(workload, e2e).items():
        line(name, v, unit, "  (alias on this workload)")
    if workload != "cold-compile":
        for p in (50, 75):
            line(f"compile_miss_p{p}_ms", pct(run.misses, p) * 1e3, "ms",
                 "  (the pre-warms' misses; not a gated metric)")
    line("error_rate", run.failed / run.attempted, "ratio", f"  ({run.failed} of {run.attempted})")
    for msg in run.messages:
        print("# FAIL " + msg)
    if args.trace:
        print(table)
        for name, (v, unit) in layer_metrics.items():
            line(name, v, unit)
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()}
        with open(os.path.join(out_dir, "ledger.txt"), "w") as f:
            f.write(table + "\n")
        print(f"# artifacts: {os.path.relpath(out_dir, ROOT)}/{{trace.json,ledger.txt,result.json}}")
    result.update(attempted=run.attempted, failed=run.failed, messages=run.messages,
                  samples_s={"setup": run.setups, "first_use": run.first_use,
                             "compile_miss": run.misses, "op": run.ops},
                  steal=run.steal, set_aside=run.set_aside, contended=run.contended)
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump(result, f, indent=1)
    metrics = layer_metrics if args.trace else e2e
    return run, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, terminate)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        build()
        for d in ("cache", "logs", "tmp"):
            shutil.rmtree(os.path.join(WORK, d), ignore_errors=True)
            os.makedirs(os.path.join(WORK, d))
        catalog = read_catalog()
        env = environment(args.seed, catalog)
        refs = reference_digests(warm_ref_triples() + [
            (k["name"], k["default_bindings"], args.seed) for k in catalog["kernels"]])
        for w in workloads:
            results[w] = bench(w, args, catalog, env, refs)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    attempted = sum(run.attempted for run, _ in results.values())
    failed = sum(run.failed for run, _ in results.values())
    metrics = (results[args.workload][1] if args.workload != "all"
               else {w: m for w, (_, m) in results.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
