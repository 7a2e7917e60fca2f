"""Benchmark for torf: known-answer workloads timed from outside the program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--trace 1]

Workloads (sizes, reasons and tail percentiles are in bench/spec.json):

  cli-fixtures      every CLI command on every built-in fixture, each in a
                    fresh interpreter, as a user runs it
  seminormal-scale  seminormality and weak-normality verdicts on seeded
                    monoids of rank 1 to 4 (the cold use of `member`)
  membership-deep   deep `member` queries on a panel of monoids, at seeded
                    positions (the hot use)

Every operation's answer is checked against `oracles`, which does not use
torf.  Operations run one at a time from one process, in passes of a fixed
size; a run makes at least one pass and starts another only while it is
expected to end within --seconds.  Library passes each run in a fresh
interpreter, so memo caches start empty and peak memory is per pass.

Times are CPU seconds (user plus system) of the process that ran the
operation, so that waiting for a core on a shared machine is not counted;
these operations are single-threaded, so on an idle machine this is their
wall time.  setup_s is the median over fresh interpreters of the time to
import torf and build the inputs; ops_per_s and op_p50_s are medians of the
per-pass values; op_tail_s is the spec's tail percentile over every
operation of the run; peak_rss_mb is the largest peak resident memory of a
process that ran operations.  A failed operation counts as missing every
latency figure (it enters the percentiles as infinitely slow).

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
makes one pass untraced and the same pass with span recorders installed
(bench/tracing.py), checks that the answers are identical, and reports the
per-layer metrics and the tracing overhead; a metric whose function no
longer exists in torf is reported as absent (null).

Failing operations are listed by workload before the result.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import oracles
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(SPEC["workloads"])
# what the `torf` console script runs
CONSOLE = "import sys; from torf.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 150
SETUP_REPEATS = 9
STARTUP_REPEATS = 5
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
             "peak_rss_mb": "MiB", "fail_frac": "ratio"}


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv, out_path, err_path):
    """Run a child to completion; returns (exit code, CPU seconds, peak RSS in KiB).

    The child is reaped with wait4 so that its own CPU time (user plus
    system) and peak memory are known; a watchdog kills it after
    CHILD_TIMEOUT_S.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=_child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def _last_json(path):
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    return json.loads(lines[-1])


class Run:
    """One workload's measurements: per-operation records and per-process samples."""

    def __init__(self, workload):
        self.workload = workload
        self.passes = []  # per pass: [[label, status, seconds, detail], ...]
        self.setup = []
        self.rss_kib = 0
        self.traces = []
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.startup = []

    @property
    def records(self):
        return [r for p in self.passes for r in p]

    def failures(self):
        return [r for r in self.records if r[1] != "ok"]


def _timed_passes(seconds, one_pass):
    """Call one_pass(0), one_pass(1), ...; start another pass only while it
    is expected, from the last one, to end within `seconds`."""
    start = time.perf_counter()
    index = 0
    while True:
        pass_start = time.perf_counter()
        one_pass(index)
        index += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return


# ---------------------------------------------------------------------------
# cli-fixtures


def _cli_setup(run, tmp):
    """Write the fixture model files SETUP_REPEATS times, each in a fresh
    interpreter; returns the directory of the last copy."""
    for i in range(SETUP_REPEATS):
        outdir = tmp / f"fixtures{i}"
        outdir.mkdir()
        code, _dt, _rss = spawn([sys.executable, str(HERE / "worker.py"), "setup-cli", str(outdir)],
                                tmp / "setup.out", tmp / "setup.err")
        if code != 0:
            raise RuntimeError("fixture set-up failed: "
                               + (tmp / "setup.err").read_text(encoding="utf-8")[-500:])
        run.setup.append(_last_json(tmp / "setup.out")["setup_s"])
    return outdir


def _cli_argv(op, fixtures_dir, traced=None):
    args = [op.args[0], str(fixtures_dir / f"{op.fixture}.json"), *op.args[1:], "--format", "machine"]
    if traced is None:
        return [sys.executable, "-c", CONSOLE, *args]
    return [sys.executable, str(HERE / "worker.py"), "cli", str(traced), *args]


def _cli_op(op, fixtures_dir, models, tmp, traced=None):
    """Run one command; returns (record, peak RSS KiB, raw result for comparison)."""
    out, err = tmp / "op.out", tmp / "op.err"
    code, dt, rss = spawn(_cli_argv(op, fixtures_dir, traced), out, err)
    stdout = out.read_text(encoding="utf-8")
    body = None
    if stdout.strip():
        try:
            body = json.loads(stdout)
        except ValueError:
            return [op.label, "wrong", dt, "output is not JSON"], rss, (code, stdout)
    try:
        reason = workloads.cli_check(op, models[op.fixture], code, body)
    except (KeyError, TypeError, ValueError) as e:
        reason = f"malformed output: {type(e).__name__}: {e}"
    if reason is None:
        status = "ok"
    elif "Traceback" in err.read_text(encoding="utf-8"):
        status, reason = "exception", err.read_text(encoding="utf-8").strip().splitlines()[-1]
    elif reason.startswith("exit "):
        status = "exit"
    else:
        status = "wrong"
    return [op.label, status, dt, reason or ""], rss, (code, stdout)


def _models(fixtures_dir):
    return {name: json.loads((fixtures_dir / f"{name}.json").read_text(encoding="utf-8"))
            for name in workloads.FIXTURES + tuple(workloads.BROKEN)}


def cli_fixtures(run, seed, seconds, trace, tmp):
    fixtures_dir = _cli_setup(run, tmp)
    models = _models(fixtures_dir)
    plan = workloads.cli_plan(seed)
    if trace:
        run.passes.append([])
        for i, op in enumerate(plan):
            rec, _rss, plain = _cli_op(op, fixtures_dir, models, tmp)
            stats = tmp / f"trace{i}.json"
            traced, _rss, again = _cli_op(op, fixtures_dir, models, tmp, traced=stats)
            run.untraced_s += rec[2]
            run.traced_s += traced[2]
            if plain != again:
                traced = [op.label, "trace-mismatch", traced[2], "traced output differs"]
            run.passes[0].append(traced)
            run.traces.append(json.loads(stats.read_text(encoding="utf-8")))
        return

    def one_pass(_index):
        run.passes.append([])
        for op in plan:
            rec, rss, _raw = _cli_op(op, fixtures_dir, models, tmp)
            run.passes[-1].append(rec)
            run.rss_kib = max(run.rss_kib, rss)

    _timed_passes(seconds, one_pass)


# ---------------------------------------------------------------------------
# library workloads


def _lib_pass(workload, seed, trace, tmp):
    spec = {"workload": workload, "seed": seed, "trace": trace,
            "size": SPEC["workloads"][workload]["size"]}
    code, _dt, rss = spawn([sys.executable, str(HERE / "worker.py"), "lib", json.dumps(spec)],
                           tmp / "lib.out", tmp / "lib.err")
    if code != 0:
        raise RuntimeError(f"{workload} worker exited {code}: "
                           + (tmp / "lib.err").read_text(encoding="utf-8")[-800:])
    return _last_json(tmp / "lib.out"), rss


def library(run, seed, seconds, trace, tmp):
    if trace:
        plain, _rss = _lib_pass(run.workload, seed, 0, tmp)
        traced, _rss = _lib_pass(run.workload, seed, 1, tmp)
        run.passes.append([])
        for a, b in zip(plain["records"], traced["records"]):
            run.untraced_s += a[2]
            run.traced_s += b[2]
            if (a[1], a[3]) != (b[1], b[3]):
                b = [b[0], "trace-mismatch", b[2], f"untraced {a[3]}, traced {b[3]}"]
            run.passes[0].append(b)
        run.setup.append(traced["setup_s"])
        run.traces.append(traced["trace"])
        return

    def one_pass(index):
        # each pass draws fresh inputs from (seed, pass index)
        result, rss = _lib_pass(run.workload, seed * 1000 + index, 0, tmp)
        run.passes.append(result["records"])
        run.setup.append(result["setup_s"])
        run.rss_kib = max(run.rss_kib, rss)

    _timed_passes(seconds, one_pass)


# ---------------------------------------------------------------------------
# metrics and output


def _finite(x):
    return None if x is None or math.isinf(x) else x


def _latencies(records):
    # a failed operation misses every latency figure: it counts as infinitely slow
    return sorted(r[2] if r[1] == "ok" else math.inf for r in records)


def e2e_metrics(run):
    """End-to-end metrics.  Throughput and median latency are the medians of
    the per-pass values; the tail percentile is taken over all passes."""
    records = run.records
    n = len(records)
    ok = sum(r[1] == "ok" for r in records)
    throughput = []
    for p in run.passes:
        busy = sum(r[2] for r in p)
        throughput.append(sum(r[1] == "ok" for r in p) / busy if busy else 0.0)
    lat = _latencies(records)
    q = SPEC["workloads"][run.workload]["tail_percentile"]
    k = max(0, math.ceil(q / 100 * n) - 1)
    metrics = {
        "setup_s": statistics.median(run.setup),
        "ops_per_s": statistics.median(throughput),
        "op_p50_s": statistics.median(statistics.median(_latencies(p)) for p in run.passes),
        "op_tail_s": lat[k],
        "peak_rss_mb": run.rss_kib / 1024,
        "fail_frac": (n - ok) / n,
    }
    return metrics, {"tail_percentile": q, "samples": n, "beyond_tail": n - k - 1}


def trace_metrics(run):
    out = tracing.layer_metrics(tracing.merge(run.traces))
    out["cli.startup_s"] = statistics.median(run.startup)
    out["trace.overhead_frac"] = run.traced_s / run.untraced_s - 1 if run.untraced_s else None
    return out


def _startup(run, tmp):
    """Fresh interpreter plus `import torf`, STARTUP_REPEATS times."""
    for _ in range(STARTUP_REPEATS):
        code, dt, _rss = spawn([sys.executable, "-c", "import torf"], tmp / "s.out", tmp / "s.err")
        if code != 0:
            raise RuntimeError("cannot import torf: "
                               + (tmp / "s.err").read_text(encoding="utf-8")[-500:])
        run.startup.append(dt)


def run_workload(workload, seed, seconds, trace, tmp):
    run = Run(workload)
    wtmp = Path(tempfile.mkdtemp(prefix=workload + "-", dir=tmp))
    if trace:
        _startup(run, wtmp)
    if workload == "cli-fixtures":
        cli_fixtures(run, seed, seconds, trace, wtmp)
    else:
        library(run, seed, seconds, trace, wtmp)
    return run


def _fmt(x):
    if x is None:
        return "absent"
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return f"{x:.6g}"


def print_failures(run):
    seen = {}
    for label, status, _dt, detail in run.failures():
        key = (status, label, detail)
        seen[key] = seen.get(key, 0) + 1
    for (status, label, detail), count in seen.items():
        times = f" (x{count})" if count > 1 else ""
        print(f"FAIL {run.workload} {status}: {label}: {detail}{times}")


def print_e2e_table(rows):
    names = list(E2E_UNITS)
    print("workload".ljust(18) + "".join(f"{n} [{E2E_UNITS[n]}]".rjust(20) for n in names)
          + "  samples  tail  beyond")
    for workload, (m, info) in rows.items():
        note = "" if info["beyond_tail"] >= 10 else "  (fewer than 10 samples beyond the tail)"
        print(workload.ljust(18) + "".join(_fmt(m[n]).rjust(20) for n in names)
              + f"  {info['samples']:7d}  p{info['tail_percentile']:<3}  {info['beyond_tail']:6d}{note}")


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("hit_ratio", "_frac")):
        return "ratio"
    return "count"


def print_layer_table(rows):
    names = sorted({n for m in rows.values() for n in m})
    print("metric".ljust(48) + "".join(w.rjust(18) for w in rows))
    for n in names:
        label = f"{n} [{layer_unit(n)}]"
        print(label.ljust(48) + "".join(_fmt(m.get(n)).rjust(18) for m in rows.values()))


def main(argv=None):
    p = argparse.ArgumentParser(description="Known-answer benchmark for torf.")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped and
    # the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))

    if not (ROOT / "src" / "torf" / "__init__.py").is_file():
        sys.exit(f"bench: no torf sources under {ROOT / 'src'}")
    bad = oracles.self_check()
    if bad:
        sys.exit("bench: oracle disagrees with brute force: " + ", ".join(bad[:10]))

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        runs = [run_workload(w, args.seed, args.seconds, args.trace, tmp) for w in names]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    for run in runs:
        print_failures(run)
    attempted = sum(len(r.records) for r in runs)
    failed = sum(len(r.failures()) for r in runs)
    if args.trace:
        rows = {r.workload: trace_metrics(r) for r in runs}
        print_layer_table(rows)
    else:
        rows = {r.workload: e2e_metrics(r) for r in runs}
        print_e2e_table(rows)
    if len(runs) == 1:
        if args.trace:
            values = rows[runs[0].workload]
            units = {n: layer_unit(n) for n in values}
        else:
            values, _info = rows[runs[0].workload]
            values = {k: v for k, v in values.items() if k != "fail_frac"}
            units = E2E_UNITS
        metrics = {k: {"value": _finite(v), "unit": units[k]} for k, v in values.items()}
    else:
        metrics = {w: (m if args.trace else m[0]) for w, m in rows.items()}
        metrics = {w: {k: _finite(v) for k, v in m.items()} for w, m in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
