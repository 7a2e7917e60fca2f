"""Fresh-interpreter side of the benchmark; started by run.py, never imported.

    worker.py setup-cli OUTDIR       import torf, write every fixture's model
                                     file to OUTDIR, print the set-up time
    worker.py lib SPEC               run one pass of a library workload
                                     (SPEC is JSON: workload, seed, size,
                                     trace) and print per-operation records
    worker.py cli STATS ARGS...      run `torf ARGS...` with span recorders
                                     installed, then write their totals to STATS

Each prints one JSON line on standard output (the cli mode prints what torf
prints).  Times are CPU seconds of this process; the set-up clock starts
before torf is imported.
"""

from time import process_time

T0 = process_time()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def setup_cli(outdir):
    from torf.fixtures import fixture
    from torf.model import model_to_text

    import workloads

    for name in workloads.FIXTURES + tuple(workloads.BROKEN):
        with open(os.path.join(outdir, f"{name}.json"), "w", encoding="utf-8") as f:
            f.write(model_to_text(fixture(name).model))
    print(json.dumps({"setup_s": process_time() - T0}))


def _inputs(ops):
    """Build each distinct monoid (and affine space) once, before timing."""
    from torf import AffineMonoid, cone_from_generators, full_complex
    from torf.cones import face_fan_closure

    built = {}
    for op in ops:
        if op.monoid in built:
            continue
        rank, gens = op.monoid
        if op.kind == "betti_affine":
            units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
            cone = cone_from_generators(rank, units)
            built[op.monoid] = full_complex(face_fan_closure(rank, [cone]))
        else:
            built[op.monoid] = AffineMonoid.make(rank, gens)
    return built


def _call(torf, op, x):
    """Run one query and reduce its answer to plain Python values."""
    if op.kind == "member":
        return torf.member(x, op.arg)
    if op.kind == "is_seminormal":
        return torf.is_seminormal(x)
    if op.kind == "is_weakly_normal":
        return torf.is_weakly_normal(x, torf.Characteristic(op.arg))
    if op.kind == "sn_contains":
        return [list(g) for g in torf.from_strata(torf.stratify(x)).generators]
    if op.kind == "relative_wn":
        whole = torf.AffineMonoid.make(1, [(1,)])
        return [list(g) for g in torf.relative_wn(x, whole, torf.Characteristic(op.arg)).generators]
    if op.kind == "betti_affine":
        return list(torf.betti(x, theoretical=True).dims)
    raise ValueError(f"unknown operation {op.kind}")


def run_lib(spec):
    import torf

    import workloads

    plan = {"seminormal-scale": workloads.scale_plan,
            "membership-deep": workloads.membership_plan}[spec["workload"]]
    ops = plan(spec["seed"], spec["size"])
    inputs = _inputs(ops)
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = process_time() - T0
    records = []
    for op in ops:
        t = process_time()
        try:
            answer = _call(torf, op, inputs[op.monoid])
        except Exception as e:  # recorded as an unexpected exception
            records.append([op.label, "exception", process_time() - t, f"{type(e).__name__}: {e}"])
            continue
        dt = process_time() - t
        reason = workloads.check_lib(op, answer)
        records.append([op.label, "wrong" if reason else "ok", dt, reason or json.dumps(answer)])
    out = {"setup_s": setup_s, "records": records}
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    print(json.dumps(out))


def run_traced_cli(stats_path, argv):
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = sys.modules["torf.cli"].main(argv)
    finally:
        sys.stdout.flush()
        with open(stats_path, "w", encoding="utf-8") as f:
            json.dump(tracer.snapshot(), f)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup-cli":
        setup_cli(sys.argv[2])
    elif mode == "lib":
        run_lib(json.loads(sys.argv[2]))
    elif mode == "cli":
        sys.exit(run_traced_cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {mode}")
