#!/usr/bin/env python3
"""Benchmark of the vorwaves pipeline on three seeded workloads.

Run from the root of a checkout; the package is imported from ``src/``:

    python3 perfbench/run.py --workload wave --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the first pass twice, first untraced in a fresh
process and then with spans and scipy counters on, and reports the
per-layer metrics.  Every op is checked; see ``ops.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed``
counts ops that raised or failed a check; they are listed above that
line and in the full record written to ``.perfbench_out/``.
``correct`` is false when the fixed warm-up op, which every run makes
before timing, fails its checks.  See README.md in this directory.
"""

from __future__ import annotations

import os

# One load generator on a 2-core machine: keep BLAS from starting a thread
# pool that competes with it.  Set before numpy loads; children inherit it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import gen  # noqa: E402
from spans import NullTracer, Tracer, merge_layers  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"
TOL_ENV = "TOOL_SEED_TOLERANCE"

WORKLOADS = ("wave", "landscape", "cli")
SETUP_PROBES = 3
# A run makes max(1, round(PASSES[workload] * seconds / 20)) whole passes:
# a fixed amount of work for a given --seconds, so that a faster commit
# measures the same ops (and the same tail percentile) as a slower one.
# On a 2-core machine at the parent commit a wave or landscape pass takes
# about 30 s and a cli pass 9 s.
PASSES = {"wave": 1, "landscape": 1, "cli": 3}
OUTCOMES = ("root", "no-root", "resonant", "done", "refused", "error")

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
             "peak_rss_mb": "MB"}
# The end-to-end metrics of the last line, as listed in BENCHMARK.json.
# op_p50_s and op_tail_s are printed and recorded but not gated: single ops
# vary by up to 25% on a shared 2-core host, and over ten seeds their
# quartile spread reached 0.2 of the median.
GATED = ("ops_per_s", "peak_rss_mb", "setup_s")


def child_env() -> dict:
    """The environment of every child: the checkout's package first, and
    no tolerance override (the lru caches cannot see it)."""
    env = {k: v for k, v in os.environ.items() if k != TOL_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Workload:
    """Inputs, warm-up and one-op execution for one workload and seed."""

    def __init__(self, name: str, seed: int):
        import ops  # imports the package

        self.ops = ops
        self.name = name
        self.seed = seed
        self.passes = {"wave": gen.wave_passes, "landscape": gen.landscape_passes,
                       "cli": gen.cli_passes}[name](seed)
        self.first = next(self.passes)
        if name == "cli":
            self.ref = ops.CliReference()
            self.env = child_env()
            self.workdir = TMP_DIR / f"cli-{seed}-{os.getpid()}"
            warm = gen.CliInput("wave", gen.WARMUP_SPEC, (("r", "0.76"), ("t", "0.01")))
        elif name == "wave":
            warm = gen.WaveInput(gen.WARMUP_SPEC, gen.WARMUP_FRACTION)
        else:
            warm = gen.LandscapeInput(gen.WARMUP_SPEC, (0.2, 0.4, 0.6, 0.8),
                                      (0.5,) * gen.LANDSCAPE_HEADS)
        self.warmup = self.run_op(NullTracer(), warm, -1)

    def inputs(self):
        """The first pass, then fresh passes for as long as asked."""
        yield self.first
        yield from self.passes

    def run_op(self, tr, inp, op_id: int, check: bool = True) -> dict:
        tr.op = op_id
        if self.name == "cli":
            return self._run_cli(tr, inp, op_id, check)
        ops = self.ops
        run, chk, outcome = {
            "wave": (ops.run_wave, ops.check_wave, ops.wave_outcome),
            "landscape": (ops.run_landscape, ops.check_landscape, ops.landscape_outcome),
        }[self.name]
        rec = {"op": op_id, "input": describe(inp)}
        started = time.perf_counter()
        try:
            res = run(tr, inp)
        except Exception as exc:  # op boundary: record the failure, go on
            rec.update(latency=time.perf_counter() - started,
                       outcome=ops.outcome_of_exception(exc), failure=flat(exc))
            return rec
        rec["latency"] = time.perf_counter() - started
        fails = checked(chk, inp, res) if check else []
        rec["outcome"] = "error" if fails else outcome(res)
        rec["failure"] = "; ".join(fails)[:600] or None
        disp = res.get("disp")
        if disp is not None:
            rec["tau0_found"] = disp.tau0 is not None
            rec["rejected_poles"] = ops.rejected_poles(disp)
        if "wprime0" in res:
            # recorded, never gated: the product form d u'(d) w'(d)
            rec["wprime0_product_gap"] = res["wprime0"].discrepancy
        return rec

    def _run_cli(self, tr, inp, op_id: int, check: bool) -> dict:
        ops = self.ops
        rec = {"op": op_id, "input": describe(inp)}
        workdir = str(self.workdir / f"op{op_id}")
        layers_file = os.path.join(workdir, "layers.json")
        if tr.enabled:
            prefix = [sys.executable, str(HERE / "cli_child.py"), layers_file]
        else:
            prefix = [sys.executable, "-c", ops.ENTRY]
        started = time.perf_counter()
        try:
            res = tr.call(f"cli.{inp.command}", ops.run_cli, inp, workdir, self.env, prefix)
        except Exception as exc:  # op boundary, e.g. a child that timed out
            rec.update(latency=time.perf_counter() - started, outcome="error",
                       failure=flat(exc))
            shutil.rmtree(workdir, ignore_errors=True)
            return rec
        rec["latency"] = res["wall"]
        fails = checked(ops.check_cli, inp, res, self.ref) if check else []
        if res["returncode"] != 0:
            rec["outcome"] = "refused" if res["returncode"] == 3 else "error"
        elif fails:
            rec["outcome"] = "error"
        else:
            results = res["report"]["results"]
            if "tau0" in results:
                rec["outcome"] = ("no-root" if results["tau0"] is None else
                                  "resonant" if results.get("assumption_II") is False
                                  else "root")
            else:
                rec["outcome"] = "done"
        rec["failure"] = "; ".join(fails)[:600] or None
        if "report" in res:
            compute = float(res["report"]["timing_seconds"])
            rec["cli_compute_s"] = compute
            rec["cli_startup_s"] = res["wall"] - compute
        if tr.enabled and os.path.isfile(layers_file):
            with open(layers_file, encoding="utf-8") as fh:
                rec["child_trace"] = json.load(fh)
        shutil.rmtree(workdir, ignore_errors=True)
        return rec

    def close(self) -> None:
        if self.name == "cli":
            shutil.rmtree(self.workdir, ignore_errors=True)


def flat(exc: BaseException) -> str:
    return " ".join(f"{type(exc).__name__}: {exc}".split())[:400]


def checked(chk, *args) -> list:
    """The failed checks; a check that raises is itself a failure."""
    try:
        return chk(*args)
    except Exception as exc:  # recorded against the op, never dropped
        return [f"check raised {flat(exc)}"]


def describe(inp) -> dict:
    return {k: getattr(inp, k) for k in inp.__dataclass_fields__}


def is_failure(rec: dict) -> bool:
    """An op fails when it raises or when one of its checks fails."""
    return rec.get("failure") is not None


# -- set-up time ------------------------------------------------------------


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from starting a fresh process until it could start timing.

    Library workloads: interpreter, imports, input generation and the
    warm-up op.  ``cli``: interpreter and ``import vorwaves.cli``.
    """
    if workload == "cli":
        cmd = [sys.executable, "-c", "import vorwaves.cli; print('ready', flush=True)"]
    else:
        cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup",
               "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                              text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - started)
            proc.stdout.read()
            code = proc.wait(timeout=170)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit code {code})")
    return times


# -- runs -------------------------------------------------------------------


def percentile_tail(lat: list) -> tuple:
    """Latency at the highest percentile with at least ten samples beyond
    it, never below the median; returns (value, percentile, samples)."""
    xs = sorted(lat)
    n = len(xs)
    k = max(n - 11, n // 2)
    return xs[k], 100.0 * (k + 1) / n, n


def timed_run(wl: Workload, seconds: float) -> dict:
    setup = measure_setup(wl.name, wl.seed)
    tracer = NullTracer()
    records = []
    passes = max(1, round(PASSES[wl.name] * seconds / 20.0))
    for _, one in zip(range(passes), wl.inputs()):
        for inp in one:
            records.append(wl.run_op(tracer, inp, len(records)))
    lat = [r["latency"] for r in records]
    timed = sum(lat)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    tail, tail_pct, n = percentile_tail(lat)
    samples = {"setup_s": len(setup), "ops_per_s": n, "op_p50_s": n,
               "op_tail_s": n, "peak_rss_mb": 1}
    metrics = {"setup_s": statistics.median(setup),
               "ops_per_s": n / timed,
               "op_p50_s": statistics.median(lat),
               "op_tail_s": tail,
               "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}
    extra = {"setup_samples_s": setup, "timed_s": timed, "passes": passes,
             "fail_ratio": sum(map(is_failure, records)) / n,
             "op_tail_percentile": tail_pct}
    if wl.name == "cli":
        extra["cli_startup_s_median"] = statistics.median(
            [r["cli_startup_s"] for r in records if "cli_startup_s" in r] or [0.0])
    return {"records": records, "metrics": metrics, "units": E2E_UNITS,
            "samples": samples, "extra": extra}


def untraced_pass(workload: str, seed: int) -> list:
    """Latencies of the ops of the first pass, untraced, in a fresh process."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--first-pass"],
                          stdout=subprocess.PIPE, env=child_env(), text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced pass failed (exit code {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])["latencies"]


def traced_run(wl: Workload) -> dict:
    n = len(wl.first)
    base = untraced_pass(wl.name, wl.seed)
    tracer = Tracer()
    if wl.name != "cli":
        tracer.install()
    try:
        records = [wl.run_op(tracer, inp, i) for i, inp in enumerate(wl.first)]
    finally:
        tracer.uninstall()
    layers = tracer.layers()
    ex = {"tau0_calls": 0, "tau0_found": 0, "rejected_poles": 0,
          "reuse_seen": tracer.reuse_seen, "reuse_calls": tracer.reuse_calls}
    for r in records:
        child = r.pop("child_trace", None)
        if child is not None:
            merge_layers(layers, child["layers"])
            for k, v in child["extras"].items():
                ex[k] += v
            ex["reuse_seen"] += child["reuse"][0]
            ex["reuse_calls"] += child["reuse"][1]
        elif "tau0_found" in r:
            ex["tau0_calls"] += 1
            ex["tau0_found"] += r["tau0_found"]
            ex["rejected_poles"] += r["rejected_poles"]
    ex["overhead"] = sum(r["latency"] for r in records) / sum(base)
    ex["cli_startup"] = [r["cli_startup_s"] for r in records if "cli_startup_s" in r]
    ex["cli_compute"] = [r["cli_compute_s"] for r in records if "cli_compute_s" in r]
    metrics, units = per_layer(layers, n, ex)
    spans_file = OUT_DIR / f"{wl.name}-seed{wl.seed}-spans.json"
    OUT_DIR.mkdir(exist_ok=True)
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump_spans(), fh)
    return {"records": records, "metrics": metrics, "units": units,
            "samples": {k: n for k in metrics},
            "extra": {"layers": {k: dict(v, counts=dict(v["counts"]))
                                 for k, v in layers.items()},
                      "untraced_latencies": base, "spans_file": str(spans_file)}}


def per_layer(layers: dict, n: int, ex: dict) -> tuple:
    """Per-layer metrics, each per op of the traced list (ratios aside)."""

    def t(*names):
        return sum(layers.get(x, {}).get("self_s", 0.0) for x in names) / n

    def c(names, *keys):
        return sum(layers.get(x, {}).get("counts", {}).get(k, 0)
                   for x in names for k in keys) / n

    disp = ("dispersion.find_tau0",)
    stream = ("stream.solve_stream",)
    bern = ("bernoulli.analyze", "bernoulli.conjugates")
    hodo = ("hodograph.to_strip", "hodograph.wheeler_identity",
            "hodograph.bernoulli_residual")
    lin = ("linearwave.build_wave", "linearwave.check_Wprime0",
           "linearwave.detect_sign_change")
    bnd = ("bounds.check_bounds",)
    m = {
        "dispersion.find_tau0_s": t(*disp),
        "dispersion.ode_calls": c(disp, "ode_calls"),
        "dispersion.ode_steps": c(disp, "ode_steps"),
        "dispersion.ode_rhs_evals": c(disp, "ode_rhs_evals"),
        "dispersion.root_evals": c(disp, "root_evals"),
        "dispersion.rejected_poles": ex["rejected_poles"] / n,
        "dispersion.root_found_ratio": (ex["tau0_found"] / ex["tau0_calls"]
                                        if ex["tau0_calls"] else 0.0),
        "stream.solve_stream_s": t(*stream),
        "stream.quad_calls": c(stream, "quad_calls"),
        "stream.quad_evals": c(stream, "quad_evals"),
        "bernoulli.analyze_s": t("bernoulli.analyze"),
        "bernoulli.conjugates_s": t("bernoulli.conjugates"),
        "bernoulli.quad_calls": c(bern, "quad_calls"),
        "bernoulli.quad_evals": c(bern, "quad_evals"),
        "bernoulli.root_evals": c(bern, "root_evals", "min_evals"),
        "bernoulli.cache_reuse_ratio": (ex["reuse_seen"] / ex["reuse_calls"]
                                        if ex["reuse_calls"] else 0.0),
        "hodograph.wheeler_identity_s": t("hodograph.wheeler_identity"),
        "hodograph.quad_calls": c(hodo, "quad_calls"),
        "bounds.check_bounds_s": t(*bnd),
        "bounds.quad_calls": c(bnd, "quad_calls"),
        "hodograph.to_strip_s": t("hodograph.to_strip"),
        "linearwave.build_wave_s": t("linearwave.build_wave"),
        "linearwave.check_Wprime0_s": t("linearwave.check_Wprime0"),
        "linearwave.ode_rhs_evals": c(lin, "ode_rhs_evals"),
        "vorticity.classify_s": t("vorticity.classify"),
        "cli.startup_s": sum(ex["cli_startup"]) / n,
        "cli.compute_s": sum(ex["cli_compute"]) / n,
        "trace.overhead_ratio": ex["overhead"],
    }
    units = {k: ("s/op" if k.endswith("_s") else
                 "ratio" if k.endswith("_ratio") else "count/op") for k in m}
    return m, units


# -- provenance and output --------------------------------------------------


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "vorwaves").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"seed": seed, "git_commit": git_commit(), "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            TOL_ENV: os.environ.get(TOL_ENV),
            **{v: os.environ.get(v) for v in THREAD_VARS}}


def report(wl: Workload, args, run: dict) -> dict:
    records = run["records"]
    fails = [r for r in records if is_failure(r)]
    shares = {o: sum(r["outcome"] == o for r in records) / len(records) for o in OUTCOMES}
    warm_fail = wl.warmup.get("failure")
    record = {"workload": wl.name, "trace": args.trace, "seconds": args.seconds,
              "provenance": provenance(args.seed),
              "warmup": {k: wl.warmup.get(k) for k in ("input", "outcome", "failure",
                                                       "latency")},
              "metrics": {k: {"value": v, "unit": run["units"][k],
                              "samples": run["samples"][k]}
                          for k, v in run["metrics"].items()},
              "extra": run["extra"], "outcome_shares": shares,
              "attempted": len(records), "failed": len(fails),
              "failed_ops": [{k: r.get(k) for k in ("op", "input", "outcome", "failure")}
                             for r in fails],
              "ops": records}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"attempted {len(records)}  failed {len(fails)}  record {path}")
    for name, m in record["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}  (n={m['samples']})")
    if "fail_ratio" in run["extra"]:
        print(f"  {'fail_ratio':32s} {run['extra']['fail_ratio']:.6g} ratio  "
              f"(n={len(records)})")
        print(f"  op_tail_s is the p{run['extra']['op_tail_percentile']:.4g} latency")
    print("  outcomes: " + ", ".join(f"{o} {s:.3f}" for o, s in shares.items()))
    for f in record["failed_ops"]:
        print(f"  FAILED op {f['op']} {f['input']}: [{f['outcome']}] {f['failure']}")
    if warm_fail:
        print(f"  WARM-UP FAILED: {warm_fail}")
    return {"correct": warm_fail is None, "attempted": len(records),
            "failed": len(fails),
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in record["metrics"].items()
                        if args.trace or k in GATED}}


def run_all(args) -> int:
    """Every workload in turn, each in its own process, at one seed."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {w} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{w}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--first-pass", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "vorwaves" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop(TOL_ENV, None)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    wl = Workload(args.workload, args.seed)
    try:
        if args.probe_setup:
            print("ready", flush=True)
            return 0
        if args.first_pass:
            tr = NullTracer()
            lat = [wl.run_op(tr, inp, i, check=False)["latency"]
                   for i, inp in enumerate(wl.first)]
            print(json.dumps({"latencies": lat}))
            return 0
        run = traced_run(wl) if args.trace else timed_run(wl, args.seconds)
        print(json.dumps(report(wl, args, run)))
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
