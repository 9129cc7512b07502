"""Parity of two checkouts: the values and work counts of the benchmark's
first passes.  Run it by hand from the root of a checkout:

    python tests/parity.py --write FILE      # record this checkout
    python tests/parity.py --against FILE    # compare this checkout with FILE

The method is fixed: for each of the ``wave`` and ``landscape`` workloads
of ``perfbench`` and each seed 1-3, a fresh process builds the workload as
``perfbench/run.py`` does (its warm-up op included), zeroes
``numerics.tally`` and then calls ``ops.run_wave`` or ``ops.run_landscape``
directly on each input of the seed's first pass, untraced and unchecked.
Each op's result is walked into leaves: dataclasses by field, other objects
by their public attributes, dicts by key and sequences by index; a float
or an array is kept by its bytes, and an op that raises keeps its error.
The pass keeps the tally it ends with.

``--write`` stores every op's leaves and each pass's tally as JSON.
``--against`` runs this checkout and lists each op whose leaves moved,
with the largest relative move per field, and each counter that changed;
it exits with 1 on any difference and with 0 otherwise.  Compare files
written on the same host: another numpy build may round differently.
All six passes take about ten seconds.  pytest does not collect this file.
"""

import argparse
import base64
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PASSES = [(workload, seed) for workload in ("wave", "landscape") for seed in (1, 2, 3)]


def leaves(value, path: str, out: dict, seen: set) -> dict:
    """``out[path]`` for each leaf of ``value``: a float or an array as
    ``[dtype, shape, base64 bytes]``, any other scalar as itself."""
    import numpy as np

    if isinstance(value, (float, np.floating, np.ndarray)):
        a = np.asarray(value)
        out[path] = [a.dtype.str, list(a.shape), base64.b64encode(a.tobytes()).decode()]
    elif value is None or isinstance(value, (bool, int, str, np.integer, np.bool_)):
        out[path] = value.item() if isinstance(value, np.generic) else value
    elif isinstance(value, dict):
        for key, item in value.items():
            leaves(item, f"{path}.{key}", out, seen)
    elif isinstance(value, (list, tuple)):
        for k, item in enumerate(value):
            leaves(item, f"{path}[{k}]", out, seen)
    elif id(value) not in seen:
        seen.add(id(value))
        names = ([f.name for f in dataclasses.fields(value)] if dataclasses.is_dataclass(value)
                 else sorted(k for k in vars(value) if not k.startswith("_")))
        for name in names:
            leaves(getattr(value, name), f"{path}.{name}", out, seen)
    return out


def one_pass(workload: str, seed: int) -> dict:
    """The leaves of each op of the first pass and the tally, in this process."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import run  # sets the benchmark's thread limits before numpy loads
    from spans import NullTracer
    from vorwaves import numerics

    wl = run.Workload(workload, seed)
    call = {"wave": wl.ops.run_wave, "landscape": wl.ops.run_landscape}[workload]
    numerics.tally.clear()
    ops = []
    for inp in wl.first:
        try:
            res = call(NullTracer(), inp)
        except Exception as exc:  # a failing op is a value too
            res = {"error": f"{type(exc).__name__}: {exc}"}
        ops.append({"input": repr(inp), "leaves": leaves(res, "", {}, set())})
    return {"ops": ops, "tally": dict(numerics.tally)}


def record() -> dict:
    """Every pass of :data:`PASSES`, each in a fresh process."""
    out = {}
    for workload, seed in PASSES:
        proc = subprocess.run([sys.executable, __file__, "--pass", workload, str(seed)],
                              stdout=subprocess.PIPE, text=True, check=True)
        out[f"{workload}/{seed}"] = json.loads(proc.stdout)
    return out


def move(a, b) -> float:
    """The largest relative move between the leaves ``a`` and ``b``, which
    differ: inf where they differ in kind, shape or a non-float value, and
    0 where only bytes moved (``0.0`` and ``-0.0``)."""
    import numpy as np

    if not (isinstance(a, list) and isinstance(b, list) and a[:2] == b[:2]):
        return float("inf")
    x, y = (np.frombuffer(base64.b64decode(v[2]), dtype=v[0]).astype(float) for v in (a, b))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
    same = (x == y) | (np.isnan(x) & np.isnan(y))
    return float(np.where(same, 0.0, np.where(np.isnan(rel), np.inf, rel)).max(initial=0.0))


def compare(old: dict, new: dict) -> list:
    """One line per op whose leaves moved and per counter that changed."""
    lines = []
    for key in (f"{workload}/{seed}" for workload, seed in PASSES):
        a, b = old.get(key), new.get(key)
        if a is None or b is None or len(a["ops"]) != len(b["ops"]):
            lines.append(f"{key}: pass missing or of another length")
            continue
        for k, (p, q) in enumerate(zip(a["ops"], b["ops"])):
            was, now = p["leaves"], q["leaves"]
            moved = {f: move(was.get(f), now.get(f))
                     for f in was.keys() | now.keys() if was.get(f) != now.get(f)}
            if moved or p["input"] != q["input"]:
                lines.append(f"{key} op {k} {q['input']}:")
                lines += [f"    {f or '<result>'}  {m:.3g}" for f, m in sorted(moved.items())]
        for c in sorted(a["tally"].keys() | b["tally"].keys()):
            before, after = a["tally"].get(c, 0), b["tally"].get(c, 0)
            if before != after:
                lines.append(f"{key} tally {c}: {before} -> {after}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="FILE")
    mode.add_argument("--against", metavar="FILE")
    mode.add_argument("--pass", nargs=2, dest="one", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.one:
        print(json.dumps(one_pass(args.one[0], int(args.one[1]))))
        return 0
    new = record()
    if args.write:
        Path(args.write).write_text(json.dumps(new))
        return 0
    lines = compare(json.loads(Path(args.against).read_text()), new)
    print("\n".join(lines) if lines else "bit-identical: every value and tally count")
    return int(bool(lines))


if __name__ == "__main__":
    sys.exit(main())
