"""The sweep: random distributions through the pipeline of
``test_sweep._pipeline`` (``analyze``, ``conjugates`` at three heads,
``find_tau0`` at each ``s_plus`` and ``build_wave``), drawn by
``test_sweep._draw`` from ``random.Random(11)``.  Run it by hand from the
root of a checkout; 1,500 draws take about half a minute:

    PYTHONPATH=src python tests/sweep.py [draws]

It prints each outcome with its count: ``completes``, or the exception that
escaped and the pipeline call it escaped from, with the first draw that
met it.  It exits with 1 when any draw escapes with an exception
(``_pipeline`` catches the refusals it names), and with 0 otherwise, so
that it can gate a run.  pytest does not collect this file.
"""

import random
import sys
import traceback
import warnings
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_sweep import _draw, _pipeline  # noqa: E402


def outcome(spec: str) -> str:
    try:
        _pipeline(spec)
    except Exception as exc:  # every escape is an outcome to count
        frames = traceback.extract_tb(exc.__traceback__)
        call = next((frames[k + 1].name for k, frame in enumerate(frames[:-1])
                     if frame.name == "_pipeline"), "_pipeline")
        return f"{type(exc).__name__} in {call}"
    return "completes"


def main(draws: int = 1500, seed: int = 11) -> int:
    rng = random.Random(seed)
    counts, first = Counter(), {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(draws):
            spec = _draw(rng)
            key = outcome(spec)
            counts[key] += 1
            first.setdefault(key, spec)
    for key, n in counts.most_common():
        print(f"{n:5d}  {key}" + ("" if key == "completes" else f"  (first: {first[key]})"))
    return int(any(key != "completes" for key in counts))


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:2])))
