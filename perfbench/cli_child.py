"""Run one ``vorwaves`` subcommand with spans and scipy counters on.

Usage: python3 perfbench/cli_child.py LAYERS.json SUBCOMMAND [OPTIONS]

Traced ``cli`` ops start this instead of the plain entry point.  The
CLI's module references are swapped for proxies whose public functions
run inside spans, so only the calls the CLI itself makes are spanned;
calls the package makes internally stay inside their caller's span, as
in the library workloads.  The per-layer records are written to
LAYERS.json when the command exits, and the exit code is passed on.
"""

from __future__ import annotations

import json
import sys

from spans import Tracer

# the public calls vorwaves.cli makes, per module
CALLS = {
    "bernoulli": ("analyze", "conjugates"),
    "stream": ("solve_stream",),
    "dispersion": ("find_tau0",),
    "linearwave": ("build_wave", "detect_sign_change"),
    "hodograph": ("to_strip", "wheeler_identity", "bernoulli_residual"),
    "bounds": ("check_bounds",),
}


class _Spanned:
    """A module whose named functions run inside spans."""

    def __init__(self, module, tracer, names):
        self._module = module
        for name in names:
            fn = getattr(module, name)
            setattr(self, name, self._wrap(tracer, f"{module.__name__.split('.')[-1]}.{name}", fn))

    @staticmethod
    def _wrap(tracer, span_name, fn):
        def spanned(*args, **kwargs):
            return tracer.call(span_name, fn, *args, **kwargs)
        return spanned

    def __getattr__(self, name):
        return getattr(self._module, name)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    tracer.op = 0
    import vorwaves.cli as cli
    from vorwaves.config import RunConfig

    for modname, names in CALLS.items():
        setattr(cli, modname, _Spanned(getattr(cli, modname), tracer, names))
    load_distribution = RunConfig.distribution
    find_tau0 = cli.dispersion.find_tau0
    extras = {"tau0_calls": 0, "tau0_found": 0, "rejected_poles": 0}

    def distribution(self):
        dist = tracer.call("vorticity.parse", load_distribution, self)
        tracer.call("vorticity.classify", dist.classify)
        return dist

    def counted_find_tau0(*args, **kwargs):
        disp = find_tau0(*args, **kwargs)
        extras["tau0_calls"] += 1
        extras["tau0_found"] += disp.tau0 is not None
        extras["rejected_poles"] += sum(
            1 for n in disp.notes if n.startswith("rejected sign change"))
        return disp

    RunConfig.distribution = distribution
    cli.dispersion.find_tau0 = counted_find_tau0
    code = 0
    try:
        cli.main(args=argv, prog_name="vorwaves")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.uninstall()
        layers = {k: dict(v, counts=dict(v["counts"])) for k, v in tracer.layers().items()}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"layers": layers, "extras": extras,
                       "reuse": [tracer.reuse_seen, tracer.reuse_calls]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
