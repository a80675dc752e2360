"""Helper that perfbench/run.py starts in a fresh interpreter.

Modes (the first argument):

  run STATS_JSON CLI_ARG...
      Import nvgyro.cli and call nvgyro.cli.main(CLI_ARG...), as the
      installed `nvgyro` console script does.  STATS_JSON receives the
      monotonic clock at the start and end of main(); the parent's clock
      at spawn turns these into set-up and post-set-up seconds.

  trace STATS_JSON CLI_ARG...
      As `run`, after wrapping every public function and method of the
      nvgyro layers with a call counter and self-time clock; STATS_JSON
      also receives the counts.

  provenance
      Print the Python, numpy, scipy and BLAS versions, and the file that
      `import nvgyro` resolves to, as one JSON line.

Nothing under src/ is changed: the wrappers replace the names in each
module's namespace for the life of this process only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import platform
import sys
import time

LAYERS = ("spin", "sequence", "detector", "analysis", "ratetable", "config", "io")


class Tracer:
    """Counts calls and self time of wrapped functions.

    Self time is a call's duration minus the time spent in wrapped calls
    made from inside it.  `entry_s[layer]` sums the full duration of calls
    entered from outside that layer, so it is the layer's inclusive time.
    """

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.entry_s = {layer: 0.0 for layer in LAYERS}
        self.top_level_s = 0.0
        self._stack: list[list] = []  # [layer, child seconds]

    def wrap(self, name: str, layer: str, fn, after=None):
        stats = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stats["calls"] += 1
                stats["self_s"] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                    if stack[-1][0] != layer:
                        self.entry_s[layer] += elapsed
                else:
                    self.top_level_s += elapsed
                    self.entry_s[layer] += elapsed
            if after is not None:
                after(stats, args)
            return result

        return traced


def _count_rows_and_bytes(stats, args):
    path, _names, columns = args[:3]
    stats["rows"] = stats.get("rows", 0) + len(columns[0])
    stats["bytes"] = stats.get("bytes", 0) + os.path.getsize(path)


def _count_points(stats, args):
    stats["points"] = stats.get("points", 0) + getattr(args[1], "size", 1)


def _count_samples(stats, args):
    stats["samples"] = stats.get("samples", 0) + len(args[0])


# Extra counters recorded after a call returns, by traced name.
AFTER = {
    "io.write_table": _count_rows_and_bytes,
    "ratetable.RateTrajectory.rate_at": _count_points,
    "analysis.allan_deviation": _count_samples,
}


def install(tracer: Tracer) -> None:
    """Replace each public function and method of the layers by a wrapper,
    in every nvgyro module namespace that binds it."""
    import nvgyro
    import nvgyro.cli

    modules = [nvgyro, nvgyro.cli] + [
        importlib.import_module(f"nvgyro.{layer}") for layer in LAYERS
    ]
    replaced = {}
    for layer in LAYERS:
        module = importlib.import_module(f"nvgyro.{layer}")
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                traced_name = f"{layer}.{name}"
                replaced[id(obj)] = tracer.wrap(traced_name, layer, obj,
                                                AFTER.get(traced_name))
            elif inspect.isclass(obj):
                _wrap_methods(tracer, layer, obj)
    for module in modules:
        for name, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, name, replaced[id(obj)])


def _wrap_methods(tracer: Tracer, layer: str, cls) -> None:
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        after = AFTER.get(name)
        if inspect.isfunction(member):
            setattr(cls, attr, tracer.wrap(name, layer, member, after))
        elif isinstance(member, (classmethod, staticmethod)):
            kind = type(member)
            setattr(cls, attr, kind(tracer.wrap(name, layer, member.__func__, after)))


def run_cli(stats_path: str, argv: list[str], traced: bool) -> int:
    import nvgyro.cli

    tracer = Tracer()
    if traced:
        install(tracer)
    main_start = time.monotonic()
    status = nvgyro.cli.main(argv)
    main_end = time.monotonic()
    stats = {"status": status, "main_start": main_start, "main_end": main_end}
    if traced:
        stats.update(top_level_s=tracer.top_level_s, entry_s=tracer.entry_s,
                     functions=tracer.stats)
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return status


def provenance() -> None:
    import numpy
    import scipy

    import nvgyro

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nvgyro_file": nvgyro.__file__,
    }))


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode in ("run", "trace"):
        return run_cli(rest[0], rest[1:], traced=mode == "trace")
    if mode == "provenance":
        provenance()
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
