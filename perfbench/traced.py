"""Run one kickscope command in-process under an outside-in span tracer.

Usage: python3 traced.py SRC_DIR SPANS_JSON RUN_ID -- KICKSCOPE_ARGS...

Every function a kickscope layer module lists in ``__all__`` is wrapped,
and the wrapper is rebound under every name any kickscope module imported
it by, so nested calls (``propagate_all`` -> ``propagate_fft`` ->
``to_momentum``) are seen too.  No file of the package changes.  Each call
becomes a span (name, start, end, parent, run id); the spans stay in
memory and are written to SPANS_JSON when the command returns.  The
command's standard output goes to SPANS_JSON's sibling ``stdout.txt``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import resource
import sys
import time
from pathlib import Path

LAYERS = ("config", "hilbert", "wavepacket", "experiment", "verify", "cli")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory spans plus the high-water-mark growth charged to each.

    A span's ``rss_kb`` is the rise in peak RSS seen while it was the
    innermost open span.  ``n`` is the grid size for the FFT transforms,
    0 otherwise.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self._rss = _maxrss_kb()

    def _charge(self) -> None:
        rss = _maxrss_kb()
        grown, self._rss = rss - self._rss, rss
        if self.stack:
            self.spans[self.stack[-1]]["rss_kb"] += grown

    def enter(self, name: str, n: int = 0) -> int:
        self._charge()
        parent = self.stack[-1] if self.stack else None
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None, "parent": parent,
             "run": self.run_id, "error": False, "rss_kb": 0, "n": n}
        )
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def exit(self, index: int, error: bool) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        span["error"] = error
        self._charge()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, n: int = 0):
        index = self.enter(name, n)
        try:
            yield
        except BaseException:
            self.exit(index, True)
            raise
        self.exit(index, False)

    def wrap(self, name: str, fn):
        # to_momentum/to_position each do one n-point complex FFT; record n.
        counts_fft = name in ("wavepacket.to_momentum", "wavepacket.to_position")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = 0
            if counts_fft:
                n = (args[0] if args else next(iter(kwargs.values()))).grid.n
            with self.span(name, n):
                return fn(*args, **kwargs)

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every public function of every layer; return their span names."""
    names = []
    for layer in LAYERS:
        module = importlib.import_module(f"kickscope.{layer}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            wrapped = tracer.wrap(f"{layer}.{attr}", fn)
            names.append(f"{layer}.{attr}")
            for other in [m for k, m in sys.modules.items() if k.split(".")[0] == "kickscope"]:
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, wrapped)
    return names


def main() -> int:
    src_dir, spans_path, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced.py SRC_DIR SPANS_JSON RUN_ID -- ARGS...")
    sys.path.insert(0, src_dir)
    tracer = Tracer(run_id)
    with tracer.span("trace.import"):
        import kickscope.cli  # noqa: F401  (the span times the import)
    functions = install(tracer)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = sys.modules["kickscope.cli"].main(argv)
    spans_path = Path(spans_path)
    (spans_path.parent / "stdout.txt").write_text(captured.getvalue(), encoding="utf-8")
    spans_path.write_text(
        json.dumps({"run": run_id, "functions": functions, "spans": tracer.spans}),
        encoding="utf-8",
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
