"""Single-change mutants of ``src/kickscope`` and the certificate for removing tests.

A mutant changes one node of one module: it swaps one arithmetic operator
(``+``/``-``, ``*``/``/``, ``**`` to ``*``) or comparison (``<``/``<=``,
``>``/``>=``, ``==``/``!=``), scales one float literal by 1 + 1e-6, adds 1
to one int literal, or replaces one statement with ``pass``.  Docstrings,
``__all__``, strings, f-strings and ``def``, ``class`` and ``import``
statements are never touched.  Ids are ``file:line:col:op``, col from 0.

The certificate shows that the suite without the removed ids R, listed in
the record, kills every mutant that the parent's suite kills.  Phase 1 runs
R on each mutant in the parent tree, skipping mutants on lines that no id
of R executes alone there.  Phase 2 runs the kept suite with ``-x`` on each
mutant that R kills; its first failure is the kept witness.  Each child is
a pytest in a scratch copy, at most two at a time, with a CPU-time limit;
a child that dies or overruns fails the id it was running.  ``survivors``
runs the four commands on SMALL for each mutant that R does not kill, and
the kept suite on those that move a byte; ``check`` runs witnesses alone.

    mkdir /tmp/parent && git archive f9c1d9f | tar -x -C /tmp/parent
    python tests/mutate.py certify /tmp/parent          # rewrites MUTANTS_44.json
    python tests/mutate.py survivors /tmp/parent        # classifies what R does not kill
    python tests/mutate.py check /tmp/parent [N|all]    # N = 20 witnesses, fixed seed
"""

import ast
import bisect
import collections
import io
import json
import queue
import random
import shutil
import sys
import tempfile
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # conftest imports kickscope
import conftest  # noqa: E402
from conftest import run_python  # noqa: E402

PACKAGE = ROOT / "src" / "kickscope"
RECORD = ROOT / "MUTANTS_44.json"
JOBS, CPU_SECONDS = 2, 60
ENV = {"PYTHONDONTWRITEBYTECODE": "1", "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
PYTEST = ["-p", "hypothesis.extra.pytestplugin", "-p", "no:cacheprovider", "-q", "--tb=no",
          "--hypothesis-seed=0"]
# Cheap modules first, so that phase 2's -x stops early.
ORDER = ["test_hilbert", "test_config", "test_wavepacket", "test_experiment", "test_package",
         "test_cli", "test_bench_reference", "test_acceptance", "test_demos", "test_startup"]

SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
        ast.Pow: ast.Mult, ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SYMBOL = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "**", ast.Lt: "<",
          ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
UNTOUCHED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
             ast.Pass, ast.Global, ast.Nonlocal)


def mutants(path: Path) -> list[tuple[str, str, set[int]]]:
    """``(id, source, lines)`` for every mutant of one module, in source order.

    ``lines`` holds the mutated node's lines and its statement's first line.
    """
    source = path.read_text(encoding="utf-8")
    rows = source.splitlines(keepends=True)
    starts = [0]
    for row in rows:
        starts.append(starts[-1] + len(row))
    ops = [(t.start, t.string) for t in tokenize.generate_tokens(io.StringIO(source).readline)
           if t.type == tokenize.OP]

    def char(line, byte_col):  # ast columns count UTF-8 bytes
        return (line, len(rows[line - 1].encode()[:byte_col].decode()))

    def offset(pos):
        return starts[pos[0] - 1] + pos[1]

    def token(after, before, symbol):
        # The one operator token between two operands.
        lo = bisect.bisect_left(ops, (char(after.end_lineno, after.end_col_offset), ""))
        hi = bisect.bisect_left(ops, (char(before.lineno, before.col_offset), ""))
        (pos,) = [p for p, s in ops[lo:hi] if s == symbol]
        return pos

    found = []

    def span(node):
        return char(node.lineno, node.col_offset), char(node.end_lineno, node.end_col_offset)

    def add(pos, op, lo, hi, text, node, stmt):
        lines = set(range(node.lineno, node.end_lineno + 1)) | {stmt.lineno}
        found.append((pos, op, offset(lo), offset(hi), text, lines))

    def swap(pos, old, suffix, node, stmt):
        new, symbol = SWAP[type(old)], SYMBOL[type(old)] + suffix
        op = f"{type(old).__name__}>{new.__name__}"
        if isinstance(node, ast.BinOp) and type(old) is ast.Pow:
            # * binds looser than **: parenthesize, which adds no node.
            left, right = (source[offset(a):offset(b)] for a, b in map(span, (node.left, node.right)))
            add(pos, op, *span(node), f"(({left}) * ({right}))", node, stmt)
        else:
            add(pos, op, pos, (pos[0], pos[1] + len(symbol)), SYMBOL[new] + suffix, node, stmt)

    def visit(node, stmt):
        if isinstance(node, ast.JoinedStr) or is_all(node):
            return
        if isinstance(node, ast.stmt):
            stmt = node
            if not isinstance(node, UNTOUCHED):
                lo, hi = span(node)
                text = "else: pass" if source.startswith("elif", offset(lo)) else "pass"
                add(lo, "Pass", lo, hi, text + "\n" * (node.end_lineno - node.lineno), node, stmt)
        if isinstance(node, ast.BinOp) and type(node.op) in SWAP:
            swap(token(node.left, node.right, SYMBOL[type(node.op)]), node.op, "", node, stmt)
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAP:
            swap(token(node.target, node.value, SYMBOL[type(node.op)] + "="), node.op, "=", node, stmt)
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                if type(op) in SWAP:
                    swap(token(left, right, SYMBOL[type(op)]), op, "", node, stmt)
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            new = node.value + 1 if type(node.value) is int else node.value * (1.0 + 1e-6)
            if new != node.value and abs(new) != float("inf"):
                lo, hi = span(node)
                add(lo, type(node.value).__name__, lo, hi, repr(new), node, stmt)
        children = list(ast.iter_child_nodes(node))
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            children = children[1:] if isinstance(node, ast.Module) else [
                c for c in children if c is not node.body[0]]
        for child in children:
            visit(child, stmt)

    visit(ast.parse(source), None)
    out = []
    for (line, col), op, lo, hi, text, lines in sorted(found, key=lambda f: (f[0], f[1])):
        out.append((f"{path.name}:{line}:{col}:{op}", source[:lo] + text + source[hi:], lines))
    assert len({m for m, _, _ in out}) == len(out)
    return out


def is_all(node) -> bool:
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return isinstance(node, ast.stmt) and any(getattr(t, "id", None) == "__all__" for t in targets)


def node_diffs(a, b, path="") -> list[str]:
    """The paths of the outermost nodes at which two trees differ, positions ignored."""
    if type(a) is not type(b):
        return [path]
    if isinstance(a, list):
        if len(a) != len(b):
            return [path]
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in node_diffs(x, y, f"{path}[{i}]")]
    if not isinstance(a, ast.AST):
        return [] if a == b else [path]
    fields = [(getattr(a, f, None), getattr(b, f, None), f) for f in a._fields]
    if any(not isinstance(x, (ast.AST, list)) and x != y for x, y, _ in fields):
        return [path]
    return [d for x, y, f in fields for d in node_diffs(x, y, f"{path}.{f}")]


def docstrings(tree) -> list:
    return [ast.get_docstring(n, clean=False) for n in ast.walk(tree) if isinstance(n, DOCUMENTED)]


def all_mutants() -> dict[str, tuple[str, str, set[int]]]:
    """``{id: (module file, source, lines)}`` over the package, each checked to change one node."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for mutant, source, lines in mutants(path):
            changed = ast.parse(source)
            assert len(node_diffs(tree, changed)) == 1 and docstrings(changed) == docstrings(tree)
            out[mutant] = (path.name, source, lines)
    return out


# The child: pytest under a CPU-time and an address-space limit, with a
# hypothesis that keeps no database and does not shrink.  Its arguments
# are the log file, "trace" or "-", then pytest's own.  It logs each id it
# starts and each that fails, then, when tracing, the package lines it
# executed, then its exit code.  pytest's `pythonpath = ["src"]` puts the
# copy's src/ ahead of the checkout's, which run_python puts on PYTHONPATH.
CHILD = """
import json, os, resource, sys
limit = resource.RLIMIT_CPU
resource.setrlimit(limit, (%d, resource.getrlimit(limit)[1]))
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from hypothesis import Phase, settings
settings.register_profile("mutants", database=None, phases=[Phase.explicit, Phase.generate])
settings.load_profile("mutants")
import pytest
log, lines = open(sys.argv[1], "w", buffering=1), set()
package = os.path.abspath("src/kickscope") + os.sep
class Record:
    def pytest_runtest_logstart(self, nodeid, location):
        log.write("start " + nodeid + "\\n")
    def pytest_runtest_logreport(self, report):
        if report.failed:
            log.write("fail " + report.nodeid + "\\n")
    pytest_collectreport = pytest_runtest_logreport
def local(frame, event, arg):
    if event == "line":
        lines.add((os.path.basename(frame.f_code.co_filename), frame.f_lineno))
    return local
def trace(frame, event, arg):
    if frame.f_code.co_filename.startswith(package):
        return local(frame, "line", arg)
if sys.argv[2] == "trace":
    sys.settrace(trace)
code = pytest.main(sys.argv[3:], plugins=[Record()])
sys.settrace(None)
log.write("lines " + json.dumps(sorted(lines)) + "\\n")
log.write("code " + str(int(code)) + "\\n")
""" % CPU_SECONDS


def pytest_child(tree: Path, args: list[str], trace: bool = False) -> dict:
    """The child's exit code (None when it died or overran), the ids that failed, the id it
    was running last and the lines it traced."""
    log = tree / "pytest.log"
    log.unlink(missing_ok=True)
    flags = [*PYTEST, f"--basetemp={tree / '.tmp'}"]
    try:
        run_python("-c", CHILD, str(log), "trace" if trace else "-", *flags, *args,
                   env=ENV, cwd=tree)
    except conftest.subprocess.TimeoutExpired:
        pass
    report = {"code": None, "failed": [], "running": None, "lines": []}
    for line in log.read_text().splitlines() if log.exists() else []:
        event, _, value = line.partition(" ")
        if event == "fail":
            report["failed"].append(value)
        elif event == "start":
            report["running"] = value
        else:
            report[event] = json.loads(value)
    return report


def killers(report: dict, ids: list[str]) -> list[str]:
    """The ids in ``ids`` that a child's report counts as failed: a child that died or overran
    its time fails the id it was running, and one that collected nothing fails all."""
    failed = report["failed"]
    if report["code"] is None and report["running"]:
        failed = [*failed, report["running"]]
    elif report["code"] is None or (report["code"] > 1 and not failed):
        return ids
    return [i for i in ids if any(i == f or i.startswith(f + "::") for f in failed)]


class Trees:
    """``JOBS`` pairs of scratch copies, (parent tree, checkout), one pair per running child."""

    def __init__(self, parent: Path):
        self.scratch = Path(tempfile.mkdtemp(prefix="kickscope-mutants-"))
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".tmp")
        self.free = queue.Queue()
        for job in range(JOBS):
            pair = [self.scratch / f"{name}{job}" for name in ("parent", "after")]
            for src, dst in zip((parent, ROOT), pair):
                shutil.copytree(src, dst, ignore=ignore)
            self.free.put(pair)

    def run(self, work, name: str | None = None, source: str | None = None):
        """``work(parent, after)`` on a free pair, with ``source`` over module ``name`` in both."""
        pair = self.free.get()
        paths = [tree / "src" / "kickscope" / name for tree in pair] if name else []
        originals = [path.read_text(encoding="utf-8") for path in paths]
        try:
            for path in paths:
                path.write_text(source, encoding="utf-8")
            return work(*pair)
        finally:
            for path, original in zip(paths, originals):
                path.write_text(original, encoding="utf-8")
            self.free.put(pair)

    def map(self, fn, items) -> list:
        with ThreadPoolExecutor(JOBS) as pool:
            return list(pool.map(fn, items))


class Kept:
    """The kept suite, ordered so that ``-x`` meets a failing id soonest."""

    def __init__(self, ids: list[str]):
        self.ids, self.wins = ids, collections.Counter()

    def witness(self, tree: Path) -> str | None:
        """The first kept id that fails in ``tree``, or None when the whole suite passes."""
        order = sorted(self.ids, key=lambda i: -self.wins[i])
        failed = killers(pytest_child(tree, ["-x", *order]), order)
        if failed:
            self.wins[failed[0]] += 1
        return failed[0] if failed else None


def open_trees(parent: Path):
    """The record, every mutant, the trees, and the kept suite, which passes unmutated."""
    record, every, trees = json.loads(RECORD.read_text()), all_mutants(), Trees(parent)
    done = trees.run(lambda p, a: run_python("-m", "pytest", *PYTEST, "--collect-only",
                                             env=ENV, cwd=a))
    ids = [i for i in done.stdout.splitlines() if "::" in i and i not in record["removed"]]
    kept = Kept(sorted(ids, key=lambda i: ORDER.index(Path(i.split("::")[0]).stem)))
    assert trees.run(lambda p, a: kept.witness(a)) is None, "a kept id fails unmutated"
    return record, every, trees, kept


def save(record: dict) -> None:
    RECORD.write_text(json.dumps(record, indent=1) + "\n")


def certify(parent: Path) -> None:
    record, every, trees, kept = open_trees(parent)
    removed = record["removed"]
    try:
        # Each removed id alone at the parent, unmutated: it passes, and its
        # trace says which mutants it can see.
        traced = trees.map(lambda i: trees.run(lambda p, a: pytest_child(p, [i], True)), removed)
        assert all(r["code"] == 0 for r in traced), "a removed id fails at the parent"
        seen = [{tuple(x) for x in r["lines"]} for r in traced]

        def judge(mutant):
            name, source, lines = every[mutant]
            ids = [i for i, hits in zip(removed, seen) if any((name, n) in hits for n in lines)]

            def work(parent_tree, after_tree):
                by = killers(pytest_child(parent_tree, ids), ids)
                return by, kept.witness(after_tree) if by else None

            by, witness = trees.run(work, name, source) if ids else ([], None)
            print(mutant, len(by), witness, file=sys.stderr, flush=True)
            return by, witness

        results = trees.map(judge, every)
    finally:
        shutil.rmtree(trees.scratch)
    record.update(mutants=list(every), killed={}, not_killed={})
    for mutant, (by, witness) in zip(every, results):
        if by:
            record["killed"][mutant] = {"by": [removed.index(i) for i in by], "witness": witness}
        else:
            record["not_killed"][mutant] = None
    save(record)
    unique = [m for m, entry in record["killed"].items() if entry["witness"] is None]
    print(f"{len(every)} mutants, {len(record['killed'])} killed by the removed ids, "
          f"{len(unique)} with no kept witness: {unique}")


# The four commands on SMALL in process, through test_cli's `small_outputs`:
# the sha256 of each one's stdout and output files.
SMALL_CHILD = """
import hashlib, os, pathlib, resource, sys, tempfile
resource.setrlimit(resource.RLIMIT_CPU, (%d, %d))
sys.path[:0] = [os.path.abspath("src"), os.path.abspath("tests")]
import test_cli
with tempfile.TemporaryDirectory() as work:
    for command in test_cli.SMALL_ARGS:
        out = test_cli.small_outputs(pathlib.Path(work, command), command)
        print(command, hashlib.sha256(repr(out).encode()).hexdigest())
""" % (CPU_SECONDS, CPU_SECONDS)


def small_digests(tree: Path) -> str:
    try:
        done = run_python("-c", SMALL_CHILD, env=ENV, cwd=tree)
    except conftest.subprocess.TimeoutExpired:
        return "timed out"
    return done.stdout if done.returncode == 0 else done.stderr


def survivors(parent: Path) -> None:
    record, every, trees, kept = open_trees(parent)
    try:
        want = trees.run(lambda p, a: small_digests(a))

        def judge(mutant):
            def work(parent_tree, after_tree):
                if small_digests(after_tree) == want:
                    return "byte-equivalent"
                return "killed by a kept id" if kept.witness(after_tree) else "gap: bytes move"

            verdict = trees.run(work, *every[mutant][:2])
            print(mutant, verdict, file=sys.stderr, flush=True)
            return verdict

        todo = [m for m, verdict in record["not_killed"].items() if verdict is None]
        record["not_killed"].update(zip(todo, trees.map(judge, todo)))
    finally:
        shutil.rmtree(trees.scratch)
    save(record)
    gaps = collections.defaultdict(list)
    for mutant, verdict in record["not_killed"].items():
        if verdict.startswith("gap"):
            gaps[mutant.split(":")[0]].append(mutant)
    for module, ids in sorted(gaps.items()):
        print(f"{module}: {len(ids)} gaps, e.g. {', '.join(ids[:3])}")


def check(parent: Path, count: str = "20") -> None:
    """Each sampled killed mutant's witness fails alone on it and passes alone at the parent.

    ``count`` mutants are drawn with a fixed seed; "all" takes every one.
    """
    record, every, trees, _ = open_trees(parent)
    killed = sorted(record["killed"])
    sample = killed if count == "all" else random.Random(44).sample(killed, int(count))
    try:
        def fails(mutant):
            witness = [record["killed"][mutant]["witness"]]
            return bool(trees.run(lambda p, a: killers(pytest_child(a, witness), witness),
                                  *every[mutant][:2]))

        def passes(witness):
            return not trees.run(lambda p, a: killers(pytest_child(p, [witness]), [witness]))

        witnesses = sorted({record["killed"][m]["witness"] for m in sample})
        at_parent = dict(zip(witnesses, trees.map(passes, witnesses)))
        on_mutant = dict(zip(sample, trees.map(fails, sample)))
    finally:
        shutil.rmtree(trees.scratch)
    bad = [w for w, ok in at_parent.items() if not ok] + [m for m, ok in on_mutant.items() if not ok]
    print(f"{len(sample)} mutants, {len(witnesses)} witnesses; failing the check: {bad}")
    assert not bad


if __name__ == "__main__":
    command, *args = sys.argv[1:]
    if command == "list":
        for path in args or sorted(PACKAGE.glob("*.py")):
            print(*(m for m, _, _ in mutants(PACKAGE / Path(path).name)), sep="\n")
    else:
        {"certify": certify, "survivors": survivors, "check": check}[command](Path(args[0]), *args[1:])
