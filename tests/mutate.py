"""The mutation pass: does every effect of ``src/opdisc`` change a checked byte?

Run from anywhere, standard library only::

    python tests/mutate.py            # judge every site of MODULES: each module of src/opdisc
    python tests/mutate.py --stale    # judge only the sites without a current verdict

A site is one place where one of three operators changes the program: flip a
comparison to its negation (``<`` and ``>=``, ``<=`` and ``>``, ``==`` and
``!=``, ``is`` and ``is not``, ``in`` and ``not in``), double a nonzero float
constant, or swap a binary or augmented ``+`` and ``-``.  The sites are read
from the AST under the line pass's exemptions (``tests/test_reachability.py``):
``raise`` and ``assert`` statements, an ``if`` or ``else`` body that ends in
``raise`` (a refusal), ``except`` handler bodies, docstrings and class-body
lines.  The test of a refusal guard, an ``if`` whose true or false arm is a
``raise`` (an ``if`` without ``else`` falls through to the statement after
it), is exempt too: a guard on outside input has no effect on what a run that
it lets through writes.

Each mutant is judged in a temporary copy of the repository's ``src``,
``tests``, ``bench``, ``README.md`` and ``pyproject.toml``, never in the
checkout, at most two at once.
The digest ledger judges first: ``tests/test_digests.py --here`` with BLAS
pinned to one thread, in a fresh interpreter.  A moved digest kills the
mutant as ``"ledger section/key"``, naming the first moved entry of
``tests/digests.json``; a failed run, or one longer than ``LEDGER_TIMEOUT``
seconds, kills it as ``"ledger"``.  A ledger survivor then runs tier-1 with
``-x``; the first failing test's node id kills it, or the id of the test
that was running when tier-1 went over ``TIER1_TIMEOUT`` seconds or ended
without pytest's final summary line (:func:`tier1_verdict`).  A mutant that
both pass is a ``"survivor"``.

``tests/mutants.json`` keeps one verdict per site, keyed
``module.qualname: line: operator`` (the site's source line, without its
comment; `` (2)``, `` (3)`` … tell apart repeats within one function), with a
hash of the source of the function that holds the site (of the top-level
statement, outside every function) and a hash of the check that killed it
(:func:`check`): the killing test's source, decorators included, or the
committed digest of the moved ledger entry (for a failed run, the ledger
script and the tables it replays, :func:`ledger_run_hash`).  An edit to the
function, or to the check, makes the verdict stale, and
``tests/test_mutate.py`` fails until ``--stale`` judges it again; it also
fails on a kill whose check is gone, and on a survivor that its
``ALLOWED_SURVIVORS`` does not name.
"""

from __future__ import annotations

import argparse
import ast
import collections
import functools
import hashlib
import io
import json
import os
import queue
import re
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "opdisc"
VERDICTS = Path(__file__).with_name("mutants.json")
LEDGER = Path(__file__).with_name("digests.json")
SECTIONS = ("files", "subcommands", "criteria")
MODULES = tuple(sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__"))
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
LEDGER_TIMEOUT = 60
TIER1_TIMEOUT = 300
MAX_JOBS = 2

_FLIP = {ast.Lt: ">=", ast.GtE: "<", ast.LtE: ">", ast.Gt: "<=", ast.Eq: "!=", ast.NotEq: "==",
         ast.Is: "is not", ast.IsNot: "is", ast.In: "not in", ast.NotIn: "in"}
_SWAP = {ast.Add: "-", ast.Sub: "+"}


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def source_hash(lines: list[str], stmt: ast.stmt) -> str:
    """The hash of ``stmt``'s source lines, its decorators included."""
    first = min([d.lineno for d in getattr(stmt, "decorator_list", [])] + [stmt.lineno])
    return _hash("\n".join(lines[first - 1 : stmt.end_lineno]))


def ends_in_raise(body: list) -> bool:
    return bool(body) and isinstance(body[-1], ast.Raise)


def bodies(stmt: ast.stmt) -> list[tuple[list, bool]]:
    """The statement lists ``stmt`` holds, each with whether it is exempt: a
    refusal (an ``if`` or ``else`` body ending in ``raise``) or a handler."""
    if isinstance(stmt, ast.If):
        return [(stmt.body, ends_in_raise(stmt.body)), (stmt.orelse, ends_in_raise(stmt.orelse))]
    held = [(getattr(stmt, field, []), False) for field in ("body", "orelse", "finalbody")]
    return held + [(handler.body, True) for handler in getattr(stmt, "handlers", [])]


class Site(NamedTuple):
    key: str
    module: str
    hash: str  # of the source of the function that holds the site
    line: int  # the replaced text's line, from 1, and its columns
    start: int
    end: int
    new: str


def sites(source: str, module: str) -> list[Site]:
    """Every mutation site of ``source`` that is not exempt, in source order."""
    lines = source.splitlines()
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type in (tokenize.OP, tokenize.NAME, tokenize.COMMENT)]
    comments = {tok.start[0]: tok.start[1] for tok in tokens if tok.type == tokenize.COMMENT}
    found, seen = [], {}

    def char(lineno: int, col: int) -> int:
        """A column in characters from an AST column in UTF-8 bytes."""
        return len(lines[lineno - 1].encode()[:col].decode())

    def between(first: ast.AST, last: ast.AST) -> list:
        """The operator tokens after ``first`` and before ``last``."""
        lo = (first.end_lineno, char(first.end_lineno, first.end_col_offset))
        hi = (last.lineno, char(last.lineno, last.col_offset))
        return [tok for tok in tokens if lo <= tok.start and tok.end <= hi
                and tok.type != tokenize.COMMENT and tok.string not in "()"]

    def add(scope: str, owner: str, span: tuple, new: str, operator: str) -> None:
        (line, start), (end_line, end) = span
        assert line == end_line, (module, scope, line)
        text = lines[line - 1][: comments.get(line)].strip()
        key = f"{module}.{scope}: {text}: {operator}"
        seen[key] = seen.get(key, 0) + 1
        key += f" ({seen[key]})" if seen[key] > 1 else ""
        found.append(Site(key, module, owner, line, start, end, new))

    def walk(root: ast.AST):
        """``ast.walk`` without f-strings: a message text has no effect, and
        an f-string is one token, so its operators have none to replace."""
        todo = collections.deque([root])
        while todo:
            node = todo.popleft()
            if not isinstance(node, ast.JoinedStr):
                todo.extend(ast.iter_child_nodes(node))
                yield node

    def expression(root: ast.AST, scope: str, owner: str) -> None:
        for node in walk(root):
            if isinstance(node, ast.Compare):
                for left, op, right in zip([node.left, *node.comparators], node.ops,
                                           node.comparators):
                    toks = between(left, right)
                    old = " ".join(tok.string for tok in toks)
                    add(scope, owner, (toks[0].start, toks[-1].end), _FLIP[type(op)],
                        f"flip {old} to {_FLIP[type(op)]}")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAP:
                left, right = ((node.left, node.right) if isinstance(node, ast.BinOp)
                               else (node.target, node.value))
                (tok,) = between(left, right)
                new = tok.string.replace(tok.string[0], _SWAP[type(node.op)])
                add(scope, owner, (tok.start, tok.end), new, f"swap {tok.string} to {new}")
            elif (isinstance(node, ast.Constant) and type(node.value) is float
                  and node.value != 0.0):
                old = lines[node.lineno - 1][char(node.lineno, node.col_offset):
                                             char(node.end_lineno, node.end_col_offset)]
                new = repr(2.0 * node.value)
                span = ((node.lineno, char(node.lineno, node.col_offset)),
                        (node.end_lineno, char(node.end_lineno, node.end_col_offset)))
                add(scope, owner, span, new, f"double {old} to {new}")

    def visit(body: list, scope: str, prefix: str, owner: str | None, exempt: bool,
              in_class: bool) -> None:
        for stmt, after in zip(body, [*body[1:], None]):
            inner, inner_prefix, inner_owner = scope, prefix, owner or source_hash(lines, stmt)
            is_def = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_def or isinstance(stmt, ast.ClassDef):
                inner = f"{prefix}{stmt.name}"
                inner_prefix = f"{inner}.<locals>." if is_def else f"{inner}."
            if is_def:
                inner_owner = source_hash(lines, stmt)
            quiet = (exempt or (in_class and not is_def) or isinstance(stmt, (ast.Raise, ast.Assert))
                     or isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
            # a refusal guard: an arm, or the statement an if without else falls to, raises
            guard = isinstance(stmt, ast.If) and (
                ends_in_raise(stmt.body) or ends_in_raise(stmt.orelse or ([after] if after else [])))
            # an augmented assignment is its own operator; other statements hold theirs
            roots = [stmt] if isinstance(stmt, ast.AugAssign) else [
                root for field, value in ast.iter_fields(stmt)
                if field not in ("body", "orelse", "finalbody", "handlers")
                and not (guard and field == "test")
                for root in (value if isinstance(value, list) else [value])]
            for root in roots if not quiet else ():
                if isinstance(root, ast.AST):
                    expression(root, inner if is_def else scope, inner_owner)
            for sub, refusal in bodies(stmt):
                visit(sub, inner, inner_prefix, inner_owner, exempt or refusal,
                      isinstance(stmt, ast.ClassDef))

    visit(ast.parse(source).body, "<module>", "", None, False, False)
    return found


def mutant(source: str, site: Site) -> str:
    """``source`` with ``site``'s mutation applied."""
    lines = source.splitlines(keepends=True)
    line = lines[site.line - 1]
    lines[site.line - 1] = line[: site.start] + site.new + line[site.end :]
    return "".join(lines)


def current_sites(src: Path = SRC) -> dict[str, Site]:
    """The sites of every module in MODULES, by key."""
    return {site.key: site for module in MODULES
            for site in sites((src / f"{module}.py").read_text(), module)}


@functools.lru_cache(maxsize=None)
def _parsed(path: Path) -> tuple[list[str], ast.Module] | None:
    if not path.is_file():
        return None
    source = path.read_text()
    return source.splitlines(), ast.parse(source)


def _joined(parts: list[str], known: set[str]) -> bool:
    """Whether ``parts`` split into runs that each, joined by ``-``, are in ``known``."""
    ends = {0}
    for end in range(1, len(parts) + 1):
        if any("-".join(parts[start:end]) in known for start in ends):
            ends.add(end)
    return len(parts) in ends


def _test_hash(node: str) -> str | None:
    """The hash of the test with node id ``node`` (``path::Class::name[id]``):
    its source, decorators included, and the module-level assignments that
    the decorators of it and its classes name (a parametrize table).  None
    when it is gone: no such function, or an ``[id]`` that is not made of
    constants and names of those decorators and tables, joined by ``-``."""
    path, *names = node.split("::")
    names[-1:] = [names[-1].partition("[")[0]] if names else []
    param = node.partition("[")[2].removesuffix("]")
    parsed = _parsed(ROOT / path)
    if parsed is None or not names:
        return None
    lines, module = parsed
    held, body = [], module.body
    for name in names:
        stmt = next((s for s in body if getattr(s, "name", None) == name), None)
        if stmt is None:
            return None
        held, body = held + getattr(stmt, "decorator_list", []), getattr(stmt, "body", [])
    used = {n.id for d in held for n in ast.walk(d) if isinstance(n, ast.Name)}
    tables = [s for s in module.body if isinstance(s, (ast.Assign, ast.AnnAssign))
              and any(getattr(t, "id", None) in used
                      for t in (s.targets if isinstance(s, ast.Assign) else [s.target]))]
    known = {str(c.value) if isinstance(c, ast.Constant) else c.id
             for root in held + tables for c in ast.walk(root)
             if isinstance(c, (ast.Constant, ast.Name))}
    if param and not _joined(param.split("-"), known):
        return None
    return _hash(" ".join([*(source_hash(lines, s) for s in [stmt, *tables]), param]))


def ledger_run_hash(tests: Path = ROOT / "tests") -> str:
    """The hash of what a ledger run is, apart from ``src``: ``test_digests.py``
    in ``tests`` and the tables of ``test_reachability.py`` that it imports,
    with every module-level table those name, in source order.  A crashed
    or overlong run depends on these, not on the digests it would write."""
    return _ledger_run_hash((tests / "test_digests.py").read_text(),
                            (tests / "test_reachability.py").read_text())


@functools.lru_cache(maxsize=None)
def _ledger_run_hash(source: str, reach: str) -> str:
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module == "test_reachability"
                for alias in node.names}
    lines, tables = reach.splitlines(), {}
    for stmt in ast.parse(reach).body:
        if isinstance(stmt, ast.Assign):
            tables.update((target.id, stmt) for target in stmt.targets
                          if isinstance(target, ast.Name))
    held, todo = {}, sorted(imported & tables.keys())
    while todo:
        stmt = tables[todo.pop()]
        if stmt.lineno not in held:
            held[stmt.lineno] = stmt
            todo += [n.id for n in ast.walk(stmt.value)
                     if isinstance(n, ast.Name) and n.id in tables]
    return _hash(" ".join([_hash(source), *(source_hash(lines, held[k]) for k in sorted(held))]))


def check(verdict: str, ledger: dict) -> str | None:
    """The hash of the check that ``verdict`` names, as ``ledger`` (the
    committed ``digests.json``) and the tests are now; None for a survivor,
    or for a check that is gone."""
    if verdict == "survivor":
        return None
    if verdict == "ledger":
        return ledger_run_hash()
    if verdict.partition(" ")[0] == "ledger":
        section, _, key = verdict.partition(" ")[2].partition("/")
        value = ledger.get(section, {}).get(key)
        return None if value is None else _hash(json.dumps(value, sort_keys=True))
    return _test_hash(verdict)


def stale_keys(sites_now: dict, recorded: dict) -> list[str]:
    """The keys of the sites with no verdict, or one for another function
    source or another check than those it was judged with."""
    ledger = json.loads(LEDGER.read_text())
    return sorted(key for key, site in sites_now.items()
                  if key not in recorded or recorded[key]["hash"] != site.hash
                  or recorded[key].get("check") != check(recorded[key]["verdict"], ledger))


# ---------------------------------------------------------------------------
# judging
# ---------------------------------------------------------------------------


def _copy(root: Path) -> Path:
    """A copy of what the judges run, ``src``, ``tests``, and the ``bench``
    and ``README.md`` that tier-1 reads, under ``root``, without bytecode
    caches."""
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests", "bench"):
        shutil.copytree(ROOT / name, root / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, root / name)
    return root


def _env(copy: Path) -> dict:
    # no bytecode: a mutant of the same size and second as its original
    # would otherwise load the original's cached code
    return {**os.environ, **PINNED, "PYTHONPATH": str(copy / "src"),
            "PYTHONDONTWRITEBYTECODE": "1"}


def _ledger(copy: Path) -> str | None:
    """None when the ledger run in ``copy`` writes the committed digests,
    else its verdict: ``"ledger section/key"`` for the first moved entry, or
    ``"ledger"`` for a failed or overlong run."""
    try:
        done = subprocess.run(
            [sys.executable, "tests/test_digests.py", "--here"], cwd=copy, env=_env(copy),
            capture_output=True, text=True, timeout=LEDGER_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return "ledger"
    if done.returncode != 0:
        return "ledger"
    ledger, now = json.loads((copy / "tests" / "digests.json").read_text()), json.loads(done.stdout)
    moved = [f"ledger {section}/{key}" for section in SECTIONS
             for key in sorted(ledger[section].keys() | now[section].keys())
             if ledger[section].get(key) != now[section].get(key)]
    return moved[0] if moved else None


def _last_started(out: str) -> str | None:
    started = re.findall(r"^(tests/\S+::\S+)", out, re.MULTILINE)
    return started[-1] if started else None


def tier1_verdict(out: str, code: int) -> str | None:
    """None when the output ``out`` and exit code ``code`` of ``pytest -v -x
    -rfE`` tell a pass, else the first failing test, or the test that was
    running when the session ended without pytest's final summary line.

    The exit code alone does not tell a pass: a mutant can make the process
    leave early with exit code 0, through ``os._exit`` in a forked child
    that takes the runner's role, while the child goes on with the session
    and reports its failures on the same output."""
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", out, re.MULTILINE)
    if failed:
        return failed[1]
    if not re.search(r"^=+ .* in [\d.]+s\b.* =+$", out, re.MULTILINE):
        return _last_started(out) or "tier-1 ended without a summary"
    return None if code == 0 else f"tier-1 exit {code}"


def _tier1(copy: Path) -> str | None:
    """The verdict of tier-1 in ``copy`` (:func:`tier1_verdict`), or the
    test it was running when it ran over ``TIER1_TIMEOUT``."""
    command = [sys.executable, "-m", "pytest", "-v", "-x", "-rfE", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", "--ignore=tests/test_mutate.py", "tests"]
    try:
        done = subprocess.run(command, cwd=copy, env=_env(copy), capture_output=True, text=True,
                              timeout=TIER1_TIMEOUT)
    except subprocess.TimeoutExpired as over:
        out = over.stdout.decode() if isinstance(over.stdout, bytes) else over.stdout or ""
        return _last_started(out) or f"tier-1 ran over {TIER1_TIMEOUT} s"
    return tier1_verdict(done.stdout, done.returncode)


def judge(todo: list[Site]) -> dict[str, dict]:
    """The verdict of each site in ``todo``, from at most ``MAX_JOBS`` judges at once."""
    jobs = min(MAX_JOBS, len(todo))
    originals = {module: (SRC / f"{module}.py").read_text() for module in MODULES}
    with tempfile.TemporaryDirectory(prefix="opdisc-mutate-") as tmp:
        copies = queue.Queue()
        for i in range(jobs):
            copies.put(_copy(Path(tmp) / str(i)))
        first = copies.queue[0]
        where = subprocess.run(
            [sys.executable, "-c", "import opdisc; print(opdisc.__file__)"], env=_env(first),
            capture_output=True, text=True, check=True).stdout.strip()
        if not Path(where).resolve().is_relative_to(first.resolve()):
            raise SystemExit(f"the judges import opdisc from {where}, not from their copy")
        if (why := _ledger(first)) is not None:
            raise SystemExit(f"the unmutated copy does not match tests/digests.json: {why}")

        def one(numbered: tuple[int, Site]) -> tuple[str, dict]:
            n, site = numbered
            copy, started = copies.get(), time.perf_counter()
            path = copy / "src" / "opdisc" / f"{site.module}.py"
            try:
                path.write_text(mutant(originals[site.module], site))
                verdict = _ledger(copy) or _tier1(copy) or "survivor"
            finally:
                path.write_text(originals[site.module])
                copies.put(copy)
            print(f"[{n}/{len(todo)}] {verdict:<10} {time.perf_counter() - started:5.1f} s  "
                  f"{site.key}", file=sys.stderr, flush=True)
            return site.key, {"hash": site.hash, "verdict": verdict,
                              "check": check(verdict, json.loads(LEDGER.read_text()))}

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return dict(pool.map(one, enumerate(todo, 1)))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--stale", action="store_true",
                        help="judge only the sites with no current verdict in mutants.json")
    args = parser.parse_args(argv)
    now = current_sites()
    recorded = json.loads(VERDICTS.read_text()) if VERDICTS.exists() else {}
    todo = [now[key] for key in (stale_keys(now, recorded) if args.stale else now)]
    print(f"{len(todo)} of {len(now)} sites to judge", file=sys.stderr)
    verdicts = {key: recorded[key] for key in now if key in recorded}
    verdicts.update(judge(todo) if todo else {})
    VERDICTS.write_text(json.dumps(dict(sorted(verdicts.items())), indent=1) + "\n")
    survivors = sorted(key for key, entry in verdicts.items() if entry["verdict"] == "survivor")
    print(f"{len(survivors)} survivors", *survivors, sep="\n  ", file=sys.stderr)


if __name__ == "__main__":
    main()
