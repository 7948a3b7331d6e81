"""Which ``src/repro`` functions does the product never run?

Runs the product's own entry points under a function tracer and prints
every function defined under ``src/repro`` that none of them called::

    python tests/reachability.py          # every root, one 4 s bench run each
    python tests/reachability.py --check  # the deterministic roots only

The roots are the product-level suites (``tests/integration``,
``tests/cli``, ``tests/casestudy``), the soak corpus, the example game
day and, without ``--check``, one ``bench.run`` per workload.  Each runs
in its own interpreter with a ``sitecustomize`` on ``PYTHONPATH`` that
installs a ``sys.setprofile``/``threading.setprofile`` hook, so every
subprocess and thread they start is traced too.  A function counts as
reached when any frame of its code object is entered, however it was
called: directly, as a coroutine step, or as a callback the event loop
runs.

The function list comes from an AST walk of the source.  A code object
reports the line of its first decorator as ``co_firstlineno``, so a
function is keyed by that line, or by its ``def`` line when it has no
decorator.  A function whose body is only a docstring, ``...``, ``pass``
or ``raise NotImplementedError`` declares an interface and runs nothing;
it is left out of the list.

The report is held against the "Not run by the product" section of
``docs/architecture.md``, which lists functions as ``module:Qualified.name``
with a reason under three headings: "Not reached" (no root calls it),
"Reached only by a bench run" (``--check`` runs no bench, so it cannot see
these) and "Reached on some runs only" (timing decides, e.g. whether a
body arrives in one read).  The command fails when an unreached function
is listed under none of them, when one listed as "Not reached" is reached,
when a listed name no longer exists, and, on a full run, when one listed
as reached by a bench run is not.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SOURCE = REPO / "src" / "repro"
DOCUMENT = REPO / "docs" / "architecture.md"
HEADING = "## Not run by the product"
WORKLOADS = ("proxy_active_small", "proxy_stream_large", "enact_fanout", "metrics_ingest_query")


def roots(check: bool) -> list[tuple[str, list[str], int]]:
    """``(name, argv, expected exit status)`` for each product entry point."""
    python = sys.executable
    found = [
        ("product suites", [python, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                            "tests/integration", "tests/cli", "tests/casestudy"], 0),
        ("soak corpus", [python, "-m", "repro.resilience.corpus", "--count",
                         "60" if check else "200", "--base-seed", "0", "--quiet"], 0),
        # The shipped game day is red by design: exit 2.
        ("game day", [python, "-m", "repro.cli.main", "chaos", "run",
                      "examples/chaos_canary.yaml", "--rehearse", "--quiet"], 2),
    ]
    if not check:
        found += [
            (f"bench {name}", [python, "-m", "bench.run", "--workload", name,
                               "--seed", "1", "--seconds", "4", "--trace", "0"], 0)
            for name in WORKLOADS
        ]
    return found


# -- the function list --------------------------------------------------------


def _declares_only(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    if not body:
        return True
    if len(body) != 1:
        return False
    statement = body[0]
    if isinstance(statement, ast.Pass):
        return True
    if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
        return statement.value.value is Ellipsis
    if isinstance(statement, ast.Raise) and statement.exc is not None:
        raised = statement.exc.func if isinstance(statement.exc, ast.Call) else statement.exc
        return isinstance(raised, ast.Name) and raised.id == "NotImplementedError"
    return False


def functions(tree: ast.Module) -> dict[int, str]:
    """``{first line: qualified name}`` of every function *tree* defines."""
    found: dict[int, str] = {}

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if not _declares_only(child):
                    first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                    found[first] = name
                walk(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return found


def source_functions() -> dict[tuple[str, int], str]:
    """``{(file, first line): "module:qualname"}`` over ``src/repro``."""
    found: dict[tuple[str, int], str] = {}
    for path in sorted(SOURCE.rglob("*.py")):
        module = ".".join(("repro", *path.relative_to(SOURCE).with_suffix("").parts))
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line, name in functions(tree).items():
            found[(str(path), line)] = f"{module}:{name}"
    return found


# -- the tracer ---------------------------------------------------------------


class Tracer:
    """Records the code object of every frame entered while it is on."""

    def __init__(self) -> None:
        self.codes: dict[int, object] = {}  # id -> code; holding it keeps ids unique

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            self.codes[id(code)] = code

    def start(self) -> None:
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)

    def stop(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def reached(self) -> set[tuple[str, int]]:
        """``(real file path, first line)`` of every code object entered."""
        return {
            (os.path.realpath(code.co_filename), code.co_firstlineno)
            for code in list(self.codes.values())
        }


def record_until_exit(out_dir: str) -> None:
    """Trace this interpreter; at exit, write what it reached under *out_dir*."""
    tracer = Tracer()

    def dump() -> None:
        tracer.stop()
        prefix = str(SOURCE) + os.sep
        lines = sorted(
            f"{line} {path}" for path, line in tracer.reached() if path.startswith(prefix)
        )
        with open(os.path.join(out_dir, f"{os.getpid()}.txt"), "w", encoding="utf-8") as out:
            out.write("\n".join(lines))

    atexit.register(dump)
    tracer.start()


SITECUSTOMIZE = """\
import importlib.util
_spec = importlib.util.spec_from_file_location("_reachability", {module!r})
_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_module)
_module.record_until_exit({out!r})
"""


def run_roots(check: bool) -> tuple[set[tuple[str, int]], list[str]]:
    """Run every root traced; the reached keys and each root's failure, if any."""
    reached: set[tuple[str, int]] = set()
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as hook, tempfile.TemporaryDirectory() as out:
        Path(hook, "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(module=str(Path(__file__).resolve()), out=out)
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [hook, str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        )
        for name, argv, expected in roots(check):
            print(f"running {name}", file=sys.stderr, flush=True)
            child = subprocess.run(
                argv, cwd=REPO, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True,
            )
            if child.returncode != expected:
                tail = child.stderr.strip().splitlines()[-5:]
                failures.append(f"{name}: exit {child.returncode}, expected {expected}\n  "
                                + "\n  ".join(tail))
        for dump in Path(out).glob("*.txt"):
            for row in dump.read_text(encoding="utf-8").splitlines():
                line, path = row.split(" ", 1)
                reached.add((path, int(line)))
    return reached, failures


# -- the document -------------------------------------------------------------


NOT_REACHED = "Not reached"
BENCH_ONLY = "Reached only by a bench run"
SOMETIMES = "Reached on some runs only"


def documented() -> dict[str, str]:
    """``{"module:qualname": heading}`` from the document's section."""
    text = DOCUMENT.read_text(encoding="utf-8")
    section = text[text.index(HEADING) + len(HEADING):].split("\n## ", 1)[0]
    listed: dict[str, str] = {}
    for block in section.split("\n### ")[1:]:
        heading, _, body = block.partition("\n")
        for name in re.findall(r"^- `([\w.]+:[\w.<>]+)`", body, re.M):
            listed[name] = heading.strip()
    return listed


def problems(unreached: set[str], names: set[str], check: bool) -> list[str]:
    """Where the report and the document disagree."""
    listed = documented()
    found = [f"unreached and not listed: {name}" for name in sorted(unreached - set(listed))]
    for name, heading in sorted(listed.items()):
        if name not in names:
            found.append(f"listed but gone: {name}")
        elif heading == NOT_REACHED and name not in unreached:
            found.append(f"listed as not reached, but reached: {name}")
        elif heading == BENCH_ONLY and not check and name in unreached:
            found.append(f"listed as reached by a bench run, but not reached: {name}")
        elif heading not in (NOT_REACHED, BENCH_ONLY, SOMETIMES):
            found.append(f"listed under an unknown heading {heading!r}: {name}")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="deterministic roots only: no bench runs, 60 corpus seeds")
    args = parser.parse_args(argv)

    everything = source_functions()
    reached, failures = run_roots(args.check)
    unreached = {name for key, name in everything.items() if key not in reached}
    for name in sorted(unreached):
        print(name)
    print(f"{len(unreached)} of {len(everything)} functions not reached", file=sys.stderr)
    found = [f"root failed: {failure}" for failure in failures]
    found += problems(unreached, set(everything.values()), args.check)
    for problem in found:
        print(problem, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
