"""Rules on the package's source text: each returns the lines that break it, none here."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cwishart"
SOURCES = [(path.relative_to(PACKAGE).as_posix(), path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.rglob("*.py"))]
# Every Python file of the project: the package, its tests and the benchmark.
PROJECT_SOURCES = [(path.relative_to(ROOT).as_posix(), path.read_text(encoding="utf-8"))
                   for top in ("src", "tests", "bench")
                   for path in sorted((ROOT / top).rglob("*.py"))]

SPECTRAL = re.compile(r"linalg\.(svd|qr|cholesky)|linalg\.norm\(.*, *(ord *= *)?2 *[,)]"
                      r"|eig(h|valsh)\b")
RANDOM = re.compile(r"(np|numpy)\.random|^\s*(import|from)\s+random\b|import\s.*\brandom\b")
GENERATOR_TYPE = re.compile(r"np\.random\.Generator\b")
WRITER = re.compile(r"""open\([^)]*['"][rbt+]*[wax+][rbt+]*['"]"""
                    r"|O_(WRONLY|RDWR|APPEND|CREAT|TRUNC)\b|\.write_(text|bytes)\(")
SHAPE_MATRIX = re.compile(r"build_shape\(")
THREADS = re.compile(r"concurrent\.futures|ThreadPoolExecutor|\bthreading\b|\bmultiprocessing\b")


def _lines(sources, exempt):
    for name, text in sources:
        if name != exempt:
            for number, line in enumerate(text.splitlines(), 1):
                yield f"{name}:{number}: {line}", line


def spectral_norm_rule(sources):
    """Spectral norms go through linalg._spectral_norms, eigendecompositions (under
    their power-of-two scale rule) and QR or Cholesky factors stay in linalg.py."""
    return [where for where, line in _lines(sources, "linalg.py") if SPECTRAL.search(line)]


def seeded_stream_rule(sources):
    """Every draw comes from linalg.generator, so one seed fixes every stream: outside
    linalg.py nothing but the np.random.Generator annotation names np.random or random."""
    return [where for where, line in _lines(sources, "linalg.py")
            if RANDOM.search(line) and RANDOM.search(GENERATOR_TYPE.sub("", line))]


def output_writer_rule(sources):
    """Every file is written by linalg._write_texts, and cli.main is a run's one commit
    point: cli.py calls _write_texts once and sys.stdout.write once."""
    found = [where for where, line in _lines(sources, "linalg.py") if WRITER.search(line)]
    for name, text in sources:
        if name == "cli.py":
            counts = text.count("_write_texts("), text.count("sys.stdout.write(")
            if counts != (1, 1):
                found.append("cli.py calls _write_texts %d times and sys.stdout.write %d times"
                             % counts)
    return found


def shape_matrix_rule(sources):
    """build_shape is the tests' dense reference (tests/dense.py); the package applies B
    with apply_shape, in every file."""
    return [where for where, line in _lines(sources, None) if SHAPE_MATRIX.search(line)]


def _imports_outside_functions(tree):
    """The import statements that run when the module is imported."""
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nodes.extend(ast.iter_child_nodes(node))


def one_thread_pool_rule(sources):
    """verify._run_blocks is the package's one thread pool: outside verify.py nothing
    names concurrent.futures, ThreadPoolExecutor, threading or multiprocessing, and
    verify.py imports concurrent.futures only inside a function, so a process that
    never pools does not load it."""
    found = [where for where, line in _lines(sources, "verify.py") if THREADS.search(line)]
    for name, text in sources:
        if name == "verify.py":
            lines = text.splitlines()
            for node in _imports_outside_functions(ast.parse(text, name)):
                modules = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                           else [alias.name for alias in node.names])
                if any(m.partition(".")[0] == "concurrent" for m in modules):
                    found.append(f"{name}:{node.lineno}: {lines[node.lineno - 1]}")
    return found


def unused_import_rule(sources):
    """Every name a module imports is used: referenced as a name, or exported through its
    __all__.  __init__.py is exempt, since its imports are the package's exports."""
    found = []
    for name, text in sources:
        if name == "__init__.py":
            continue
        tree = ast.parse(text, name)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used.update(elt.value for elt in node.value.elts)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in used:
                        found.append(f"{name}:{node.lineno}: {bound}")
    return found


def python_310_grammar_rule(sources):
    """Every file parses under the Python 3.10 grammar, the oldest the project supports.

    A grammar check only: it does not run the file, so a library call that 3.10
    lacks passes it.
    """
    found = []
    for name, text in sources:
        try:
            ast.parse(text, name, feature_version=(3, 10))
        except SyntaxError as exc:
            found.append(f"{name}:{exc.lineno}: {exc.msg}")
    return found


@pytest.mark.parametrize("rule", [spectral_norm_rule, seeded_stream_rule, output_writer_rule,
                                  shape_matrix_rule, one_thread_pool_rule, unused_import_rule])
def test_the_package_keeps_the_rule(rule):
    assert {"cli.py", "linalg.py", "model.py", "verify.py"} <= {name for name, _ in SOURCES}
    assert rule(SOURCES) == []


@pytest.mark.parametrize("rule,line", [
    (spectral_norm_rule, "    return np.linalg.norm(a - b, ord=2)"),
    (spectral_norm_rule, "values = np.linalg.eigvalsh(w)"),
    (spectral_norm_rule, "q, r = np.linalg.qr(m)"),
    (seeded_stream_rule, "z = np.random.default_rng(seed).standard_normal(k)"),
    (seeded_stream_rule, "import random"),
    (seeded_stream_rule, "def draw(rng: np.random.Generator) -> np.random.RandomState:"),
    (output_writer_rule, '    with open(path, "w", encoding="utf-8") as fh:'),
    (output_writer_rule, "fd = os.open(path, os.O_WRONLY)"),
    (output_writer_rule, "path.write_text(text)"),
    (shape_matrix_rule, "dense = build_shape(spec, n)"),
], ids=["norm-ord-2", "eigvalsh", "qr", "np-random", "import-random", "random-state",
        "open-w", "os-open-wronly", "write-text", "build-shape"])
def test_a_violating_line_is_reported(rule, line):
    # The build_shape rule has no exemption, the others exempt linalg.py, and no
    # rule reports the np.random.Generator annotation.
    sources = [("verify.py", f"x = 1\n{line}\n"), ("linalg.py", line), ("model.py", line),
               ("netcert.py", "def f(rng: np.random.Generator) -> None:\n")]
    exempt = [] if rule is shape_matrix_rule else ["linalg.py"]
    assert rule(sources) == [f"{name}:{2 if name == 'verify.py' else 1}: {line}"
                             for name in ("verify.py", "linalg.py", "model.py")
                             if name not in exempt]


@pytest.mark.parametrize("line", [
    "from concurrent.futures import ThreadPoolExecutor",
    "import concurrent.futures",
    "    with ThreadPoolExecutor(max_workers=4) as ex:",
    "import threading",
    "lock = threading.Lock()",
    "from multiprocessing import Pool",
    "import multiprocessing as mp",
], ids=["from-futures", "import-futures", "executor", "threading", "lock", "from-multiprocessing",
        "multiprocessing"])
def test_a_thread_pool_outside_verify_is_reported(line):
    # verify.py alone may hold a pool, importing it inside a function; a word that
    # merely contains a name does not count.
    pool = ("def run(blocks):\n    from concurrent.futures import ThreadPoolExecutor\n"
            "    import concurrent.futures\n"
            "    with ThreadPoolExecutor(max_workers=4) as ex:\n        return ex\n")
    sources = [("verify.py", pool), ("cli.py", f"x = 1\n{line}\n"),
               ("linalg.py", "# safe from concurrent workers; multithreading_ok = 1\n")]
    assert one_thread_pool_rule(sources) == [f"cli.py:2: {line}"]


@pytest.mark.parametrize("text,number", [
    ("from concurrent.futures import ThreadPoolExecutor\n", 1),
    ("import os, concurrent.futures as cf\n", 1),
    ("class Pool:\n    from concurrent import futures\n", 2),
    ("try:\n    import concurrent.futures\nexcept ImportError:\n    pass\n", 2),
], ids=["from-futures", "import-futures", "class-body", "try"])
def test_a_module_level_pool_import_in_verify_is_reported(text, number):
    # Any import that runs when verify.py is imported counts, wherever it sits;
    # the one inside a function does not.
    text += "\ndef run():\n    from concurrent.futures import ThreadPoolExecutor\n"
    assert one_thread_pool_rule([("verify.py", text)]) == [
        f"verify.py:{number}: {text.splitlines()[number - 1]}"]


@pytest.mark.parametrize("writes,prints", [(2, 1), (1, 0)])
def test_cli_has_one_commit_point(writes, prints):
    text = "_write_texts(a)\n" * writes + "sys.stdout.write(b)\n" * prints
    assert output_writer_rule([("cli.py", text)]) == [
        f"cli.py calls _write_texts {writes} times and sys.stdout.write {prints} times"]


def test_an_unused_import_is_reported():
    text = ("from __future__ import annotations\n"
            "import itertools\nimport math\nimport numpy as np\n"
            "from .errors import DimensionError, WishartError\n"
            "from .linalg import as_matrix\n"
            "__all__ = ['as_matrix']\n"
            "x = np.zeros(math.isqrt(4))\nraise DimensionError(x)\n")
    # as_matrix is used only through __all__, and __init__.py imports to export.
    assert unused_import_rule([("netcert.py", text), ("__init__.py", "import itertools\n")]) == [
        "netcert.py:2: itertools", "netcert.py:5: WishartError"]


def test_the_project_keeps_the_310_grammar():
    names = {name for name, _ in PROJECT_SOURCES}
    assert {"src/cwishart/cli.py", "tests/test_source_rules.py", "bench/run.py"} <= names
    assert python_310_grammar_rule(PROJECT_SOURCES) == []


@pytest.mark.parametrize("text,reported", [
    ("try:\n    pass\nexcept* ValueError:\n    pass\n", True),
    ("type X = int\n", True),
    ("match x:\n    case [1, *rest]:\n        pass\n", False),
], ids=["except-star", "type-alias", "match"])
def test_newer_grammar_is_reported(text, reported):
    # except* is 3.11 grammar and the type statement 3.12; match is 3.10's own.
    found = python_310_grammar_rule([("ok.py", "x = 1\n"), ("new.py", text)])
    assert len(found) == reported and all(line.startswith("new.py:") for line in found)
