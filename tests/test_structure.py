"""Design rules of the package, checked on its source.

(a) No module imports another module's private (underscore) names; private
    modules such as ``._pool`` may be imported from, as long as the names
    are public.
(b) The exponent solver has one masked argmin and one shrinking-box loop.
(c) Every group of Monte Carlo trials calls the module attributes
    ``sample_codebooks`` and ``group_error_probs`` once.
(d) Only ``_memo.py`` constructs a ``threading.Lock`` or an ``OrderedDict``:
    every cache goes through its one LRU type.
(e) Every third-party package that the tests or the benchmark import is
    declared in ``pyproject.toml``.
"""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "softcover"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_from_sibling_modules(path):
    offenders = []
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        sibling = node.level > 0 or node.module.split(".")[0] == "softcover"
        if sibling:
            offenders += [f"{node.module}.{alias.name} (line {node.lineno})"
                          for alias in node.names
                          if alias.name.startswith("_")]
    assert not offenders, f"{path.name} imports private names: {offenders}"


def test_exponents_has_one_scan_and_one_polish_loop():
    tree = _tree(PACKAGE / "exponents.py")
    argmins = [node for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "argmin"
               and isinstance(node.func.value, ast.Name)
               and node.func.value.id == "np"]
    shrinks = [node for node in ast.walk(tree)
               if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
               and isinstance(node.left, ast.Name)
               and node.left.id == "_POLISH_SHRINK"]
    assert len(argmins) <= 1, f"np.argmin at lines {[n.lineno for n in argmins]}"
    # exactly one: a rule that counts nothing would pass on any loop
    assert len(shrinks) == 1, \
        f"_POLISH_SHRINK ** at lines {[n.lineno for n in shrinks]}"


def test_monte_carlo_calls_the_module_hooks_once_per_group(zchannel,
                                                           uniform2,
                                                           monkeypatch):
    # a benchmark can trace each group of trials by swapping these two
    # module attributes, so every group must go through both of them, and
    # the groups must cover the trials in order
    from softcover import simulate
    drawn, summed = [], []
    sample, group = simulate.sample_codebooks, simulate.group_error_probs

    def sample_wrapper(*args):
        drawn.append(args[-1])
        return sample(*args)

    def group_wrapper(books, *args):
        summed.append(len(books))
        return group(books, *args)

    monkeypatch.setattr(simulate, "sample_codebooks", sample_wrapper)
    monkeypatch.setattr(simulate, "group_error_probs", group_wrapper)
    # one trial at n = 8, R = 0.2 touches 5 codewords x 16 reachable
    # outputs x 8 positions + 256 outputs; the budget holds two trials
    monkeypatch.setattr(simulate, "_GROUP_ELEMENTS", 2 * (5 * 16 * 8 + 256))
    pairs = simulate.per_trial_error_probs(8, 0.2, zchannel, uniform2, 0.05,
                                           5, seed=1)
    assert drawn == [range(0, 2), range(2, 4), range(4, 5)]
    assert summed == [2, 2, 1]
    assert len(pairs) == 5


def test_only_the_memo_module_builds_locks_and_ordered_dicts():
    offenders = []
    for path in MODULES:
        if path.name == "_memo.py":
            continue
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.Call):
                continue
            # threading.Lock() and Lock() alike
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("Lock", "RLock", "OrderedDict"):
                offenders.append(f"{path.name}:{node.lineno} {name}()")
    assert not offenders, f"locks or LRU maps outside _memo.py: {offenders}"


def test_third_party_imports_of_tests_and_benchmark_are_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + [
        req for extra in project["optional-dependencies"].values()
        for req in extra]
    declared = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
                for req in requirements}
    offenders = []
    for folder in ("tests", "perfbench"):
        paths = sorted((ROOT / folder).glob("*.py"))
        # the folder's own modules import each other by their bare names
        local = {path.stem for path in paths} | {"softcover"}
        for path in paths:
            for node in ast.walk(_tree(path)):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                offenders += [
                    f"{folder}/{path.name}:{node.lineno} {top}"
                    for top in (name.split(".")[0] for name in names)
                    if top not in sys.stdlib_module_names | local | declared]
    assert not offenders, f"undeclared third-party imports: {offenders}"
