"""Design rules of the package, checked on its source.

(a) No module imports another module's private (underscore) names; private
    modules such as ``._pool`` may be imported from, as long as the names
    are public.
(b) The exponent solver has one masked argmin and one shrinking-box loop.
(c) Every Monte Carlo trial calls the module attributes ``sample_codebook``
    and ``exact_error_probs`` once.
(d) Only ``_memo.py`` constructs a ``threading.Lock`` or an ``OrderedDict``:
    every cache goes through its one LRU type.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "softcover"
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
               and isinstance(node.left, ast.Attribute)
               and node.left.attr == "refinement_shrink"]
    assert len(argmins) <= 1, f"np.argmin at lines {[n.lineno for n in argmins]}"
    assert len(shrinks) <= 1, \
        f"refinement_shrink ** at lines {[n.lineno for n in shrinks]}"


def test_monte_carlo_calls_the_module_hooks_once_per_trial(zchannel,
                                                           uniform2,
                                                           monkeypatch):
    # a benchmark can trace each trial by swapping these two module
    # attributes, so every trial must go through both of them
    from softcover import simulate
    calls = {"sample_codebook": 0, "exact_error_probs": 0}

    def counted(name):
        fn = getattr(simulate, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(simulate, name, counted(name))
    trials = 5
    simulate.per_trial_error_probs(8, 0.2, zchannel, uniform2, 0.05, trials,
                                   seed=1)
    assert calls == {"sample_codebook": trials, "exact_error_probs": trials}


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
