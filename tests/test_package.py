import ast
import importlib
import inspect
import pathlib
import pkgutil
import re
import sys

import sfheat


def test_every_export_resolves():
    missing = [name for name in sfheat.__all__ if not hasattr(sfheat, name)]
    assert not missing, missing


def test_exports_unique():
    assert len(sfheat.__all__) == len(set(sfheat.__all__))


def test_exports_are_the_imported_names():
    # a name deleted from its module can no longer be imported here, so with
    # this equality it cannot stay exported either
    imported = {name for name, value in vars(sfheat).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(sfheat.__all__) == imported


_README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
# a backticked call such as `chaos_term(n, alpha, d, t, seed=0)` or
# `RngStream.generator(reuse)`; `.sample(rng)` names no callable and is skipped
_SIGNATURE = re.compile(r"`([A-Za-z_][\w.]*)\(([^`]*)\)`")


def _resolve(dotted):
    """The sfheat callable a README name denotes: a name exported by the
    package or defined in one of its modules, then attributes down the dots."""
    head, *rest = dotted.split(".")
    modules = [sfheat] + [importlib.import_module(f"sfheat.{m.name}")
                          for m in pkgutil.iter_modules(sfheat.__path__)]
    owner = next((vars(m)[head] for m in modules if head in vars(m)), None)
    assert owner is not None, f"{dotted} names nothing in sfheat"
    for attr in rest:
        owner = getattr(owner, attr)
    return owner


def _parameter_names(obj, dotted):
    names = list(inspect.signature(obj).parameters)
    if "." in dotted and names[:1] == ["self"]:
        names = names[1:]  # Class.method is written without self
    return names


def test_readme_signatures_match_the_code():
    # parameter names in order; defaults and ... are not compared
    found = _SIGNATURE.findall(_README.read_text())
    assert len(found) >= 15
    for dotted, args in found:
        written = [a.split("=")[0].strip() for a in args.split(",")
                   if a.strip() not in ("", "...")]
        assert _parameter_names(_resolve(dotted), dotted) == written, dotted


# a backticked dotted name such as `fk._WORKERS` or `sfheat.paths`
_DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.\w+)+)`")


def test_readme_module_names_resolve():
    # `module.name` and `sfheat.module` must name what the module defines;
    # class attributes such as `ModelParams.t_horizon` are not read here
    modules = {m.name for m in pkgutil.iter_modules(sfheat.__path__)}
    found = [name.removeprefix("sfheat.") for name in _DOTTED.findall(_README.read_text())
             if name.split(".")[0] in modules | {"sfheat"}]
    assert len(found) >= 20
    for dotted in found:
        head, *rest = dotted.split(".")
        owner = importlib.import_module(f"sfheat.{head}")
        for attr in rest:
            assert hasattr(owner, attr), dotted
            owner = getattr(owner, attr)


def _is_infinity(node):
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return (isinstance(node, ast.Attribute) and node.attr == "inf"
            and isinstance(node.value, ast.Name) and node.value.id in ("math", "np"))


def test_only_params_compares_against_infinity():
    # a positive-finite test is params._require_positive; a hand copy elsewhere
    # drifts from it (what it lets through, what it raises)
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(pathlib.Path(sfheat.__file__).parent.glob("*.py"))
             if path.name != "params.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Compare)
             and any(map(_is_infinity, [node.left, *node.comparators]))]
    assert not found, found


def test_only_fk_starts_threads():
    # one pool runs every ensemble (fk._sample_values); a second thread source
    # elsewhere would escape its worker count, error-state and failure rules
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(pathlib.Path(sfheat.__file__).parent.glob("*.py"))
             if path.name != "fk.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and (node.func.attr if isinstance(node.func, ast.Attribute)
                  else getattr(node.func, "id", None)) in ("ThreadPoolExecutor", "Thread")]
    assert not found, found


def _imports_scipy_special(node):
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[:2] == ["scipy", "special"] for a in node.names)
    if isinstance(node, ast.ImportFrom) and node.module:
        return (node.module.split(".")[:2] == ["scipy", "special"]
                or node.module == "scipy" and any(a.name == "special" for a in node.names))
    return False


def test_only_the_numeric_stable_kernel_imports_scipy_special():
    # scipy.special adds about 22 MB and 0.2 s to a process; the moment path
    # evaluates erfc itself (exponents._erfc), and only the numeric inversion
    # of the stable kernel needs scipy's Bessel functions
    found = []
    for path in sorted(pathlib.Path(sfheat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if _imports_scipy_special(node):
                scope = parents.get(node)
                while scope is not None and not isinstance(scope, (ast.FunctionDef,
                                                                   ast.AsyncFunctionDef)):
                    scope = parents.get(scope)
                found.append(f"{path.stem}.{scope.name if scope else '<module>'}")
    assert found == ["kernels._stable_kernel_numeric"], found


_PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_hooks_resolve(monkeypatch):
    # the benchmark's tracer replaces names through owner.__dict__ and its
    # scaling sweep imports names by hand: a rename must fail here, not only
    # in a traced benchmark run
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in spans._PATCHES
               if attr not in vars(owner)]
    assert not missing, missing
    originals = [vars(owner)[attr] for owner, attr, _, _ in spans._PATCHES]
    with spans.installed(spans.Tracer()):
        assert all(vars(owner)[attr] is not original for (owner, attr, _, _), original
                   in zip(spans._PATCHES, originals))
    assert all(vars(owner)[attr] is original for (owner, attr, _, _), original
               in zip(spans._PATCHES, originals))

    sweep = next(node for node in ast.walk(ast.parse((_PERFBENCH / "worker.py").read_text()))
                 if isinstance(node, ast.FunctionDef) and node.name == "scaling_sweep")
    for node in ast.walk(sweep):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("sfheat"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
    assert list(inspect.signature(sfheat.exponents.cross_exponent_values).parameters) == [
        "times", "pos_a", "pos_b", "d"]
