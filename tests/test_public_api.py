"""Every public name and every defaulted parameter has a caller or a gate.

A name that `gcalc/__init__.py` exports must be referenced by the code of
a package module other than `__init__.py` or by the acceptance gate, or sit
in KEEP with the reason it stays. References are read from the syntax trees:
a definition is not a reference, and a name that appears only in a
docstring or a comment does not count.

A parameter with a default value, of any function or method defined at the
top level of a package module, must be set by some call in the package, the
acceptance gate or the benchmark (by keyword, by position, or through
`**kwargs`), or sit in KEEP_PARAMS with the reason it stays. A parameter
that only its default ever reaches is a constant. Calls are matched to
definitions by name, so a call sets the parameter of every definition of
that name. A package function that passes its own defaulted parameter on
sets the callee's parameter only when its own one is set.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gcalc"
GATE = ROOT / "tests" / "test_acceptance.py"
BENCH = ROOT / "perfbench"

KEEP = {
    "weighted_norm": "perfbench/child.py wraps it by name (ROADMAP item 1)",
}

KEEP_PARAMS = {
    "apriori_check.solutions": "test seam: substitute the two solutions",
    "lemma31_bounds.t": "start of the lemma's window",
    "lemma31_bounds.s": "end of the lemma's window",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _modules() -> list:
    return [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]


def _exports() -> set:
    """The names of the export table `_EXPORTS` ({module: names}) in
    `gcalc/__init__.py`, which loads each name lazily."""
    for node in _tree(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "_EXPORTS" for target in node.targets):
            return {name for names in ast.literal_eval(node.value).values()
                    for name in names}
    raise AssertionError("gcalc/__init__.py has no _EXPORTS table")


def _referenced(path: Path) -> set:
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_export_has_a_caller_a_gate_or_a_reason():
    exports = _exports()
    assert len(exports) == 52          # every public name, none lost to the reader
    assert set(KEEP) <= exports
    used = _referenced(GATE).union(*(_referenced(path) for path in _modules()))
    assert sorted(exports - used - set(KEEP)) == []


def _functions(path: Path):
    """(definition name, function node, is_method) of every top-level
    function and method; a class's __init__ goes by the class name."""
    for node in _tree(path).body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, ast.FunctionDef):
                    yield node.name if f.name == "__init__" else f.name, f, True


def _defaulted(func: ast.FunctionDef, is_method: bool) -> dict:
    """Defaulted parameter -> its positional index after self (None when
    keyword-only)."""
    args = func.args
    positional = args.posonlyargs + args.args
    if is_method and "staticmethod" not in {getattr(d, "id", None)
                                            for d in func.decorator_list}:
        positional = positional[1:]
    out = {a.arg: i for i, a in enumerate(positional)
           if i >= len(positional) - len(args.defaults)}
    out.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None})
    return out


def _calls(scope, own: dict):
    """(callee name, arguments) of every call under scope. An argument is
    (keyword, position or '*', the `own` parameter it forwards or None)."""
    for node in ast.walk(scope):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue

        def source(value):
            return own.get(value.id) if isinstance(value, ast.Name) else None

        args = [("*" if isinstance(a, ast.Starred) else i, source(a))
                for i, a in enumerate(node.args)]
        args += [(k.arg or "*", source(k.value)) for k in node.keywords]
        yield name, args


def test_every_defaulted_parameter_has_a_caller_or_a_reason():
    params = {}                       # name -> {defaulted parameter: position}
    edges = []                        # (callee name, argument, source)
    for path in _modules():
        for name, func, is_method in _functions(path):
            own = _defaulted(func, is_method)
            params.setdefault(name, {}).update(own)
            forwards = {p: f"{name}.{p}" for p in own}
            edges += [(callee, arg, src) for callee, args in _calls(func, forwards)
                      for arg, src in args]
    for path in [GATE] + sorted(BENCH.glob("*.py")):
        edges += [(callee, arg, None) for callee, args in _calls(_tree(path), {})
                  for arg, _ in args]
    defined = {f"{name}.{p}" for name, own in params.items() for p in own}
    assert set(KEEP_PARAMS) <= defined, set(KEEP_PARAMS) - defined

    def targets(callee, arg):
        own = params.get(callee, {})
        return {f"{callee}.{p}" for p, i in own.items()
                if arg in ("*", p) or (isinstance(arg, int) and arg == i)}

    # a forwarded argument sets the callee's parameter only once the
    # forwarding function's own parameter is set
    is_set, grew = set(), True
    while grew:
        before = len(is_set)
        for callee, arg, src in edges:
            if src is None or src in is_set:
                is_set |= targets(callee, arg)
        grew = len(is_set) > before
    unset = sorted(defined - is_set - set(KEEP_PARAMS))
    assert unset == [], unset
