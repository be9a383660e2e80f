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

A field or property of a dataclass of a package module, input and result
types alike, must be read as an attribute by a package module, the
acceptance gate or the benchmark, or sit in KEEP_FIELDS with the reason it
stays. A test that bounds the field, or compares it with an independent
reference, is a reason; a test that only reads it back is not. Reads are
matched by attribute name alone, so a field named like an attribute of
another object (ctx.mu, say) counts as read whatever it is read from; such
fields are decided by hand. A constructor keyword is not a read, and
neither is a read in the class's own __post_init__, which only validates or
converts the field.
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

KEEP_FIELDS = {
    "PicardReport.distances_by_beta": "the per-beta Picard traces, which ROADMAP item 6 "
                                      "puts in summary.json; test_solver checks each "
                                      "against a per-beta recomputation",
    "ResidualReport.terminal_gap": "test_solver bounds it (field against payoff at the "
                                   "final layer)",
    "ResidualReport.off_policy_max_residual": "test_solver bounds it (the supersolution "
                                              "check under random controls)",
    "ResidualReport.off_policy_min_margin": "test_solver bounds it (the supersolution "
                                            "check under random controls)",
    "CompensatorReport.estimates": "test_solver compares every control with the "
                                   "per-control reference",
    "CompensatorReport.standard_errors": "test_solver compares every control with the "
                                         "per-control reference",
    "QvBoundsReport.integral": "test_calculus bounds it by the sandwich and checks a "
                               "closed form",
    "QvBoundsReport.abs_bound": "test_calculus checks it against K times the summed "
                                "Frobenius norms",
    "PathBundle.positions": "simulate_path's states; test_calculus bounds their "
                            "increments and test_scenario compares them bit for bit "
                            "with the walk",
    "PathBundle.control": "simulate_path's applied covariances; test_scenario compares "
                          "them bit for bit with the walk",
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
    assert len(exports) == 51          # every public name, none lost to the reader
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


def _dataclass_fields() -> set:
    """"Class.name" of every field and property of the package's dataclasses."""
    out = set()
    for path in _modules():
        for node in _tree(path).body:
            if not (isinstance(node, ast.ClassDef)
                    and any("dataclass" in ast.unparse(d) for d in node.decorator_list)):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign):
                    out.add(f"{node.name}.{item.target.id}")
                elif isinstance(item, ast.FunctionDef) and "property" in {
                        getattr(d, "id", None) for d in item.decorator_list}:
                    out.add(f"{node.name}.{item.name}")
    return out


def _attribute_reads(path: Path) -> set:
    """(attribute, class) of every attribute read; class names the class
    whose __post_init__ holds the read, or is None elsewhere."""
    tree = _tree(path)
    owner = {id(node): cls.name for cls in tree.body if isinstance(cls, ast.ClassDef)
             for f in cls.body if getattr(f, "name", None) == "__post_init__"
             for node in ast.walk(f)}
    return {(node.attr, owner.get(id(node))) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_has_a_reader_or_a_reason():
    fields = _dataclass_fields()
    assert len(fields) == 122         # every field, none lost to the reader
    assert set(KEEP_FIELDS) <= fields, set(KEEP_FIELDS) - fields
    readers = _modules() + [GATE] + sorted(BENCH.glob("*.py"))
    reads = set().union(*(_attribute_reads(path) for path in readers))
    unread = sorted(f for f in fields - set(KEEP_FIELDS)
                    if not any(attr == f.split(".")[1] and cls != f.split(".")[0]
                               for attr, cls in reads))
    assert unread == [], unread
