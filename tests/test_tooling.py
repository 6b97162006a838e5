"""Checks on the source tree itself."""

import ast
import contextlib
import importlib.util
import inspect
import io
import os
import sys
import tokenize
from collections import Counter

import gradedroots
from gradedroots import cli

SRC = os.path.dirname(gradedroots.__file__)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_no_assert_statements_in_package():
    """`python -O` strips assert statements, so every runtime check in the
    package raises a named error instead (InvariantViolated or one of its
    subclasses)."""
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as f:
                tree = ast.parse(f.read(), filename=name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_oracle_is_integer_only():
    """The oracle is the independent check of the engine, so its arithmetic
    stays exact integers: no module of it imports fractions, and its only
    square root is math.isqrt."""
    found = []
    for name in ("oracle.py", "_kernels.py"):
        with open(os.path.join(SRC, name)) as f:
            tree = ast.parse(f.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                mods = []
            found += [f"{name}:{node.lineno} imports {m}" for m in mods
                      if m.split(".")[0] == "fractions"]
            if isinstance(node, ast.Attribute) and "sqrt" in node.attr:
                if not (node.attr == "isqrt" and isinstance(node.value, ast.Name)
                        and node.value.id == "math"):
                    found.append(f"{name}:{node.lineno} uses {node.attr}")
            elif isinstance(node, (ast.Name, ast.alias)):
                ident = node.id if isinstance(node, ast.Name) else (node.asname or node.name)
                if "sqrt" in ident:
                    found.append(f"{name}:{node.lineno} uses {ident}")
    assert not found, f"non-integer arithmetic in the oracle: {found}"


def _parse(name):
    with open(os.path.join(SRC, name)) as f:
        return ast.parse(f.read(), filename=name)


def test_no_module_imports_series():
    """The Laurent-series arithmetic is a test reference only; the package
    computes the torsion limit in closed form."""
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        for node in ast.walk(_parse(name)):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            found += [f"{name}:{node.lineno} imports {m}" for m in mods
                      if "series" in m.split(".")]
    assert not found, f"series imported by the package: {found}"


def test_runtime_imports_are_stdlib_or_numpy():
    """numpy is the package's only runtime dependency: every other module it
    imports is part of the standard library or of the package itself."""
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        for node in ast.walk(_parse(name)):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                mods = [node.module]
            else:
                continue
            found += [f"{name}:{node.lineno} imports {m}" for m in mods
                      if m.split(".")[0] not in sys.stdlib_module_names | {"numpy", "gradedroots"}]
    assert not found, f"imports outside the standard library and numpy: {found}"


def test_one_json_writer():
    """Indented JSON leaves the package through cli._json_text alone: with
    ``indent`` set, json.dump and json.dumps run the stdlib's pure-Python
    encoder, so no call of either in src/ passes that keyword."""
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        for node in ast.walk(_parse(name)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if called in ("dump", "dumps") and any(kw.arg == "indent" for kw in node.keywords):
                found.append(f"{name}:{node.lineno} calls {called} with indent")
    assert not found, f"indented JSON outside cli._json_text: {found}"


def test_no_coverage_pragmas():
    """No line of src/ opts out of coverage: a branch that only another
    platform takes is reached by a test that patches the platform check,
    as test_seifert::test_numeric_limit_double_fallback patches
    seifert._float_dtype."""
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as f:
                found += [f"{name}:{tok.start[0]}" for tok in tokenize.generate_tokens(f.readline)
                          if tok.type == tokenize.COMMENT and "pragma" in tok.string]
    assert not found, f"pragma comments in the package: {found}"


def _unproved_casts(sources, is_cast, bounds):
    """The nodes of ``sources`` (file name -> source text) for which
    ``is_cast`` holds and whose innermost enclosing function has no
    docstring stating one of ``bounds``, as "file:line in function"
    ("<module>" outside any function)."""
    found = []

    def visit(module, node, where, proved):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(child) or ""
                visit(module, child, child.name, any(b in doc for b in bounds))
            else:
                if is_cast(child) and not proved:
                    found.append(f"{module}:{child.lineno} in {where}")
                visit(module, child, where, proved)

    for module, text in sources.items():
        visit(module, ast.parse(text, filename=module), "<module>", False)
    return found


def _unproved_int32_casts(sources):
    """The uses of ``<module>.int32`` in ``sources`` outside a function
    whose docstring states "2^31".  numpy wraps int32 silently, so each
    such function states why its values stay below 2^31."""
    return _unproved_casts(sources, lambda node: isinstance(node, ast.Attribute)
                           and node.attr == "int32", ("2^31",))


def _is_int64_cast(node):
    """A use of ``<module>.int64``, or an ``.astype(dtype)`` call to an
    integer dtype: any dtype but a float type, an int32 (which the int32
    scan covers), an int64 (flagged as itself) or a call of _int_dtype,
    whose own docstring states its 2^62 bound."""
    if isinstance(node, ast.Attribute):
        return node.attr == "int64"
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype" and node.args):
        return False
    dtype = node.args[0]
    if isinstance(dtype, ast.Call):
        dtype = dtype.func
    name = getattr(dtype, "attr", getattr(dtype, "id", ""))
    return not (name.startswith(("float", "longdouble")) or name in ("int32", "int64", "_int_dtype"))


def _unproved_int64_casts(sources):
    """The int64 casts of ``sources`` (see _is_int64_cast) outside a
    function whose docstring states "2^62" or "2^63".  numpy wraps int64
    arithmetic silently, so each such function states why its values stay
    below the bound."""
    return _unproved_casts(sources, _is_int64_cast, ("2^62", "2^63"))


def test_int32_casts_state_their_bound():
    """Every np.int32 of the package sits in a function whose docstring
    states its 2^31 bound; see _unproved_int32_casts."""
    sources = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as f:
                sources[name] = f.read()
    assert "np.int32" in sources["oracle.py"] and "np.int32" in sources["roots.py"]
    found = _unproved_int32_casts(sources)
    assert not found, f"int32 casts without a stated 2^31 bound: {found}"


INT32 = """
import numpy as np

IDS = np.arange(4, dtype=np.int32)


def proved(n):
    '''Ids below n < 2^31, checked by the caller.'''
    def inner():
        return np.zeros(n, dtype=np.int32)
    return np.arange(n, dtype=np.int32), inner


def unproved(x):
    '''Narrows x.'''
    return x.astype(np.int32)


def silent(x):
    return x.astype(np.int64).astype(np.int32)
"""


def test_int32_scan_finds_unproved_casts():
    """The scan flags an int32 at module level, in a function whose
    docstring states no 2^31 bound, in one without a docstring and in a
    nested function (which does not inherit its parent's docstring); it
    passes the proved function's own cast and ignores int64."""
    found = _unproved_int32_casts({"ids.py": INT32})
    assert [f.split(" in ")[1] for f in found] == ["<module>", "inner", "unproved", "silent"]
    assert all(f.startswith("ids.py:") for f in found)


def test_int64_casts_state_their_bound():
    """Every np.int64 and integer .astype of the package sits in a function
    whose docstring states its 2^62 or 2^63 bound; see
    _unproved_int64_casts."""
    sources = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as f:
                sources[name] = f.read()
    assert "np.int64" in sources["oracle.py"] and ".astype(dtype)" in sources["oracle.py"]
    found = _unproved_int64_casts(sources)
    assert not found, f"int64 casts without a stated 2^62 or 2^63 bound: {found}"


INT64 = """
import numpy as np

from .spinc import _int_dtype

STEPS = np.arange(4, dtype=np.int64)


def proved(x, n):
    '''Values below 2^62, checked by the caller.'''
    def inner(y):
        return y.astype(np.uint16)
    return x.astype(np.int64), np.zeros(n, dtype=np.int64), inner


def wide(x):
    '''Sums of two stay below 2^63.'''
    return x.astype(np.min_scalar_type(int(x.max())))


def unproved(x, dtype):
    '''Widens x.'''
    return x.astype(dtype)


def silent(x, b):
    return x.astype(int), x.astype(np.int32), x.astype(float), x.astype(_int_dtype(b))
"""


def test_int64_scan_finds_unproved_casts():
    """The scan flags an int64 at module level, an unsigned .astype in a
    nested function (which does not inherit its parent's docstring), an
    .astype to a dtype variable under a docstring without a bound and one
    to the builtin int in a function without a docstring; it passes casts
    under a 2^62 or 2^63 docstring, a float cast, an int32 cast (the int32
    scan's) and a dtype of _int_dtype."""
    found = _unproved_int64_casts({"wide.py": INT64})
    assert [f.split(" in ")[1] for f in found] == ["<module>", "inner", "unproved", "silent"]
    assert all(f.startswith("wide.py:") for f in found)


def test_torsion_limit_loops_are_integer():
    """seifert_torsion_limit sums over the legs and their residues on
    integers: no Fraction(...) call inside a loop or a comprehension."""
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
             ast.DictComp, ast.GeneratorExp)
    (fn,) = [node for node in ast.walk(_parse("seifert.py"))
             if isinstance(node, ast.FunctionDef) and node.name == "seifert_torsion_limit"]
    found = {f"seifert.py:{node.lineno}"
             for loop in ast.walk(fn) if isinstance(loop, loops)
             for node in ast.walk(loop)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "Fraction"}
    assert not found, f"Fraction calls inside the loops of seifert_torsion_limit: {sorted(found)}"


def _reached(roots):
    """The module-level functions and classes of lens.py, cli.py and
    roots.py that the ``roots`` (module, name) reach: by name within their
    module, through a ``from .module import name`` of one of the three, and
    as ``lens_mod.<name>`` from cli.py."""
    defs, imported = {}, {}
    for module in ("lens.py", "cli.py", "roots.py"):
        for node in _parse(module).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[module, node.name] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                imported.update({(module, alias.name): f"{node.module}.py"
                                 for alias in node.names})
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        key = (imported[key], key[1]) if key in imported else key
        if key in seen or key not in defs:
            continue
        seen.add(key)
        for sub in ast.walk(defs[key]):
            if isinstance(sub, ast.Name):
                todo.append((key[0], sub.id))
            elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                  and sub.value.id == "lens_mod"):
                todo.append(("lens.py", sub.attr))
    return {key: defs[key] for key in seen}


def test_lens_array_programs_are_integer():
    """The lens sweep, the lens table and its renderer run on integers: no
    Fraction(...) and no dedekind_sum(...) call in verify_lens_sweep,
    lens_table, cli.cmd_lens or any function or class of lens.py they reach
    (their helpers and LensSpace), or in the functions of cli.py and
    roots.py that cmd_lens reaches (the ratio formatter)."""
    reached = _reached([("lens.py", "verify_lens_sweep"), ("lens.py", "lens_table"),
                        ("cli.py", "cmd_lens")])
    assert {"_sweep_failures", "_chain_failures", "_e_failures", "_e_digits", "_n_tables",
            "_tables", "_fourier", "dedekind_numerator", "LensSpace",
            "_fmt_ratios"} <= {n for _, n in reached}
    found = [f"{module}:{sub.lineno} in {name}" for (module, name), node in reached.items()
             for sub in ast.walk(node) if isinstance(sub, ast.Call)
             and (sub.func.id if isinstance(sub.func, ast.Name) else getattr(sub.func, "attr", None))
             in ("Fraction", "dedekind_sum")]
    assert not found, f"Fraction or dedekind_sum calls in the lens array programs: {found}"


# Module-level names that nothing in the package calls: the library entry
# points offered to callers outside it.
LIBRARY_API = ("blow_up", "blow_down", "brieskorn", "fundamental_cycle", "x_sequence",
               "ray_root", "root_from_minima", "rank_red_from_tau", "shift_root", "m_k",
               "distinguished_rep", "dedekind_sum", "lens_invariants", "module_of_root")


def _names(node):
    """Every identifier that ``node`` reads as a name or an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_definition_has_a_caller():
    """Every module-level function and class of the package is referenced in
    the package's code, outside its own definition and __init__.py, unless
    it is listed in LIBRARY_API.  Code that only tests call belongs in
    tests/ (slow_reference.py, series_reference.py)."""
    defined = []            # (name, "module:line")
    refs, own = Counter(), Counter()
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        tree = _parse(name)
        refs.update(_names(tree))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, f"{name}:{node.lineno}"))
                own[node.name] += sum(1 for n in _names(node) if n == node.name)
    unused = [f"{where} {ident}" for ident, where in defined
              if refs[ident] == own[ident] and ident not in LIBRARY_API]
    assert not unused, f"definitions that nothing in the package references: {unused}"
    stale = [ident for ident in LIBRARY_API if refs[ident] > own[ident]]
    assert not stale, f"LIBRARY_API names the package itself references: {stale}"


# Class members and dataclass fields that nothing in the package reads: the
# API of exported classes offered to callers outside it, and the arithmetic
# and order operators (see _dead_members).
CLASS_API = {
    "ZUModule": ("pretty",                        # the README example prints it
                 "shifted",                       # README: it replaced roots.shift_module
                 "rank_reduced"),                 # rank_red of a root's module (tests)
    "ARReport": ("module",                        # the README example reads it
                 "sw_osz"),                       # a Fraction view built on read (README)
    "LensInvariants": ("lam", "sw_tcw", "sw_osz"),  # the record lens_invariants returns
    "_Coefficients": ("__add__", "__sub__", "__neg__", "__rmul__"),
    "LatticeVector": ("__le__", "__ge__"),
    "PlumbingGraph": ("dual_from_pairings",       # the dual vector of a k_r (README)
                      "to_json"),                 # a graph file, as graph_from_json reads it
}

# The arithmetic and order operators: no attribute read names them, so a
# use of one cannot be seen by name.
OPERATORS = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__matmul__",
    "__truediv__", "__floordiv__", "__mod__", "__pow__", "__neg__", "__pos__", "__abs__",
    "__lt__", "__le__", "__gt__", "__ge__"))


def _is_dataclass(cls):
    """Whether the class node carries @dataclass, with or without arguments."""
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _attribute_reads(node):
    """The attribute names that ``node`` reads (loads)."""
    return [sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)]


def _dead_members(sources, class_api):
    """The class members and dataclass fields of ``sources`` (file name ->
    source text) that no code in them reads, and the stale entries of
    ``class_api`` (class name -> member names), as (unused, stale) lists.

    - A member is a def in a class body (methods, properties, cached
      properties), apart from dunders.  It is used when its name is read as
      an attribute outside its own definition.
    - A field is an annotated name in the body of a @dataclass.  It is used
      when its name is read as an attribute anywhere.
    - The arithmetic and order operators (OPERATORS) are members too, but
      their uses are not attribute reads, so each must be listed.
    - An entry of ``class_api`` is stale when the class has no such member
      or field, or when the code reads it.

    Matching is by name only: a name that two classes share counts as read
    for both once either is read (``E`` of SeifertSpinc and SpincCoeffs)."""
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    reads = Counter(name for tree in trees.values() for name in _attribute_reads(tree))
    defined = {}            # (class, member) -> ("module:line", used)
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                    if name in OPERATORS:
                        used = False
                    elif name.startswith("__") and name.endswith("__"):
                        continue
                    else:
                        used = reads[name] > _attribute_reads(node).count(name)
                elif (_is_dataclass(cls) and isinstance(node, ast.AnnAssign)
                      and isinstance(node.target, ast.Name)):
                    name = node.target.id
                    used = reads[name] > 0
                else:
                    continue
                defined[cls.name, name] = (f"{module}:{node.lineno}", used)
    listed = {(cls, name) for cls, names in class_api.items() for name in names}
    unused = [f"{where} {cls}.{name}" for (cls, name), (where, used) in defined.items()
              if not used and (cls, name) not in listed]
    stale = [f"{cls}.{name}" for cls, name in sorted(listed)
             if (cls, name) not in defined or defined[cls, name][1]]
    return unused, stale


def test_every_member_has_a_caller():
    """Every method, property and dataclass field of the package is read in
    the package's code (outside __init__.py), unless CLASS_API lists it;
    see _dead_members.  Code that only tests read belongs in tests/.
    Known limit: matching is by name, so a member whose name another class
    shares passes once either is read (``E`` of SeifertSpinc and
    SpincCoeffs)."""
    sources = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(SRC, name)) as f:
                sources[name] = f.read()
    unused, stale = _dead_members(sources, CLASS_API)
    assert not unused, f"members and fields that nothing in the package reads: {unused}"
    assert not stale, f"CLASS_API entries the package defines nowhere or reads itself: {stale}"


SYNTHETIC = """
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class Box:
    width: int
    height: int

    def area(self):
        return self.width * self.width

    def rescale(self, f):
        return self.rescale(f)

    @property
    def perimeter(self):
        return 4 * self.width

    @cached_property
    def diagonal(self):
        return 2 * self.area()

    def __add__(self, other):
        return Box(self.width + other.width, 0)

    def __repr__(self):
        return "Box"


def use(box):
    return box.diagonal
"""


def test_dead_members_finds_unread_members():
    """The scan flags an unread method (read only by itself), an unread
    property, an unread dataclass field and an unlisted operator, and
    reports a CLASS_API entry that the code reads, or that names no member,
    as stale."""
    unused, stale = _dead_members({"box.py": SYNTHETIC}, {})
    assert sorted(u.split()[1] for u in unused) == [
        "Box.__add__", "Box.height", "Box.perimeter", "Box.rescale"]
    assert all(u.startswith("box.py:") for u in unused)
    assert not stale
    unused, stale = _dead_members({"box.py": SYNTHETIC},
                                  {"Box": ("__add__", "area", "height", "missing")})
    assert sorted(u.split()[1] for u in unused) == ["Box.perimeter", "Box.rescale"]
    assert stale == ["Box.area", "Box.missing"]


# Defaulted parameters that no call in the package passes, kept as API for
# callers outside it: function name -> parameter names.
PARAMETER_API = {
    "main": ("argv",),                  # tests and scripts run the CLI in-process
    "root_from_tau": ("truncate_at",),  # a root seen up to a level (README)
}


def _unpassed_parameters(sources, exempt, parameter_api):
    """The defaulted parameters of the functions and methods of ``sources``
    (file name -> source text) that no call in them passes, by position or
    by keyword, and the stale entries of ``parameter_api`` (function name
    -> parameter names), as (unused, stale) lists.  The functions named in
    ``exempt`` are skipped whole.

    - A call reaches a function by the name it calls (``f(...)`` or
      ``x.f(...)``); for a method, positions count from the parameter
      after ``self`` or ``cls``.
    - A call with ``*args`` or ``**kwargs`` passes every parameter.
    - An entry of ``parameter_api`` is stale when the function has no such
      defaulted parameter or a call passes it.

    Matching is by name only, as in :func:`_dead_members`: a parameter
    counts as passed once a call of any function of that name passes it."""
    calls = {}              # called name -> [(positional count, keywords, splat)]
    defined = []            # ("module:line", name, positional names, defaulted names)
    for module, text in sources.items():
        tree = ast.parse(text, filename=module)
        methods = {id(f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                splat = (any(isinstance(a, ast.Starred) for a in node.args)
                         or any(k.arg is None for k in node.keywords))
                calls.setdefault(called, []).append(
                    (len(node.args), {k.arg for k in node.keywords}, splat))
            elif isinstance(node, ast.FunctionDef) and node.name not in exempt:
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaulted = positional[len(positional) - len(args.defaults):] + [
                    a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                if id(node) in methods:
                    positional = positional[1:]
                defined.append((f"{module}:{node.lineno}", node.name, positional, defaulted))
    listed = {(name, param) for name, params in parameter_api.items() for param in params}
    unused, passed, known = [], set(), set()
    for where, name, positional, defaulted in defined:
        for param in defaulted:
            known.add((name, param))
            if any(splat or param in keywords or param in positional[:count]
                   for count, keywords, splat in calls.get(name, ())):
                passed.add((name, param))
            elif (name, param) not in listed:
                unused.append(f"{where} {name}({param})")
    stale = [f"{name}({param})" for name, param in sorted(listed)
             if (name, param) not in known or (name, param) in passed]
    return unused, stale


def test_every_parameter_is_passed():
    """Every defaulted parameter of a function or method of the package is
    passed by some call in the package's code (outside __init__.py), by
    position or by keyword, unless the function is in LIBRARY_API or
    PARAMETER_API lists the parameter; see _unpassed_parameters.  A
    parameter that only ever takes its default is a constant."""
    sources = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(SRC, name)) as f:
                sources[name] = f.read()
    unused, stale = _unpassed_parameters(sources, LIBRARY_API, PARAMETER_API)
    assert not unused, f"defaulted parameters that no call in the package passes: {unused}"
    assert not stale, f"PARAMETER_API entries the package defines nowhere or passes itself: {stale}"


PARAMETERS = """
class Grid:
    def scale(self, f, g=1, h=2):
        return f

    def fill(self, v=0):
        return v


def build(n, cap=None, *, check=True, tag=None):
    return Grid().scale(n, 3)


def run(args=()):
    return build(*args)


def main(argv=None):
    return build(1, tag="x") + Grid().fill(v=2)
"""


def test_unpassed_parameters_finds_constants():
    """The scan flags a defaulted parameter that no call passes, counting
    positions from after ``self`` for a method and honouring keywords and
    splats; it skips exempt functions and reports a PARAMETER_API entry
    that a call passes, or that names no parameter, as stale."""
    unused, stale = _unpassed_parameters({"grid.py": PARAMETERS}, (), {})
    assert sorted(u.split()[1] for u in unused) == ["main(argv)", "run(args)", "scale(h)"]
    assert all(u.startswith("grid.py:") for u in unused)
    assert not stale
    unused, stale = _unpassed_parameters({"grid.py": PARAMETERS}, ("run",),
                                         {"main": ("argv",), "scale": ("g",),
                                          "fill": ("w",)})
    assert sorted(u.split()[1] for u in unused) == ["scale(h)"]
    assert stale == ["fill(w)", "scale(g)"]


# subcommand -> its argparse arguments (option strings, or the dest of a
# positional), in the order they are added
CLI_ARGUMENTS = {
    "analyze": [["graph"], ["--format"], ["--orbits"], ["--ar-cap"]],
    "root": [["graph"], ["--orbits"], ["--point-cap"], ["--ar-cap"], ["-o", "--out"],
             ["--oracle"]],
    "lens": [["p"], ["q"], ["--spinc"], ["--table"], ["--format"], ["--no-numeric"]],
    "seifert": [["--e0"], ["--leg"], ["--format"]],
    "oracle": [["graph"], ["--point-cap"], ["--level"], ["--orbit"], ["--dot"]],
    "verify": [["what"], ["pmax"], ["--e0"], ["--leg"], ["--oracle"], ["--point-cap"]],
}


def test_cli_dispatch():
    """The CLI has one calling convention: each subparser names its handler
    with set_defaults(run=...), a function of the parsed namespace alone,
    and main calls it without looking at the subcommand's name.  No class
    carries the options, and the table pins the 30 arguments."""
    tree = _parse("cli.py")
    classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert not classes, f"classes in cli.py: {classes}"
    (main,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "main"]
    compared = [node.value for cmp in ast.walk(main) if isinstance(cmp, ast.Compare)
                for node in [cmp.left] + cmp.comparators
                if isinstance(node, ast.Constant) and node.value in CLI_ARGUMENTS]
    assert not compared, f"main compares subcommand names: {compared}"
    (subparsers,) = [a for a in cli.build_parser()._actions
                     if isinstance(a, cli.argparse._SubParsersAction)]
    assert sorted(subparsers.choices) == sorted(CLI_ARGUMENTS)
    for name, parser in subparsers.choices.items():
        run = parser.get_default("run")
        assert callable(run) and len(inspect.signature(run).parameters) == 1, name
        got = [a.option_strings or [a.dest] for a in parser._actions
               if not isinstance(a, cli.argparse._HelpAction)]
        assert got == CLI_ARGUMENTS[name], name
    assert sum(map(len, CLI_ARGUMENTS.values())) == 30


def test_traced_mode_runs(tmp_path):
    """The benchmark's traced mode (perfbench/tracing.py, loaded here and
    not changed) wraps package functions by module and name and reads its
    counters off their return values.  With its Tracer installed, `analyze`,
    `root` (the one of them that builds a graded root) and `oracle` on E8,
    `verify seifert` and `verify lens` exit 0, every counter they feed is
    positive and the numeric Seifert check runs under its span; the
    wrappers come off afterwards."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    e8 = os.path.join(ROOT, "tests", "golden", "e8.json")
    main, tracer = cli.main, tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["analyze", e8, "--format", "json"]),
                     cli.main(["root", e8, "--out", str(tmp_path / "e8")]),
                     cli.main(["oracle", e8, "--level", "1", "--orbit", "0"]),
                     cli.main(["verify", "seifert", "--e0", "-2", "--leg", "2/1",
                               "--leg", "3/1", "--leg", "5/1"]),
                     cli.main(["verify", "lens", "5"])]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0, 0] and cli.main is main
    for name in ("plumbing.forms", "engine.tau_terms", "roots.vertices", "oracle.points",
                 "seifert.orbits", "lens.sweep_orbits"):
        assert tracer.counts[name] > 0, name
    numeric = sum(span[0] == "seifert.torsion_limit_numeric" for span in tracer.spans)
    assert numeric == tracer.counts["seifert.orbits"] > 0
