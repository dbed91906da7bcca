"""Guards on the shape of src/pellzero.

The first guards against dead code.  Three kinds of definition must be
referenced by some module of the package, or be on the keep-list below
with the reason they stay:

- module-level public functions and classes;
- module-level private (_name) functions;
- public methods of classes, listed as Class.method.

A reference to a module-level definition is a name, an attribute or an
imported name.  A method is referenced only through an attribute: a
property (or cached_property) by an attribute reference, a plain method
by a call of an attribute, so a local variable or an mpc attribute of
the same name does not count, nor does a call on an imported module
(math.sqrt is no call of Ball.sqrt).  References are counted anywhere in
src/pellzero outside the definition's own body.  The re-exports in
__init__.py do not count: a name that only the package root re-exports
has no caller in the package.

The second keeps the package free of mpmath: no module imports mpmath
or a module under it, and only ball.py reads a raw mpmath value (an
attribute _mpf_ or _mpc_, which Ball.exact reads off an mpf or mpc
without importing mpmath); no other module imports from ball a private
name or one starting mpf_.
"""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "pellzero"

# Names that only code outside src reads, each with the reason it stays.
KEEP = {
    "even_case_chain_check": "the perfbench gate checks each even L_k with it",
    "implicit_log_bound": "acceptance criterion 9 inverts L < H (ln L)^r with it",
    "binet_reconstruct": "acceptance criterion 6 rebuilds exact terms with it",
    "check_root_separation": "acceptance criterion 7 reads its modulus gaps",
    "clear_cache": "the perfbench gate runs each order cold with it",
    "suggested_prec": "acceptance criterion 6 sizes its precision with it",
    "mirror_sequence": "the strict-xfail twin on the shifted-index identity reads it",
    "KContext": "the acceptance criteria, the perfbench probes and the scan "
                "tests use it as the k-term reference",
    "verify_structure": "the strict-xfail twins on the published blocks read it",
    "variant_zero_set": "acceptance criterion 2 and the scan tests use it "
                        "as the oracle of the variant orbit's zeros",
    "Ball.contains": "the enclosure oracle of the Ball property tests and "
                     "the acceptance criteria",
    "Ball.conjugate": "the mirror tests' oracle for exactly conjugated "
                      "roots and weights",
    "KContext.value": "the acceptance criteria, the perfbench probes and the "
                      "sequence tests read single terms with it",
    "LogMagnitude.ln_value": "acceptance criterion 9 and the bound tests read "
                             "a magnitude's natural log with it",
    "Ball.sqrt": "acceptance criterion 8 builds its quadratic irrationals with it",
}


def _modules():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _is_property(node):
    return any(isinstance(d, ast.Name) and d.id in ("property", "cached_property")
               for d in node.decorator_list)


def _definitions(tree):
    """(qualified name, node, kind) of each definition the guard covers;
    kind names the references that count for it (_references)."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            if not node.name.startswith("_"):
                yield node.name, node, "name"
            yield from ((f"{node.name}.{sub.name}", sub,
                         "attribute" if _is_property(sub) else "call")
                        for sub in node.body
                        if isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("__"):
                yield node.name, node, "name"


def _imported_modules(tree):
    """The names that `import` statements anywhere in tree bind to
    modules: math, cmath, mp for `import mpmath as mp`."""
    return {(alias.asname or alias.name).split(".")[0]
            for sub in ast.walk(tree) if isinstance(sub, ast.Import)
            for alias in sub.names}


def _references(node, modules=frozenset()):
    """Counters of the references in the subtree of node, by kind: every
    name, attribute and imported name; attribute references; calls of
    an attribute, except on a name in modules."""
    refs = {"name": Counter(), "attribute": Counter(), "call": Counter()}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs["name"][sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs["name"][sub.attr] += 1
            refs["attribute"][sub.attr] += 1
        elif isinstance(sub, ast.alias):
            refs["name"][sub.name] += 1
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                and not (isinstance(sub.func.value, ast.Name)
                         and sub.func.value.id in modules)):
            refs["call"][sub.func.attr] += 1
    return refs


def unreferenced_names():
    modules = _modules()
    uses = {kind: Counter() for kind in ("name", "attribute", "call")}
    imported = {mod: _imported_modules(tree) for mod, tree in modules.items()}
    for mod, tree in modules.items():
        if mod != "__init__":
            for kind, counts in _references(tree, imported[mod]).items():
                uses[kind].update(counts)
    dead = []
    for mod, tree in modules.items():
        for qualified, node, kind in _definitions(tree):
            own = _references(node, imported[mod])[kind][node.name]
            if uses[kind][node.name] == own:
                dead.append(f"{mod}.{qualified}")
    return dead


def _dead(public: bool):
    """Unreferenced definitions off the keep-list: the module-level
    public ones, or the private functions and the methods."""
    out = []
    for name in unreferenced_names():
        qualified = name.split(".", 1)[1]
        if qualified not in KEEP and public == ("." not in qualified
                                                and not qualified.startswith("_")):
            out.append(name)
    return out


def test_every_public_name_has_a_caller_or_a_reason():
    dead = _dead(public=True)
    assert dead == [], f"public names that no src module references: {dead}"


def test_every_private_function_and_method_has_a_caller_or_a_reason():
    dead = _dead(public=False)
    assert dead == [], f"private functions and methods that no src module references: {dead}"


def test_keep_list_names_exist_and_have_no_caller():
    # A kept name that gains a caller in src no longer needs the entry.
    unreferenced = {name.split(".", 1)[1] for name in unreferenced_names()}
    assert set(KEEP) <= unreferenced, set(KEEP) - unreferenced


# -- the mpmath boundary ----------------------------------------------------

def _mpmath_imports(tree):
    """Each import of mpmath, or of a module under it, in tree."""
    found = []
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Import):
            found += [f"line {sub.lineno}: import {alias.name}" for alias in sub.names
                      if alias.name.split(".")[0] == "mpmath"]
        elif isinstance(sub, ast.ImportFrom) and (sub.module or "").split(".")[0] == "mpmath":
            found.append(f"line {sub.lineno}: from {sub.module} import")
    return found


def _mpmath_reach(tree):
    """Each place in tree that handles mpmath values directly: an import
    of mpmath or of a module under it, an attribute _mpf_ or _mpc_, and a
    name imported from ball that is private or starts with mpf_."""
    found = _mpmath_imports(tree)
    for sub in ast.walk(tree):
        if isinstance(sub, ast.ImportFrom) and (sub.module or "").split(".")[-1] == "ball":
            found += [f"line {sub.lineno}: from ball import {alias.name}"
                      for alias in sub.names if alias.name.startswith(("_", "mpf_"))]
        elif isinstance(sub, ast.Attribute) and sub.attr in ("_mpf_", "_mpc_"):
            found.append(f"line {sub.lineno}: .{sub.attr}")
    return found


def test_only_ball_handles_mpmath_values():
    reach = {mod: found for mod, tree in _modules().items()
             if mod != "ball" and (found := _mpmath_reach(tree))}
    assert reach == {}, f"mpmath values handled outside ball.py: {reach}"


def test_no_module_imports_mpmath():
    found = {mod: found for mod, tree in _modules().items()
             if (found := _mpmath_imports(tree))}
    assert found == {}, f"mpmath imported in src/pellzero: {found}"


def test_mpmath_boundary_guard_sees_each_breach():
    planted = """
import mpmath as mp
import mpmath.libmp
from mpmath.libmp import from_man_exp
from .ball import Ball, _mpf, mpf_to_fraction
from pellzero.ball import _raw_c
def f(x):
    from mpmath import libmp
    return x.mid._mpf_, x.mid._mpc_
"""
    assert len(_mpmath_reach(ast.parse(planted))) == 9
    assert [line.split(":")[0] for line in _mpmath_imports(ast.parse(planted))] \
        == ["line 2", "line 3", "line 4", "line 8"]
    assert _mpmath_reach(ast.parse("from .ball import Ball, ball_sum\nx.mid.real")) == []
    assert _mpmath_reach(_modules()["ball"]) != []


def test_libmp_leaf_guard_sees_each_breach():
    # The bodies of log, arg and pi were once exempt; now an import of
    # mpmath is reported wherever it stands, in a leaf or nested below one.
    planted = """
import mpmath
from mpmath.libmp import mpf_add
class Ball:
    def log(self):
        from mpmath.libmp import mpf_log
        def inner():
            import mpmath.libmp
    def exp(self):
        import mpmath as mp
        if self:
            from mpmath import libmp
    @classmethod
    def pi(cls):
        from mpmath.libmp import mpf_pi
def arg_helper():
    from mpmath.libmp import mpf_atan2
"""
    assert sorted(int(line.split(":")[0].split()[1]) for line in _mpmath_imports(ast.parse(planted))) \
        == [2, 3, 6, 8, 10, 12, 15, 17]
