"""The public surface: every name in a module's __all__ has a caller, and
so has every method of a class there whose name has no leading underscore.

A name counts as called when it appears as a Python name outside its own
definition and outside __all__ in some module of src/phigamma (comments and
strings there are not calls), or as a word in a Python file under bench/
(whose tracer wraps entry points by their names) or in the CI workflow.  A
name nothing calls is deleted, or listed in ALLOWED with the reason it
stays; a method is listed as Class.method.

Also: no module under src/phigamma or tests/ imports a name it never reads.
"""

import ast
import io
import pathlib
import re
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "phigamma"

# name -> why it stays although nothing in src/, bench/ or CI calls it
ALLOWED = {
    "explicit_cocycle": "acceptance criterion 12; ROADMAP item 7 replaces "
                        "it with H^1 cocycles at every s and rank",
    "geometric_gamma_sum": "the cocycle sum of explicit_cocycle "
                           "(criterion 12, item 7)",
    "reduce_mod": "ROADMAP item 8 (maps between modules) will use it",
    "w_r_valuation": "acceptance criterion 7, the overconvergence gauge "
                     "whose radius (phi - 1) dilates",
    "cyclotomic_trace": "acceptance criterion 9, the normalized trace down "
                        "the cyclotomic tower",
    "weak_membership": "the weak topology, a construction of the paper",
    "decompose_element": "the decomposition D = D_m + D_m^(0) + D_m^(1), "
                         "a construction of the paper",
    "solve_phi_fixed": "the fixed line of phi on a rank-1 module, a "
                       "construction of the paper",
    "NormFieldElement.p_th_root": "the inverse of phi on the perfection, a "
                                  "construction of the paper",
    "CyclotomicElement.zeta": "the primitive p^n-th root of unity, the "
                              "generator of the cyclotomic tower",
}


def _names(text):
    """name -> the lines of its NAME tokens in Python source."""
    lines = {}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            lines.setdefault(tok.string, set()).add(tok.start[0])
    return lines


def _public(tree):
    """The names in __all__, and the lines of __all__ and of each name's
    top-level definition."""
    names, own = [], {}
    for node in tree.body:
        lines = set(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            names = [e.value for e in node.value.elts]
            own["__all__"] = lines
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own[node.name] = lines
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for t in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(t, ast.Name):
                    own[t.id] = lines
    return names, own


def _methods(tree, names):
    """(class, method, lines of its definition) for each method of a class
    in names whose name has no leading underscore."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in names:
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield (node.name, item.name,
                           set(range(item.lineno, item.end_lineno + 1)))


def uncalled(src=SRC, root=ROOT):
    """(module, name) for each name in an __all__ that nothing calls, and
    (module, Class.method) for each such method of a class there."""
    texts = {f.stem: f.read_text() for f in sorted(src.glob("*.py"))}
    outside = "\n".join(
        [f.read_text() for f in sorted((root / "bench").rglob("*.py"))]
        + [(root / ".github" / "workflows" / "tests.yml").read_text()])
    used = {mod: _names(text) for mod, text in texts.items()}
    found = []
    for mod, text in texts.items():
        tree = ast.parse(text)
        names, own = _public(tree)
        entries = [(name, name, own["__all__"] | own.get(name, set()))
                   for name in names]
        entries += [(f"{cls}.{name}", name, lines)
                    for cls, name, lines in _methods(tree, names)]
        for label, name, skip in entries:
            called = (re.search(rf"\b{re.escape(name)}\b", outside)
                      or any(name in u for m, u in used.items() if m != mod)
                      or used[mod].get(name, set()) - skip)
            if not called:
                found.append((mod, label))
    return found


def unread_imports(path):
    """(line, name) for each name the Python file at path imports and never
    reads as a name; a name in its __all__ counts as read."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    read |= set(_public(tree)[0])
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    files = sorted([*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py")])
    assert [(f.name, *hit) for f in files for hit in unread_imports(f)] == []


def test_every_public_name_has_a_caller():
    assert [(m, n) for m, n in uncalled() if n not in ALLOWED] == []


def test_allowed_names_are_public():
    public = set()
    for f in SRC.glob("*.py"):
        tree = ast.parse(f.read_text())
        names = _public(tree)[0]
        public |= set(names)
        public |= {f"{cls}.{name}" for cls, name, _ in _methods(tree, names)}
    assert sorted(set(ALLOWED) - public) == []


def test_public_names_exist():
    for f in SRC.glob("*.py"):
        names = _public(ast.parse(f.read_text()))[0]
        module = __import__(f"phigamma.{f.stem}", fromlist=names)
        assert [n for n in names if not hasattr(module, n)] == [], f.stem
