"""Source checks that need nothing beyond the standard library."""

import ast
import importlib
import importlib.util
from pathlib import Path

import spinorsheaf

PACKAGE = Path(spinorsheaf.__file__).resolve().parent


def test_package_modules_found():
    names = {p.name for p in PACKAGE.glob("*.py")}
    assert {"exactalg.py", "spinor.py", "homalg.py", "verify.py"} <= names


def test_no_assert_statements():
    # python -O strips asserts; a package check must raise a typed error
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_broad_except_clauses():
    # a package error is caught by its own type; "except Exception" or a
    # bare "except:" would also hide programming errors
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if any(t is None or (isinstance(t, ast.Name)
                                     and t.id in ("Exception", "BaseException"))
                       for t in names):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _names(tree):
    """The identifiers a module reads, binds, imports, defines as functions
or takes as attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
            yield node.name
        elif isinstance(node, ast.FunctionDef):
            yield node.name


def test_one_exact_elimination():
    # the dense Bareiss ``echelon`` is the test oracle of the sparse kernel:
    # it is defined in _rowreduce_py and re-exported by _kernels, and no
    # other package module may call or bind it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("_rowreduce_py.py", "_kernels.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        if "echelon" in set(_names(tree)):
            found.append(path.name)
    assert found == []


def test_name_scan_sees_attributes_imports_and_bindings():
    for src in ("_kernels.echelon(rows, 3)", "from x import echelon as e",
                "echelon = 1", "def echelon(): pass"):
        assert "echelon" in set(_names(ast.parse(src)))
    assert "echelon" not in set(_names(ast.parse("sparse_echelon(rows)")))


def _unused_imports(tree):
    """Names a module imports but never reads or lists in ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    # a deleted helper must not leave its imports behind
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {name}" for line, name in _unused_imports(tree)]
    assert found == []


def test_unused_import_check_reads_all_and_attributes():
    tree = ast.parse("import os\nimport sys\nfrom a import b, c as d\n"
                     "__all__ = ['b']\nos.getcwd()\n")
    assert _unused_imports(tree) == [(2, "sys"), (3, "d")]


def _reads_action(node):
    """Whether an expression reads an action matrix (``act_ev``,
    ``act_odd``) or evaluates a matrix of linear forms."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in ("act_ev", "act_odd"):
            return True
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "evaluate"):
            return True
    return False


def _action_products(tree):
    """Lines of the ``@`` products outside ``intertwines`` with an operand
    that reads the action."""
    inside = {id(sub) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "intertwines"
              for sub in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside or not isinstance(getattr(node, "op", None), ast.MatMult):
            continue
        operands = ((node.left, node.right) if isinstance(node, ast.BinOp)
                    else (node.target, node.value))
        if any(_reads_action(x) for x in operands):
            found.append(node.lineno)
    return sorted(found)


def test_one_check_of_a_map_against_the_action():
    # whether a graded map (A, B) respects the action is decided by
    # spinor.intertwines alone; a product like A @ act_ev[i] elsewhere is a
    # second copy of that check
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _action_products(tree)]
    assert found == []


def test_action_product_scan():
    src = ("def f(a, A):\n    return A @ a.act_ev[0]\n"
           "def g(p, v, B):\n    return p.evaluate(v) @ B\n"
           "def h(a, X):\n    X @= a.act_odd[1]\n"
           "def intertwines(a, A):\n    return A @ a.act_odd[0]\n"
           "def k(A, B):\n    return A @ B\n")
    assert _action_products(ast.parse(src)) == [2, 4, 6]


def _qualified_functions(tree, prefix=""):
    """(qualified name, node) of every function, a method named after its
    class as ``Class.method``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if isinstance(node, ast.FunctionDef):
                yield name, node
            yield from _qualified_functions(node, name + ".")
        else:
            yield from _qualified_functions(node, prefix)


def _reads_outside(tree, name, *homes):
    """Lines that read ``name`` (a name or an attribute) outside the
    functions whose qualified names ``homes`` lists; a definition and an
    import are not reads."""
    inside = {id(sub) for qual, node in _qualified_functions(tree) if qual in homes
              for sub in ast.walk(node)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if id(node) not in inside
                  and ((isinstance(node, ast.Name) and node.id == name)
                       or (isinstance(node, ast.Attribute) and node.attr == name)))


MATRIX_HOM_NAMES = ("_hom_system", "_intertwining_rows")
GENERATOR_IMAGE_READERS = ("hom_space", "_splitting_exists")


def _matrix_hom_sites(tree):
    """Lines that define, import, bind or read ``_hom_system`` or
    ``_intertwining_rows``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.FunctionDef) and node.name in MATRIX_HOM_NAMES)
                  or (isinstance(node, ast.Name) and node.id in MATRIX_HOM_NAMES)
                  or (isinstance(node, ast.Attribute) and node.attr in MATRIX_HOM_NAMES)
                  or (isinstance(node, ast.alias) and node.name in MATRIX_HOM_NAMES))


def _definitions(tree, name):
    """Lines of the functions named ``name``, at any depth."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == name]


def test_one_hom_route():
    # a map out of an ideal module is fixed by the image of its generator,
    # so a Hom space is a kernel on N unknowns: no package module defines
    # or reads the 2N^2-unknown matrix system (it is the tests' oracle),
    # and the generator-image system is defined in spinor alone and read
    # only by hom_space and _splitting_exists
    found, homes = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _matrix_hom_sites(tree)]
        found += [f"{path.name}:{line}" for line in
                  _reads_outside(tree, "generator_image_system", *GENERATOR_IMAGE_READERS)]
        homes += [path.name for _ in _definitions(tree, "generator_image_system")]
    assert found == []
    assert homes == ["spinor.py"]


def test_one_hom_route_scan():
    src = ("from .exactalg import _hom_system\n"
           "def _intertwining_rows(a, b):\n    return a\n"
           "def hom_space(a, b):\n    return generator_image_system(a, b)\n"
           "def f(a, b):\n    return exactalg._hom_system(a, b)\n"
           "def generator_image_system(i, t):\n    return i\n"
           "def g(i, t):\n    return generator_image_system(i, t)\n"
           "rows = _intertwining_rows\n")
    tree = ast.parse(src)
    assert _matrix_hom_sites(tree) == [1, 2, 7, 12]
    assert _reads_outside(tree, "generator_image_system", *GENERATOR_IMAGE_READERS) == [11]
    assert _definitions(tree, "generator_image_system") == [8]


def test_multiplication_ranks_only_in_cohomology_dim():
    # the cohomology ranks are read off psi phi = q Id; cohomology_dim
    # eliminates once per pair as the cross-check, and nothing else
    # eliminates a multiplication map
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        home = "cohomology_dim" if path.name == "homalg.py" else None
        found += [f"{path.name}:{line}" for line in _reads_outside(tree, "mult_map_rank", home)]
    assert found == []


def test_mult_map_rank_scan():
    src = ("from .exactalg import mult_map_rank\n"
           "def mult_map_rank(lm, t):\n    return t\n"
           "def cohomology_dim(mf, t):\n    def h0():\n        return mult_map_rank(mf.phi, t)\n"
           "    return h0()\n"
           "def h0(mf, t):\n    return mult_map_rank(mf.phi, t)\n"
           "class Pair:\n    def cohomology_dim(self, t):\n"
           "        return exactalg.mult_map_rank(self.phi, t)\n"
           "rank = mult_map_rank\n")
    assert _reads_outside(ast.parse(src), "mult_map_rank", "cohomology_dim") == [9, 12, 13]


PART_MATRIX_HOMES = ("IdealModule.graded_map", "IdealModule._left_action")


def test_one_graded_map_builder():
    # a map x -> f(x) between ideal modules is built by
    # IdealModule.graded_map, which pairs each part with its image part;
    # part_matrix elsewhere would repeat that parity bookkeeping
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}"
                  for line in _reads_outside(tree, "part_matrix", *PART_MATRIX_HOMES)]
    assert found == []


def test_graded_map_scan():
    src = ("class IdealModule:\n"
           "    def part_matrix(self, p):\n        return p\n"
           "    def graded_map(self, s):\n        return self.part_matrix(1)\n"
           "    def other(self):\n        return self.part_matrix(0)\n"
           "class Other:\n"
           "    def graded_map(self, m):\n        return m.part_matrix(0)\n"
           "def graded_map(m):\n    return m.part_matrix(1)\n"
           "def f(m):\n    def graded_map():\n        return m.part_matrix(0)\n")
    tree = ast.parse(src)
    assert _reads_outside(tree, "part_matrix", *PART_MATRIX_HOMES) == [7, 10, 12, 15]
    assert dict(_qualified_functions(tree)).keys() == {
        "IdealModule.part_matrix", "IdealModule.graded_map", "IdealModule.other",
        "Other.graded_map", "graded_map", "f", "f.graded_map"}


SPAN_SOLVER_HOMES = ("SpanSolver.__init__", "SpanSolver.columns")


def test_one_coordinate_loop():
    # coordinates in a canonical basis are read in SpanSolver.columns, one
    # sweep per matrix; coords is one column of it, so the pivot index and
    # the row tails are read nowhere else
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for name in ("_at", "_tails")
                  for line in _reads_outside(tree, name, *SPAN_SOLVER_HOMES)]
    assert found == []


def test_coordinate_loop_scan():
    src = ("class SpanSolver:\n"
           "    def __init__(self, rows):\n        self._at, self._tails = {}, rows\n"
           "    def columns(self, images, nz):\n        return self._at, self._tails\n"
           "    def coords(self, v):\n        return self._at.get(v)\n"
           "def f(solver):\n    return solver._tails[0]\n"
           "class Other:\n    def columns(self):\n        return self._at\n")
    tree = ast.parse(src)
    assert _reads_outside(tree, "_at", *SPAN_SOLVER_HOMES) == [7, 12]
    assert _reads_outside(tree, "_tails", *SPAN_SOLVER_HOMES) == [9]


def _dense_entries_reads(tree, home):
    """Lines that take the attribute ``entries`` outside the classes named
    ``home``; a name that is no attribute is not a read."""
    inside = {id(sub) for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and node.name == home
              for sub in ast.walk(node)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if id(node) not in inside
                  and isinstance(node, ast.Attribute) and node.attr == "entries")


def test_dense_entries_only_in_mat():
    # a matrix is stored as its row-major nonzeros; the dense entries are
    # read off them inside exactalg.Mat (reports and tests read them through
    # it), so a product, check or elimination elsewhere reads ``nz``
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        home = "Mat" if path.name == "exactalg.py" else None
        found += [f"{path.name}:{line}" for line in _dense_entries_reads(tree, home)]
    assert found == []


def test_dense_entries_scan():
    src = ("class Mat:\n"
           "    def entries(self):\n        return self.nz\n"
           "    def __repr__(self):\n        return str(self.entries)\n"
           "def f(m):\n    return m.entries[0]\n"
           "class Other:\n"
           "    def g(self, m):\n        return len(m.entries)\n"
           "def h(rows, cols, entries):\n    return Mat(rows, cols, entries)\n"
           "x = Mat(1, 1, [0]).entries\n")
    assert _dense_entries_reads(ast.parse(src), "Mat") == [7, 10, 13]
    assert _dense_entries_reads(ast.parse(src), None) == [5, 7, 10, 13]


def _random_imports(tree):
    """(line, at module level) of each import of ``random``."""
    top = {id(node) for node in tree.body}
    return [(node.lineno, id(node) in top) for node in ast.walk(tree)
            if (isinstance(node, ast.Import) and any(a.name == "random" for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.module == "random"
                and not node.level)]


def test_one_random_stream():
    # nothing in the package is drawn at random: the searches and the
    # quadric points are deterministic, so no module imports random
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line, _ in _random_imports(tree)]
    assert found == []


def test_random_import_scan():
    src = ("import random\nimport os, random as r\nfrom random import Random\n"
           "import randomx\nfrom .random import x\n"
           "def f():\n    import random\n    return random\n")
    assert _random_imports(ast.parse(src)) == [(1, True), (2, True), (3, True), (7, False)]


def _benchmark_tracer():
    """``perfbench/tracer.py``, loaded by its path (it is no package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _missing_bindings(layers):
    """The ``(metric, module, attribute path)`` entries that name nothing.
    A dotted path must end in an attribute the class defines itself, as
    the recorder replaces it in the class dict."""
    missing = []
    for name, modname, qual in layers:
        owner = importlib.import_module(modname)
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{name}: {modname}.{qual}")
    return missing


def test_benchmark_bindings_resolve():
    # the traced benchmark run (perfbench/run.py --trace 1) wraps these
    # names, and its harness tests wrap three module bindings; a rename in
    # the package would break it
    from spinorsheaf import _kernels, _rowreduce_py, clifford, exactalg, homalg, spinor, verify

    tracer = _benchmark_tracer()
    assert _missing_bindings(tracer.LAYERS) == []
    assert "__init__" in vars(clifford._Context)
    assert isinstance(spinorsheaf.KERNEL_BACKEND, str)
    assert spinor.rref_rows is exactalg.rref_rows
    assert verify.hom_space is homalg.hom_space
    assert _kernels.echelon is _rowreduce_py.echelon


def test_binding_check_sees_a_rename():
    layers = (("homalg.idempotent_probe", "spinorsheaf.homalg", "idempotent_probe"),
              ("spinor.action_matrices", "spinorsheaf.spinor", "IdealModule.act_ev"),
              ("x.renamed", "spinorsheaf.homalg", "idempotent_search"),
              ("x.no_class", "spinorsheaf.spinor", "IdealMod.act_ev"),
              ("x.inherited", "spinorsheaf.spinor", "MatrixFactorization.check_identity"))
    assert _missing_bindings(layers) == [
        "x.renamed: spinorsheaf.homalg.idempotent_search",
        "x.no_class: spinorsheaf.spinor.IdealMod.act_ev",
        "x.inherited: spinorsheaf.spinor.MatrixFactorization.check_identity",
    ]


def test_binding_check_sees_an_inherited_method():
    # the recorder replaces a method in the class dict, so a method that a
    # class only inherits names nothing there
    layers = (("x.own", "spinorsheaf.errors", "SpanError.__init__"),
              ("x.inherited", "spinorsheaf.errors", "SchemaError.__init__"))
    assert _missing_bindings(layers) == ["x.inherited: spinorsheaf.errors.SchemaError.__init__"]


def _int_literal(node):
    """Whether ``node`` is an int literal or a negated one."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _rational_sites(tree):
    """Lines of the true divisions (``/`` and ``/=``), and of the
    ``Fraction(...)`` calls outside the function ``exact`` whose arguments
    are not all int literals."""
    inside = {id(sub) for qual, node in _qualified_functions(tree) if qual == "exact"
              for sub in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(node.lineno)
        elif (isinstance(node, ast.Call) and id(node) not in inside
              and "Fraction" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
              and not (node.args and not node.keywords and all(map(_int_literal, node.args)))):
            found.append(node.lineno)
    return sorted(found)


def test_one_way_to_make_a_rational():
    # exactalg.exact is the one constructor of a rational and returns the
    # canonical form; a quotient is exact(a, b), since a / b of two ints is
    # a float and Fraction(a, b) may be whole.  Only int-literal constants
    # such as Fraction(1, 2) are written out.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _rational_sites(tree)]
    assert found == []


def test_rational_scan():
    src = ("a = x / y\nb = Fraction(x) / y\nc = Fraction(x, y)\nd = x // y\n"
           "x /= y\ne = fractions.Fraction(x)\nf = Fraction(1, 2)\ng = Fraction(-1, 2)\n"
           "h = exact(x, y)\ndef exact(n, d):\n    return Fraction(n, d)\n"
           "k = Fraction('1/2')\nm = Fraction(1)\nclass C:\n"
           "    def exact(self, n):\n        return Fraction(n)\n")
    assert _rational_sites(ast.parse(src)) == [1, 2, 2, 3, 5, 6, 12, 16]


def _import_bindings(tree):
    """The names a module binds by a relative import: ``from .m import f
    as g`` binds g -> (m, f) and ``from . import m`` binds m -> (m, None)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                out[alias.asname or alias.name] = ((node.module.split(".")[-1], alias.name)
                                                   if node.module else (alias.name, None))
    return out


def _uncalled(trees, kept):
    """``module.function`` for each top-level function, and
    ``module.Class.method`` for each method of a top-level class other than
    a dunder, that no module of ``trees`` (name -> tree) reads outside its
    own definition and that ``kept`` does not list (a method as
    ``Class.method``).

    A read of a top-level function is one bound to it: its name loaded in
    its own module or where ``from .m import f`` binds it (followed through
    re-exports), or ``m.f`` where m is module m's own name or is bound to
    it by ``from . import m``.  The scan has no types, so a method is read
    by any name or attribute that spells it, whatever the object."""
    defs = {mod: {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
            for mod, tree in trees.items()}
    bindings = {mod: _import_bindings(tree) for mod, tree in trees.items()}

    def resolve(mod, name):
        """(module, name) of the top-level function that ``name`` stands
        for in ``mod``, or None."""
        while mod in trees:
            if name in defs[mod]:
                return mod, name
            if name not in bindings[mod] or bindings[mod][name][1] is None:
                return None
            mod, name = bindings[mod][name]
        return None

    def module_named(mod, name):
        """The module that ``name`` stands for in ``mod``, or None."""
        target, attr = bindings[mod].get(name, (name, None))
        return target if attr is None and target in trees else None

    reads, called = {}, set()
    for mod, tree in trees.items():
        inside = {id(sub): name for name, node in defs[mod].items() for sub in ast.walk(node)}
        for node in ast.walk(tree):
            target = None
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads[node.id] = reads.get(node.id, 0) + 1
                target = resolve(mod, node.id)
            elif isinstance(node, ast.Attribute):
                reads[node.attr] = reads.get(node.attr, 0) + 1
                owner = isinstance(node.value, ast.Name) and module_named(mod, node.value.id)
                if owner:
                    target = resolve(owner, node.attr)
            if target is not None and target != (mod, inside.get(id(node))):
                called.add(target)
    found = [f"{mod}.{name}" for mod in trees for name in defs[mod]
             if name not in kept and (mod, name) not in called]
    for mod, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                qual = f"{cls.name}.{node.name}"
                if qual in kept or (node.name.startswith("__") and node.name.endswith("__")):
                    continue
                own = sum(1 for sub in ast.walk(node)
                          if (isinstance(sub, ast.Name) and sub.id == node.name)
                          or (isinstance(sub, ast.Attribute) and sub.attr == node.name))
                if reads.get(node.name, 0) == own:
                    found.append(f"{mod}.{qual}")
    return sorted(found)


def test_every_function_has_a_caller():
    # a top-level function or a method is called in the package, exported
    # from spinorsheaf.__all__ (a function, not a class's methods), or
    # wrapped by the benchmark tracer; one that only tests call belongs in
    # tests/dense_oracles.py
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    kept = set(spinorsheaf.__all__) | {qual for _, _, qual in _benchmark_tracer().LAYERS}
    assert _uncalled(trees, kept) == []


def test_caller_scan():
    trees = {
        "a": ast.parse("def f():\n    return g()\ndef g():\n    return 1\n"
                       "def h():\n    return h()\ndef public():\n    pass\n"),
        "b": ast.parse("from .a import h, public\nx = a.f\n"
                       "def unused():\n    def inner():\n        pass\n    return inner\n"),
    }
    assert _uncalled(trees, {"public"}) == ["a.h", "b.unused"]


def test_caller_scan_checks_methods():
    trees = {
        "a": ast.parse("class C:\n"
                       "    def __init__(self):\n        pass\n"
                       "    def used(self):\n        return self.helper()\n"
                       "    def helper(self):\n        return 1\n"
                       "    def recursive(self):\n        return self.recursive()\n"
                       "    def traced(self):\n        pass\n"
                       "    def __repr__(self):\n        return ''\n"),
        "b": ast.parse("from .a import C\nx = C().used()\n"),
    }
    assert _uncalled(trees, {"C", "C.traced"}) == ["a.C.recursive"]


def test_caller_scan_binds_function_reads():
    # a method read of the same name does not call a top-level function;
    # an import, a re-export and a module attribute do
    trees = {
        "a": ast.parse("def evaluate(v):\n    return v\n"
                       "def helper(v):\n    return v\n"
                       "def rank(v):\n    return v\n"),
        "b": ast.parse("class L:\n    def evaluate(self):\n        return 1\n"
                       "def f(x):\n    return x.evaluate()\n"),
        "c": ast.parse("from .a import helper as h, rank\nx = h(1)\n"),
        "d": ast.parse("from . import c\ny = c.rank(2)\n"),
    }
    assert _uncalled(trees, {"f"}) == ["a.evaluate"]
