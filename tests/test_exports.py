"""Every exported name resolves: each name in an envdet submodule's
``__all__`` (a stale entry breaks ``from envdet.<module> import *``) and
each name the package ``__init__`` imports.  And every name a submodule
imports is used there (the package ``__init__`` only re-exports), no module
checks whole numbers by hand (``specfun._whole`` does), only
``envelope._area_shifts`` takes the log of an area, and ``verify`` builds a
check's result only in its pass rules and its runtime row.  The integral
route's integrand calls the kernel through the module's name ``f_kernel``
(a wrapper put there sees every kernel call) and takes e^t - 1 from
``math.expm1`` only (``np.expm1`` differs in the last bit).  ``envelope``
sets ``AngleParam.exact`` in ``from_fraction`` only, refuses an array beta
where a float is needed in ``_check_scalar`` only, cubes 2 beta + 1 in
``AngleParam._x2_cube`` only, and calls ``np.sin``, ``np.cos``,
``math.sin`` or ``math.cos`` in ``AngleParam._sin_cos`` only.  Only
``barnes.f_kernel`` reads ``_TINY``.  The one background thread has one
owner: only ``envelope._new_background`` makes a ``ThreadPoolExecutor`` or a
``threading.Thread``, only ``envelope._in_background`` reads
``_OVERLAP_MIN`` and calls ``.submit``, and only ``envelope._unit`` and
``verify._criterion_5`` call it.  The split of a wide scan's orders over two
quadratures has one owner too: only ``envelope._unit`` reads
``_SPLIT_MIN``.  So has the 17-digit format of the scan CSV: only
``cli._CSV_ROW`` spells ".17g", and only the writer ``cli._csv_rows`` reads
it.  And so has the JSON row of a scan, whose values repr writes: only
``cli._JSON_ROW`` spells "%r", only the writer ``cli._scan_json`` reads it,
and no other function of ``cli`` calls ``repr`` or converts with ``!r``.
envdet's tie to scipy has one owner: only ``specfun._scipy_ufuncs`` imports
scipy, and only ``specfun`` reads ``_ufuncs``.  ``barnes.dedekind_sum`` sums
its definition in one pass: it calls neither itself, nor another function of
``barnes``, nor a reciprocity helper, so criterion 8's reciprocity law checks
it against the definition, not against itself.  And no module under ``src``
calls numpy's set operations built on ``np.unique``, whose first call imports
``numpy.ma``."""

import ast
import importlib
import pkgutil
import textwrap
from pathlib import Path

import pytest

import envdet
from envdet import barnes, cli, envelope, verify

SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(envdet.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"envdet.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from envdet.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_imports_resolve():
    tree = ast.parse(Path(envdet.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module_name, name in imported:
        module = importlib.import_module(f"envdet.{module_name}")
        assert getattr(envdet, name) is getattr(module, name)


def _unused_imports(source: str) -> list:
    """The names ``source`` imports, ``from __future__`` aside, that it never
    reads: a stale import."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


MODULE_FILES = sorted(
    path.name for path in Path(envdet.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


@pytest.mark.parametrize("filename", MODULE_FILES)
def test_every_import_is_used(filename):
    source = Path(envdet.__file__).with_name(filename).read_text(encoding="utf-8")
    assert _unused_imports(source) == []


def test_a_stale_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\nimport os.path\n"
        "from .specfun import _BLOCK_POINTS, _real\n"
        "x = np.asarray(_real(os.path.sep, 'x'))\n"
    )
    assert _unused_imports(source) == ["_BLOCK_POINTS"]


def _integer_checks(source: str) -> list:
    """The lines where ``source`` calls ``.is_integer()`` or names
    ``numbers.Integral``: a whole-number check of its own."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (
            node.attr == "is_integer"
            or node.attr == "Integral" and ast.unparse(node.value) == "numbers"
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            lines.extend(node.lineno for a in node.names if a.name == "Integral")
    return sorted(lines)


@pytest.mark.parametrize("filename", MODULE_FILES)
def test_only_specfun_checks_whole_numbers(filename):
    # every module takes its whole numbers through specfun._whole, which
    # itself names neither numbers.Integral nor is_integer
    source = Path(envdet.__file__).with_name(filename).read_text(encoding="utf-8")
    assert _integer_checks(source) == []


def test_a_hand_written_integer_check_is_found():
    source = (
        "import numbers\nfrom numbers import Integral, Real\n"
        "ok = isinstance(n, numbers.Integral) or float(n).is_integer()\n"
        "real = isinstance(n, numbers.Real)\n"
    )
    assert _integer_checks(source) == [2, 3, 3]


def _name(node):
    """The name a Name or an Attribute node reads, else None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _owners(source: str, accept) -> list:
    """The innermost function around each node of ``source`` that ``accept``
    takes, in source order; None for a node at module level."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if accept(node):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def _callers(source: str, is_call) -> list:
    """The innermost function around each call in ``source`` that ``is_call``
    accepts, in source order; None for a call at module level."""
    return _owners(source, lambda node: isinstance(node, ast.Call) and is_call(node))


def _area_logs(source: str) -> list:
    """Where ``source`` takes a log of a name or attribute called ``area``: an
    area shift of its own."""
    return _callers(source, lambda call: _name(call.func) in ("log", "_log")
                    and any(_name(arg) == "area" for arg in call.args))


@pytest.mark.parametrize("filename", MODULE_FILES)
def test_only_area_shifts_takes_the_log_of_an_area(filename):
    # log det at area S is the unit-area value minus zeta0 log S: one owner
    source = Path(envdet.__file__).with_name(filename).read_text(encoding="utf-8")
    assert _area_logs(source) == (["_area_shifts"] if filename == "envelope.py" else [])


def test_a_log_of_an_area_is_found():
    source = (
        "import math\nlead = math.log(area)\n"
        "def report(args):\n    return d2 - z * math.log(args.area)\n"
        "def _columns(p, area):\n"
        "    def inner():\n        return _log(area) + np.log(area_ratio)\n"
        "    return np.log(p.area_scale) + math.log(3.0) + log(area, 2)\n"
    )
    assert _area_logs(source) == [None, "report", "inner", "_columns"]


def test_verify_builds_check_results_in_its_pass_rules_only():
    source = Path(verify.__file__).read_text(encoding="utf-8")
    owners = _callers(source, lambda call: _name(call.func) == "CheckResult")
    assert sorted(set(owners)) == ["_above_zero", "_at_most", "run_suite"]


def _integrand_faults(source: str) -> list:
    """What keeps ``_integral``'s nested ``integrand`` in ``source`` from calling
    the module's ``f_kernel`` at every block, or from e^t - 1 of math.expm1:
    no call of the plain name, a local binding that hides it, or an expm1
    other than math.expm1 in ``_integral`` or the memo ``_expm1_columns``."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    faults = []
    outer = functions["_integral"]
    integrand = next(node for node in ast.walk(outer)
                     if isinstance(node, ast.FunctionDef) and node.name == "integrand")
    if not any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "f_kernel" for node in ast.walk(integrand)):
        faults.append("no f_kernel call")
    bound = {node.id for node in ast.walk(outer)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    bound |= {arg.arg for node in ast.walk(outer) if isinstance(node, ast.arguments)
              for arg in node.args + node.kwonlyargs}
    if "f_kernel" in bound:
        faults.append("f_kernel bound locally")
    for function in (outer, functions["_expm1_columns"]):
        for node in ast.walk(function):
            if _name(node) == "expm1" and ast.unparse(node) != "math.expm1":
                faults.append(f"{ast.unparse(node)} in {function.name}")
    return faults


def test_the_integrand_calls_the_module_kernel_and_math_expm1():
    assert _integrand_faults(Path(barnes.__file__).read_text(encoding="utf-8")) == []


def test_an_integrand_off_the_module_kernel_or_math_expm1_is_found():
    source = (
        "def _expm1_columns(key):\n    return np.expm1(t)\n"
        "def _integral(a, orders, f_kernel=None):\n"
        "    kernel = barnes.f_kernel\n"
        "    def integrand(t, open_):\n"
        "        em = np.expm1(t) + math.expm1(t[0])\n"
        "        return kernel(t * a, orders) / em\n"
    )
    assert _integrand_faults(source) == [
        "no f_kernel call", "f_kernel bound locally", "np.expm1 in _integral",
        "np.expm1 in _expm1_columns",
    ]


def _exact_setters(source: str) -> list:
    """Where ``source`` sets ``AngleParam.exact``: "field" if the class
    declares it without ``init=False``, then the function around each
    ``__setattr__(..., 'exact', ...)`` (the class is frozen, so a plain
    store raises)."""
    angle = next(node for node in ast.parse(source).body
                 if isinstance(node, ast.ClassDef) and node.name == "AngleParam")
    declared = next(item.value for item in angle.body
                    if isinstance(item, ast.AnnAssign) and item.target.id == "exact")
    found = [] if "init=False" in ast.unparse(declared) else ["field"]
    return found + _callers(source, lambda call: _name(call.func) == "__setattr__"
                            and len(call.args) > 1 and ast.unparse(call.args[1]) == "'exact'")


def test_exact_is_set_by_from_fraction_only():
    source = Path(envelope.__file__).read_text(encoding="utf-8")
    assert _exact_setters(source) == ["from_fraction"]


def test_an_exact_set_outside_from_fraction_is_found():
    source = (
        "class AngleParam:\n"
        "    beta: float\n    exact: Optional[Fraction] = None\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'exact', Fraction(self.beta))\n"
        "def _rational(p):\n    object.__setattr__(p, 'exact', Fraction(1, 3))\n"
    )
    assert _exact_setters(source) == ["field", "__post_init__", "_rational"]


def _scalar_refusals(source: str) -> list:
    """The functions of ``source`` whose strings say "takes a float beta",
    and a ``_real(...a1)`` or ``_real(...a2)`` call: a refusal of an array beta
    besides ``_check_scalar``'s."""
    found = _callers(source, lambda call: _name(call.func) == "_real" and call.args
                     and _name(call.args[0]) in ("a1", "a2"))
    owners = _owners(source, lambda node: isinstance(node, ast.Constant)
                     and isinstance(node.value, str) and "takes a float beta" in node.value)
    return [f"_real in {owner}" for owner in found] + owners


def test_only_check_scalar_refuses_an_array_beta():
    source = Path(envelope.__file__).read_text(encoding="utf-8")
    assert _scalar_refusals(source) == ["_check_scalar"]


def test_a_second_refusal_of_an_array_beta_is_found():
    source = (
        "def _check_scalar(p, what):\n"
        "    raise DomainError(f'{what} takes a float beta, got {p.beta!r}')\n"
        "def log_det_area(p, area):\n"
        "    if np.ndim(p.a1):\n        _real(p.a1, 'a')\n"
        "    raise DomainError('the series route takes a float beta')\n"
        "def zeta(p):\n    return _real(p.a2, 'a')\n"
    )
    assert _scalar_refusals(source) == [
        "_real in log_det_area", "_real in zeta", "_check_scalar", "log_det_area"]


def _x2_cubes(source: str) -> list:
    """Where ``source`` cubes 2 beta + 1 as ``x2 ** 3``, ``(-a2) ** 3`` or
    ``(-p.a2) ** 3``: a pow of a negative base, which AngleParam's memo
    computes once."""
    def is_cube(node):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and isinstance(node.right, ast.Constant) and node.right.value == 3):
            return False
        base = node.left
        if isinstance(base, ast.UnaryOp) and isinstance(base.op, ast.USub):
            return _name(base.operand) == "a2"
        return _name(base) == "x2"

    return _owners(source, is_cube)


def test_angle_param_owns_the_cube_of_2_beta_plus_1():
    source = Path(envelope.__file__).read_text(encoding="utf-8")
    assert _x2_cubes(source) == ["_x2_cube"]


def test_a_second_cube_of_2_beta_plus_1_is_found():
    source = (
        "lead = x2 ** 3\n"
        "def _elementary(p):\n    x2 = -p.a2\n    return a1**3 + x2**3 + x2**2 + half**3\n"
        "def d2_zeta0(p):\n    return 2.0 / (-p.a2) ** 3 + p.a2 ** 3\n"
        "def bound(a2):\n    return (-a2) ** 3.0 - (-a1) ** 3\n"
    )
    assert _x2_cubes(source) == [None, "_elementary", "d2_zeta0", "bound"]


def _sines(source: str) -> list:
    """Where ``source`` calls ``np.sin``, ``np.cos``, ``math.sin`` or
    ``math.cos``: sin(pi a2) and cos(pi a2), which AngleParam's memo computes
    once."""
    return _callers(source, lambda node: isinstance(node.func, ast.Attribute)
                    and _name(node.func.value) in ("np", "math")
                    and node.func.attr in ("sin", "cos"))


def test_angle_param_owns_the_sine_of_pi_a2():
    source = Path(envelope.__file__).read_text(encoding="utf-8")
    assert _sines(source) == ["_sin_cos", "_sin_cos"]


def test_a_second_sine_of_pi_a2_is_found():
    source = (
        "s = np.sin(np.pi * a2)\n"
        "def _log_c(p):\n    return np.log(np.sin(np.pi * p.a2)) + cmath.sin(p.a1)\n"
        "def bound(p):\n    s, c = p._sin_cos\n    return np.cos(np.pi * p.a2) / s + np.tan(c)\n"
        "def geometry(p):\n    return math.sqrt(1.0 / math.sin(math.pi * p.a2)), math.cos(0.0)\n"
    )
    assert _sines(source) == [None, "_log_c", "bound", "geometry", "geometry"]


def _tiny_readers(source: str) -> list:
    """Where ``source`` reads ``_TINY``, by name or as an attribute."""
    return _owners(source, lambda node: _name(node) == "_TINY"
                   and isinstance(node.ctx, ast.Load))


@pytest.mark.parametrize("filename", MODULE_FILES)
def test_only_f_kernel_reads_tiny(filename):
    # the split of a sorted row below _TINY, whose proof holds for the kernel only
    source = Path(envdet.__file__).with_name(filename).read_text(encoding="utf-8")
    assert _tiny_readers(source) == (["f_kernel"] if filename == "barnes.py" else [])


def test_a_read_of_tiny_elsewhere_is_found():
    source = (
        "_TINY = 3.6e-8\n_SPLITS = (_TINY, 0.5)\n"
        "def _leading(r, out):\n    return r[r < _TINY]\n"
        "def f_kernel(r):\n    _TINY = 1.0\n    return np.searchsorted(r, (_TINY, 0.5))\n"
        "def scan(b):\n    return b * barnes._TINY\n"
    )
    assert _tiny_readers(source) == [None, "_leading", "f_kernel", "scan"]


def _thread_makers(source: str) -> list:
    """Where ``source`` constructs a ``ThreadPoolExecutor`` or a ``Thread``."""
    return _callers(source, lambda call: _name(call.func) in ("ThreadPoolExecutor", "Thread"))


def _background_callers(source: str) -> list:
    """Where ``source`` calls ``_in_background``, by name or as an attribute."""
    return _callers(source, lambda call: _name(call.func) == "_in_background")


def _overlap_min_readers(source: str) -> list:
    """Where ``source`` reads ``_OVERLAP_MIN``, by name or as an attribute."""
    return _owners(source, lambda node: _name(node) == "_OVERLAP_MIN"
                   and isinstance(node.ctx, ast.Load))


def _submitters(source: str) -> list:
    """Where ``source`` calls a ``.submit`` method: hands a job to an executor."""
    return _callers(source, lambda call: isinstance(call.func, ast.Attribute)
                    and call.func.attr == "submit")


_BACKGROUND_OWNERS = {
    "envelope.py": (["_new_background"], ["_unit"], ["_in_background"], ["_in_background"]),
    "verify.py": ([], ["_criterion_5"], [], []),
}


@pytest.mark.parametrize("filename", MODULE_FILES)
def test_in_background_owns_the_one_background_thread(filename):
    # one executor, one size gate, one hand-off, two callers: at most one
    # extra thread, and never for a scalar beta or a small array
    source = Path(envdet.__file__).with_name(filename).read_text(encoding="utf-8")
    expected = _BACKGROUND_OWNERS.get(filename, ([], [], [], []))
    assert (
        _thread_makers(source),
        _background_callers(source),
        _overlap_min_readers(source),
        _submitters(source),
    ) == expected


def test_a_second_owner_of_the_background_thread_is_found():
    source = (
        "_POOL = concurrent.futures.ThreadPoolExecutor(2)\n"
        "_BIG = 2 * _OVERLAP_MIN\n"
        "_POOL.submit(_elementary, p)\n"
        "def _in_background(job, p):\n"
        "    if p.beta.size >= _OVERLAP_MIN:\n"
        "        return ThreadPoolExecutor(1).submit(job, p).result\n"
        "def _columns(p):\n"
        "    threading.Thread(target=_elementary, args=(p,)).start()\n"
        "    return envelope._in_background(_area_shifts, p)\n"
        "def scan(b):\n"
        "    envelope._background.submit(_columns, AngleParam(b))\n"
        "    submit(b)\n"
        "    if b.size > envelope._OVERLAP_MIN:\n"
        "        return _in_background(_columns, AngleParam(b))()\n"
    )
    assert _thread_makers(source) == [None, "_in_background", "_columns"]
    assert _background_callers(source) == ["_columns", "scan"]
    assert _overlap_min_readers(source) == [None, "_in_background", "scan"]
    assert _submitters(source) == [None, "_in_background", "scan"]


def _split_min_readers(source: str) -> list:
    """Where ``source`` reads ``_SPLIT_MIN``, by name or as an attribute."""
    return _owners(source, lambda node: _name(node) == "_SPLIT_MIN"
                   and isinstance(node.ctx, ast.Load))


@pytest.mark.parametrize("filename", MODULE_FILES)
def test_only_unit_splits_the_orders(filename):
    # one size gate for the order-2 quadrature on the background thread
    source = Path(envdet.__file__).with_name(filename).read_text(encoding="utf-8")
    assert _split_min_readers(source) == (["_unit"] if filename == "envelope.py" else [])


def test_a_second_reader_of_split_min_is_found():
    source = (
        "_HALF = _SPLIT_MIN // 2\n"
        "def _unit(p, orders):\n"
        "    return p.beta.size >= _SPLIT_MIN\n"
        "def _columns(b, area):\n"
        "    _SPLIT_MIN = 1\n"
        "    return b.size >= _SPLIT_MIN\n"
        "def run_criterion(n):\n"
        "    return n < envelope._SPLIT_MIN\n"
    )
    assert _split_min_readers(source) == [None, "_unit", "_columns", "run_criterion"]


def _spellers(source: str, text: str) -> list:
    """Who in ``source`` spells ``text``, in a string or an f-string's
    constant parts or format spec: the function around it, or the names a
    module-level assignment binds."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Assign) and owner is None:
            owner = ", ".join(ast.unparse(target) for target in node.targets)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and text in node.value:
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def _readers(source: str, name: str) -> list:
    """Where ``source`` reads ``name``, by name or as an attribute."""
    return _owners(source, lambda node: _name(node) == name
                   and isinstance(node.ctx, ast.Load))


@pytest.mark.parametrize("filename", MODULE_FILES)
def test_csv_row_owns_the_17_digit_format(filename):
    # the numpy writer's digits are proved equal to _CSV_ROW's, which renders
    # every row the numpy writer cannot: one spelling, one reader
    source = Path(envdet.__file__).with_name(filename).read_text(encoding="utf-8")
    expected = (["_CSV_ROW"], ["_csv_rows"]) if filename == "cli.py" else ([], [])
    assert (_spellers(source, ".17g"), _readers(source, "_CSV_ROW")) == expected


def test_a_second_17_digit_format_or_reader_is_found():
    source = (
        '_CSV_ROW = ",".join(["%.17g"] * 6) + "\\n"\n'
        '_ROW = "%.17g,%.17g\\n"\n'
        "HEADER = _CSV_ROW.count(',')\n"
        "def _csv_rows(values):\n    return [_CSV_ROW % tuple(row) for row in values]\n"
        "def _cmd_scan(args):\n"
        "    text = ','.join(f'{x:.17g}' for x in args.row) + format(1.0, '.17g')\n"
        "    return cli._CSV_ROW % args.row\n"
    )
    assert _spellers(source, ".17g") == ["_CSV_ROW", "_ROW", "_cmd_scan", "_cmd_scan"]
    assert _readers(source, "_CSV_ROW") == [None, "_csv_rows", "_cmd_scan"]


def _repr_callers(source: str) -> list:
    """Where ``source`` calls ``repr`` or converts with ``!r`` in an f-string."""
    return _owners(source, lambda node: isinstance(node, ast.Call) and _name(node.func) == "repr"
                   or isinstance(node, ast.FormattedValue) and node.conversion == ord("r"))


def test_json_row_owns_the_shortest_repr():
    # the numpy writer's digits are proved equal to repr's, and _JSON_ROW
    # renders every row the numpy writer cannot: one spelling, one reader,
    # and no other repr in the module that writes the scan files (the JSON
    # writer's own is its error message)
    source = Path(cli.__file__).read_text(encoding="utf-8")
    assert _spellers(source, "%r") == ["_JSON_ROW"]
    assert _readers(source, "_JSON_ROW") == ["_scan_json"]
    assert _repr_callers(source) == ["_scan_json"]


def test_a_second_shortest_repr_format_or_reader_is_found():
    source = textwrap.dedent(r"""
        _JSON_ROW = "    {\n" + ",\n".join(f'      "{c}": %r' for c in COLUMNS) + "\n    }"
        _PAIR = "%r, %r"
        INDENT = _JSON_ROW.index("{")
        def _scan_json(inputs, values):
            rows = _rows(values, ",\n" + _JSON_ROW, shortest=True)
            raise ValueError(f"not JSON compliant: {values[0]!r}")
        def _cmd_scan(args):
            text = "%r" % args.row[0] + repr(args.row[1]) + f"{args.area!r}{args.count}"
            return cli._JSON_ROW % args.row
    """)
    assert _spellers(source, "%r") == ["_JSON_ROW", "_PAIR", "_cmd_scan"]
    assert _readers(source, "_JSON_ROW") == [None, "_scan_json", "_cmd_scan"]
    assert _repr_callers(source) == ["_scan_json", "_cmd_scan", "_cmd_scan"]


_IMPORTERS = ("import_module", "find_spec", "__import__")


def _scipy_importers(source: str) -> list:
    """Where ``source`` imports scipy or a scipy module: by an ``import``
    statement, or by a call of ``import_module``, ``find_spec`` or
    ``__import__`` on its name."""
    def names_scipy(name):
        return isinstance(name, str) and (name == "scipy" or name.startswith("scipy."))

    return _owners(source, lambda node: (
        isinstance(node, ast.Import) and any(names_scipy(a.name) for a in node.names)
        or isinstance(node, ast.ImportFrom) and names_scipy(node.module)
        or isinstance(node, ast.Call) and _name(node.func) in _IMPORTERS and node.args
        and isinstance(node.args[0], ast.Constant) and names_scipy(node.args[0].value)
    ))


@pytest.mark.parametrize("filename", MODULE_FILES)
def test_specfun_owns_the_scipy_ufuncs(filename):
    # scipy.special's package import is never run by envdet, and the three
    # ufuncs reach the other modules as specfun's gammaln, psi and hurwitz_zeta
    source = Path(envdet.__file__).with_name(filename).read_text(encoding="utf-8")
    expected = (
        (["_scipy_ufuncs", "_scipy_ufuncs"], ["_scipy_ufuncs", None, None, None])
        if filename == "specfun.py" else ([], [])
    )
    assert (_scipy_importers(source), _readers(source, "_ufuncs")) == expected


def test_a_second_scipy_import_or_ufuncs_reader_is_found():
    source = textwrap.dedent("""
        import numpy as np, scipy.special
        from scipy import special as _sp
        from .specfun import _ufuncs
        _GAMMALN = _ufuncs.gammaln
        def _log_c(p):
            return _sp.gammaln(p.a1) + specfun._ufuncs.psi(p.a2)
        def _load():
            importlib.import_module("scipy.special._ufuncs")
            importlib.import_module("numpy.linalg")
            return __import__("scipy").special, importlib.util.find_spec("scipy.special")
    """)
    assert _scipy_importers(source) == [None, None, "_load", "_load", "_load"]
    assert _readers(source, "_ufuncs") == [None, "_log_c"]


def _dedekind_shortcuts(source: str) -> list:
    """What ``dedekind_sum`` in ``source`` calls of a function ``source``
    defines at module level, itself included, or of a name that says
    "dedekind", "reciproc" or "euclid", and each function it defines inside
    itself, in source order: a sum by reciprocity or a Euclid-like recursion,
    which would make criterion 8 check the law against itself."""
    tree = ast.parse(source)
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    function = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "dedekind_sum")
    found = []
    for node in ast.walk(function):
        if node is not function and isinstance(node, (ast.FunctionDef, ast.Lambda)):
            found.append((node.lineno, node.col_offset, f"def {getattr(node, 'name', 'lambda')}"))
        elif isinstance(node, ast.Call):
            name = _name(node.func) or ""
            if name in defined or any(word in name.lower()
                                      for word in ("dedekind", "reciproc", "euclid")):
                found.append((node.lineno, node.col_offset, ast.unparse(node.func)))
    return [what for _line, _col, what in sorted(found)]


def test_dedekind_sum_sums_its_definition_directly():
    assert _dedekind_shortcuts(Path(barnes.__file__).read_text(encoding="utf-8")) == []


def test_a_dedekind_sum_by_reciprocity_is_found():
    source = textwrap.dedent("""
        def _reciprocal_part(q, p):
            return Fraction(p * p + q * q + 1, 12 * p * q) - Fraction(1, 4)
        def dedekind_sum(q, p):
            q, p = _whole(q, "q", 1, math.inf), _whole(p, "p", 1, _PQ_MAX)
            if q > p:
                return dedekind_sum(q % p, p)
            step = lambda a, b: euclid_step(b % a, a)
            def swap(a, b):
                return _reciprocal_part(a, b) - barnes.dedekind_sum(b, a)
            return swap(q, p) + step(q, p) + specfun.reciprocity(q, p) + Fraction(math.gcd(p, q))
    """)
    assert _dedekind_shortcuts(source) == [
        "dedekind_sum", "def lambda", "euclid_step", "def swap", "_reciprocal_part",
        "barnes.dedekind_sum", "specfun.reciprocity",
    ]


# numpy's set operations that run np.unique's plain path, which calls
# np.ma.is_masked and so imports numpy.ma on first use (in1d is numpy's
# older isin)
_MA_SET_OPERATIONS = {
    "unique", "unique_values", "union1d", "intersect1d", "setdiff1d", "setxor1d", "isin", "in1d",
}


def _ma_set_operations(source: str) -> list:
    """Where ``source`` names one of ``_MA_SET_OPERATIONS``: as an attribute
    of ``np`` or ``numpy``, or in a ``from numpy import``."""
    return _owners(source, lambda node: (
        isinstance(node, ast.Attribute) and node.attr in _MA_SET_OPERATIONS
        and _name(node.value) in ("np", "numpy")
        or isinstance(node, ast.ImportFrom) and node.module == "numpy"
        and any(a.name in _MA_SET_OPERATIONS for a in node.names)
    ))


@pytest.mark.parametrize("filename", MODULE_FILES)
def test_no_module_calls_a_set_operation_that_imports_numpy_ma(filename):
    # numpy.ma costs 8-24 ms and about 0.8 MB on its first import, which
    # would land on the first scan of every process
    source = Path(envdet.__file__).with_name(filename).read_text(encoding="utf-8")
    assert _ma_set_operations(source) == []


def test_a_set_operation_that_imports_numpy_ma_is_found():
    source = textwrap.dedent("""
        import numpy as np
        from numpy import isin, sort
        _UNIQUE = np.unique
        def scan(b, eb):
            return np.union1d(b, eb), numpy.setdiff1d(b, eb), np.sort(b), np.unique_counts(b)
        def _exact(b):
            return b[np.isin(b, [0.5])], unique(b), b.unique
    """)
    assert _ma_set_operations(source) == [None, None, "scan", "scan", "_exact"]
