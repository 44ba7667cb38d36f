"""Static checks on the package source."""

import ast
import dataclasses
import importlib
import inspect
from collections import Counter
from pathlib import Path

import gqclab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gqclab"

JUMPS = (ast.Return, ast.Raise, ast.Break, ast.Continue)

#: a block of each kind with a statement after its jump, on lines 4, 7, 11
SAMPLE = """\
def f(x):
    for y in x:
        continue
        y += 1
    try:
        raise ValueError
        x = 0
    finally:
        pass
    return x
    x = 1
"""


def unreachable_lines(tree: ast.AST) -> list:
    """Sorted line of every statement that follows a jump in the same block."""
    lines = []
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for stmt, after in zip(block, block[1:]):
                if isinstance(stmt, JUMPS):
                    lines.append(after.lineno)
                    break
    return sorted(lines)


def test_no_statement_follows_a_jump():
    assert unreachable_lines(ast.parse(SAMPLE)) == [4, 7, 11]
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in unreachable_lines(ast.parse(path.read_text()))
    ]
    assert found == []


#: one private helper with a caller (through ``partial``) and one without
HELPERS_SAMPLE = """\
from functools import partial

def _called(x):
    return x

def _uncalled(x):
    return x

def public(x):
    return partial(_called, x)()
"""


def name_counts(node: ast.AST) -> Counter:
    """How often the subtree of ``node`` refers to each name, as a Name or
    as an Attribute."""
    return Counter(
        child.id if isinstance(child, ast.Name) else child.attr
        for child in ast.walk(node)
        if isinstance(child, (ast.Name, ast.Attribute))
    )


def unreferenced_functions(trees: dict, used: Counter, chosen) -> list:
    """Sorted ``module:name`` of each module-level function of ``trees``
    (name -> ast.Module) whose name ``chosen`` accepts and that the
    references ``used`` (name -> count) name no more often than the
    function's own definition does."""
    return sorted(
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and chosen(node.name)
        and used[node.name] <= name_counts(node)[node.name]
    )


def uncalled_private_helpers(trees: dict) -> list:
    """Sorted ``module:name`` of each module-level private function that no
    tree in ``trees`` (name -> ast.Module) refers to."""
    used = sum(map(name_counts, trees.values()), Counter())
    return unreferenced_functions(
        trees, used, lambda name: name.startswith("_") and not name.startswith("__")
    )


def test_every_private_helper_has_a_src_caller():
    sample = {"sample.py": ast.parse(HELPERS_SAMPLE)}
    assert uncalled_private_helpers(sample) == ["sample.py:_uncalled"]
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    assert uncalled_private_helpers(trees) == []


def test_only_the_ensemble_calls_the_engines():
    """evolve_exact_batch and stochastic_phase_batch have one caller module,
    the ensemble pipeline that both Monte Carlo experiments run through."""
    engines = {"evolve_exact_batch", "stochastic_phase_batch"}
    importers = {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and engines & {alias.name for alias in node.names}
    }
    assert importers == {"ensemble.py"}


def test_one_adiabaticity_check_per_run():
    """check_adiabatic, which warns or raises, has one caller in the package:
    the ensemble pipeline's up-front refusals.  Anything else that reports
    the ratios reads adiabatic_ratios, so a run warns once."""
    callers = [
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None))
        == "check_adiabatic"
    ]
    assert callers == ["ensemble.py"]


def cpu_reads(tree: ast.AST) -> int:
    """Reads in ``tree`` of os.sched_getaffinity or os.cpu_count, as an
    attribute or as getattr's string."""
    names = {"sched_getaffinity", "cpu_count"}
    return sum(
        isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.Constant) and node.value in names
        for node in ast.walk(tree)
    )


def test_one_owner_of_the_worker_count():
    """noise._worker_count alone decides how many processes run the
    per-path work, and is alone in reading the usable CPUs; the CLI records
    its answer and imports no private name of the pipeline's modules."""
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(trees["cli.py"])
        if isinstance(node, ast.ImportFrom) and node.module in ("ensemble", "gate")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
    [owner] = [
        node
        for node in trees["noise.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "_worker_count"
    ]
    assert cpu_reads(owner) == sum(map(cpu_reads, trees.values())) > 0


def test_the_noise_coupling_is_stated_in_closed_form():
    """Gamma_s and the overlap read QubitHamiltonian.level_coupling: they
    build no eigenframe, and the Pauli operators and their eigenstate
    expectations live only in the tests, as the closed form's oracle."""
    for module, name in (
        ("adiabatic", "_phase_weights"),
        ("adiabatic", "stochastic_phase_batch"),
        ("ensemble", "_normal_weights"),
        ("ensemble", "_segment_overlap"),
    ):
        function = getattr(importlib.import_module(f"gqclab.{module}"), name)
        source = inspect.getsource(function)
        called = {
            getattr(node.func, "attr", getattr(node.func, "id", None))
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
        }
        assert "level_coupling" in called or "_phase_weights" in called
        assert "eigenframe" not in called
    text = "".join(path.read_text() for path in SRC.glob("*.py"))
    for word in ("noise_operators", "operator_expectations", "PAULI", "SIGMA_"):
        assert word not in text


SPANS = ROOT / "perfbench" / "spans.py"


def _module_level(tree: ast.Module, name: str) -> ast.expr:
    """The value assigned to ``name`` at the top level of ``tree``."""
    [value] = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == [name]
    ]
    return value


def test_every_function_the_benchmark_tracer_wraps_exists():
    """``perfbench/spans.py``'s WRAPPED names the gqclab functions that a
    traced benchmark run wraps, each fetched with ``getattr``: a name that
    is gone breaks ``perfbench/run.py --trace 1``.  WRAPPED is read from the
    source, without importing the benchmark."""
    wrapped = ast.literal_eval(_module_level(ast.parse(SPANS.read_text()), "WRAPPED"))
    missing = [
        f"gqclab.{layer}.{name}"
        for layer, names in wrapped.items()
        for name in names
        if not hasattr(importlib.import_module(f"gqclab.{layer}"), name)
    ]
    assert wrapped and missing == []


def test_every_argument_the_benchmark_tracer_reads_is_a_parameter():
    """The WORK counters of ``perfbench/spans.py`` read a wrapped call's
    bound arguments by name, as ``a["slices"]``: a renamed parameter breaks
    only ``perfbench/run.py --trace 1``.  Each name read from a counter's
    first argument must be a parameter of the function it counts.  WORK is
    read from the source, without importing the benchmark."""
    tree = ast.parse(SPANS.read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    work = _module_level(tree, "WORK")
    read = []
    for key, counters in zip(work.keys, work.values):
        layer, name = ast.literal_eval(key).split(".")
        fn = getattr(importlib.import_module(f"gqclab.{layer}"), name)
        for counter in counters.values:
            counter = defs.get(getattr(counter, "id", None), counter)
            arguments = counter.args.args[0].arg
            read += [
                (fn, ast.literal_eval(node.slice))
                for node in ast.walk(counter)
                if isinstance(node, ast.Subscript)
                and getattr(node.value, "id", None) == arguments
            ]
    assert read
    assert [
        (fn.__name__, arg)
        for fn, arg in read
        if arg not in inspect.signature(fn).parameters
    ] == []


#: public functions whose caller outside the tests is still to come
AWAITING_A_CALLER = {"transverse_magnetization", "dft_phase_variance"}

#: one public function with a caller and one that only calls itself
PUBLIC_SAMPLE = """\
def used(x):
    return x

def recursive(x):
    return recursive(x)

used(1)
"""


def test_every_public_function_has_a_caller_outside_the_tests():
    """Each function that gqclab exports is referenced outside its own
    definition by the package, the demos or the benchmark, whose tracer
    fetches the functions of its WRAPPED table by name.  Classes and
    exceptions are exempt."""
    sample = ast.parse(PUBLIC_SAMPLE)
    found = unreferenced_functions({"lib.py": sample}, name_counts(sample), bool)
    assert found == ["lib.py:recursive"]
    exported = set(gqclab.__all__) - AWAITING_A_CALLER
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    callers = [
        ast.parse(path.read_text())
        for folder in (SRC, ROOT / "demos", ROOT / "perfbench")
        for path in folder.glob("*.py")
    ]
    wrapped = ast.literal_eval(_module_level(ast.parse(SPANS.read_text()), "WRAPPED"))
    used = sum(map(name_counts, callers), Counter(sum(wrapped.values(), ())))
    assert unreferenced_functions(trees, used, exported.__contains__) == []
    assert AWAITING_A_CALLER <= set(gqclab.__all__)  # no stale exemption


#: the dataclasses whose fields are the library's options
OPTIONS = ("NoiseSpec", "ControlSchedule", "QubitHamiltonian", "EnsembleConfig")

#: one call that passes ``b`` by keyword, and ``c`` only as a dict key
OPTIONS_SAMPLE = """\
f(1, b=2, **{"c": 3})
"""


def keyword_arguments(trees) -> set:
    """The name of every argument that a call in ``trees`` passes by keyword,
    ``name=value``."""
    return {
        keyword.arg
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for keyword in node.keywords
    }


def test_every_option_is_set_outside_the_tests():
    """Each field of the OPTIONS dataclasses is passed by keyword somewhere
    in the package, the demos or the benchmark, the option-level twin of
    the public-caller check: a field that only the tests set is an option
    that does nothing."""
    assert keyword_arguments([ast.parse(OPTIONS_SAMPLE)]) == {"b", None}
    used = keyword_arguments(
        ast.parse(path.read_text())
        for folder in (SRC, ROOT / "demos", ROOT / "perfbench")
        for path in folder.glob("*.py")
    )
    unset = [
        f"{name}.{field.name}"
        for name in OPTIONS
        for field in dataclasses.fields(getattr(gqclab, name))
        if field.name not in used
    ]
    assert unset == []


#: the defaulted parameters of two functions and two methods: f's c and
#: K's x are passed by no call
PARAMETERS_SAMPLE = """\
def f(a, b=1, c=2, *, d=3):
    return a

def g(a=0):
    return a

class K:
    def __init__(self, x=0):
        self.x = x

    def m(self, y=1):
        return y

f(0, 1, d=4)
g(**options)
K().m(2)
"""


def defaulted_parameters(tree: ast.Module, exported) -> dict:
    """``function:parameter`` -> (called name, parameter, position) for each
    defaulted parameter of a module-level function or a method of a class
    in ``tree`` whose name ``exported`` accepts.  A method is called by its
    name, ``__init__`` by its class's, and its first parameter (self or
    cls) is bound; a keyword-only parameter has no position."""
    found = {}
    for node in tree.body:
        kinds = (ast.FunctionDef, ast.ClassDef)
        if not isinstance(node, kinds) or not exported(node.name):
            continue
        methods = isinstance(node, ast.ClassDef)
        functions = node.body if methods else [node]
        for function in functions:
            if not isinstance(function, ast.FunctionDef):
                continue
            label = f"{node.name}.{function.name}" if methods else node.name
            called = node.name if function.name == "__init__" else function.name
            args = function.args
            positional = (args.posonlyargs + args.args)[methods:]
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                found[f"{label}:{arg.arg}"] = (called, arg.arg, i)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found[f"{label}:{arg.arg}"] = (called, arg.arg, None)
    return found


def passed_arguments(trees) -> set:
    """(called name, parameter name or position) of every argument that a
    call in ``trees`` passes; a ``*args`` or ``**kwargs`` passes "*", every
    parameter."""
    passed = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            for i, arg in enumerate(node.args):
                passed.add((name, "*" if isinstance(arg, ast.Starred) else i))
            passed |= {(name, keyword.arg or "*") for keyword in node.keywords}
    return passed


def unpassed_parameters(parameters: dict, passed: set) -> list:
    """Sorted ``function:parameter`` of each of ``parameters`` (as from
    ``defaulted_parameters``) that ``passed`` passes by no name, position
    or ``*``."""
    return sorted(
        label
        for label, (called, name, position) in parameters.items()
        if not passed & {(called, name), (called, position), (called, "*")}
    )


def test_every_parameter_is_passed_outside_the_tests():
    """Each defaulted parameter of a function that gqclab or gqclab.cli
    exports, or of a method of an exported class, is passed by keyword, by
    position or through ``*args``/``**kwargs`` by some call in the package,
    the demos or the benchmark, the parameter-level twin of the option
    check: a default that only the tests change is an option that does
    nothing.  Calls are matched by the called name, and the functions
    awaiting a caller are exempt."""
    sample = ast.parse(PARAMETERS_SAMPLE)
    parameters = defaulted_parameters(sample, bool)
    found = unpassed_parameters(parameters, passed_arguments([sample]))
    assert found == ["K.__init__:x", "f:c"]
    parameters = {}
    for path in SRC.glob("*.py"):
        name = f"gqclab.{path.stem}".removesuffix(".__init__")
        exported = set(importlib.import_module(name).__all__) - AWAITING_A_CALLER
        parameters.update(
            defaulted_parameters(ast.parse(path.read_text()), exported.__contains__)
        )
    assert "validate_config:experiment" in parameters  # the scan sees the CLI
    passed = passed_arguments(
        ast.parse(path.read_text())
        for folder in (SRC, ROOT / "demos", ROOT / "perfbench")
        for path in folder.glob("*.py")
    )
    assert unpassed_parameters(parameters, passed) == []


#: the library modules whose entry points take numbers
NUMERIC = ("noise", "adiabatic", "ensemble", "gate", "shor")

#: entry points that compare an argument with a fixed bound and raise, each
#: a structural check rather than a number's range
STRUCTURAL = {
    "ensemble.decoherence_sweep": "the level index lies in [0, n_levels)",
    "shor.ShorInstance.__post_init__": "the order r lies in (0, N)",
}

#: two hand-written number checks, one through an alias, a NaN test, and
#: two comparisons that are not range checks (with another argument, and
#: one that returns)
CHECKS_SAMPLE = """\
def f(n, x, y):
    if n < 1:
        raise ValueError
    m, _ = n, y
    if not 0 <= m < np.pi:
        raise ValueError
    if math.isnan(x):
        raise ValueError
    if n < x:
        raise ValueError
    if x > 0:
        return x
"""


def _argument(node: ast.AST, names: set) -> bool:
    """Whether ``node`` reads an argument: a name of ``names`` or a field
    ``self.x``."""
    if isinstance(node, ast.Attribute):
        return getattr(node.value, "id", None) == "self"
    return isinstance(node, ast.Name) and node.id in names


def _bound(node: ast.AST) -> bool:
    """Whether ``node`` is a fixed bound: a number, a negated one, pi, inf
    or an upper-case constant."""
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(node.value, bool)
    if isinstance(node, ast.Attribute):
        return node.attr in ("pi", "inf")
    return isinstance(node, ast.Name) and node.id.isupper()


def _number_check(node: ast.AST, names: set) -> bool:
    """Whether ``node`` compares an argument (``_argument``) with a fixed
    bound by <, <=, > or >=, or calls isnan, isinf or isfinite."""
    if isinstance(node, ast.Call):
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        return name in ("isnan", "isinf", "isfinite")
    order = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    if not isinstance(node, ast.Compare):
        return False
    if not any(isinstance(op, order) for op in node.ops):
        return False
    operands = [node.left, *node.comparators]
    return any(_argument(o, names) for o in operands) and any(map(_bound, operands))


def hand_checks(function: ast.FunctionDef) -> list:
    """Lines of each ``if`` in ``function`` that raises when an argument (a
    parameter, a field ``self.x`` or a name assigned one of them) compares
    with a fixed bound by <, <=, > or >=, or when isnan, isinf or isfinite
    reads anything."""
    names = {arg.arg for arg in function.args.args} - {"self"}
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            targets = target.elts if isinstance(target, ast.Tuple) else [target]
            values = [value] * len(targets)
            if isinstance(value, ast.Tuple):
                values = value.elts
            names |= {
                t.id
                for t, v in zip(targets, values)
                if isinstance(t, ast.Name) and _argument(v, names)
            }
    return sorted(
        node.lineno
        for node in ast.walk(function)
        if isinstance(node, ast.If)
        and any(isinstance(stmt, ast.Raise) for stmt in node.body)
        and any(_number_check(test, names) for test in ast.walk(node.test))
    )


#: names of the finiteness and float-range tests that errors.py owns
FLOAT_TESTS = ("isfinite", "isnan", "OverflowError", "float_info")

#: a config check of each kind that cli.py leaves to errors.py: a value
#: against a bound (lines 2, 4 and 6), a float-range test (line 8) and two
#: comparisons that are not number rules (keys paired, and a function
#: that collects no errors)
CLI_SAMPLE = """\
def check(params, errors):
    if params["cone_angle"] > np.pi:
        errors.append("cone_angle")
    if not 3 <= params["n"] <= MAX_MODULUS or params["b"] == 0:
        errors.append("n")
    if math.gcd(params["n"], params["y"]) != 1:
        errors.append("y")
    if not math.isfinite(params["x"]):
        errors.append("x")
    if len(params["moduli"]) != len(params["bases"]):
        errors.append("moduli")
def cell(value):
    return value if abs(value) < math.inf else None
"""


def cli_number_rules(tree: ast.AST) -> list:
    """Sorted lines where a function that reads ``errors`` compares one
    value with a fixed bound (``_bound``), or where anything mentions a
    name of FLOAT_TESTS."""
    compare = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)
    checks = [
        function
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        and any(getattr(node, "id", None) == "errors" for node in ast.walk(function))
    ]
    bounded = {
        node.lineno
        for function in checks
        for node in ast.walk(function)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, compare) for op in node.ops)
        and any(map(_bound, [node.left, *node.comparators]))
    }
    named = {
        node.lineno
        for node in ast.walk(tree)
        if getattr(node, "id", getattr(node, "attr", None)) in FLOAT_TESTS
    }
    return sorted(bounded | named)


def test_one_owner_of_the_argument_checks():
    """errors._check_count and errors._check_real, defined there alone, check
    every count and real number: no __post_init__ or exported function of
    the numeric modules compares an argument with a fixed bound in an
    ``if`` that raises, or tests it for NaN or inf, but the STRUCTURAL
    ones.  The lag grid, the time-grid uniformity and the Shor register
    relate arguments to each other, and are left as they are.  cli.py
    passes each config value to those checkers: none of its config checks
    compares a single value with a fixed bound, and it mentions no
    finiteness or float-range test.  Its cross-field rules (the power pair,
    the geometry pair, lags on the grid, moduli paired with bases) relate
    keys to each other, and are left as they are."""
    [sample] = ast.parse(CHECKS_SAMPLE).body
    assert hand_checks(sample) == [2, 5, 7]
    assert cli_number_rules(ast.parse(CLI_SAMPLE)) == [2, 4, 6, 8]
    assert cli_number_rules(ast.parse((SRC / "cli.py").read_text())) == []
    owners = [
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        and node.name in ("_check_count", "_check_real")
    ]
    assert owners == ["errors.py:_check_count", "errors.py:_check_real"]
    found = {}
    for module in NUMERIC:
        exported = importlib.import_module(f"gqclab.{module}").__all__
        for node in ast.parse((SRC / f"{module}.py").read_text()).body:
            if getattr(node, "name", None) not in exported:
                continue
            if isinstance(node, ast.FunctionDef):
                functions = [(node.name, node)]
            else:
                functions = [
                    (f"{node.name}.{method.name}", method)
                    for method in node.body
                    if isinstance(method, ast.FunctionDef)
                    and method.name == "__post_init__"
                ]
            for name, function in functions:
                if hand_checks(function):
                    found[f"{module}.{name}"] = hand_checks(function)
    assert sorted(found) == sorted(STRUCTURAL)
    assert all(len(lines) == 1 for lines in found.values()), found
