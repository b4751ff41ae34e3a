"""Architecture rules of src/idjc and of the independent model route, checked on parsed source."""

import ast
from pathlib import Path

import pytest

from idjc.scenarios import SCENARIO_NAMES

SRC = Path(__file__).resolve().parents[1] / "src" / "idjc"
TREES = {path.stem: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(SRC.glob("*.py"))}


def package_imports(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) for every import from inside idjc; name is "" for a whole module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("idjc"):
                continue
            module = module.removeprefix("idjc").lstrip(".")
            for alias in node.names:
                found.add((module, alias.name) if module else (alias.name, ""))
        elif isinstance(node, ast.Import):
            found |= {(alias.name.removeprefix("idjc."), "") for alias in node.names
                      if alias.name.startswith("idjc.")}
    return found


def mentions(node: ast.AST, name: str) -> bool:
    """Whether name occurs under node as a variable, an attribute or an imported name."""
    return any((isinstance(sub, ast.Name) and sub.id == name)
               or (isinstance(sub, ast.Attribute) and sub.attr == name)
               or (isinstance(sub, ast.alias) and sub.name == name)
               for sub in ast.walk(node))


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_names_taken(tree: ast.AST) -> set[str]:
    """Dotted package names with a private part that tree imports or reaches through an import.

    A name imported from inside idjc resolves to its module path, so
    DensityMatrix._owned after "from .fock import DensityMatrix" reads
    fock.DensityMatrix._owned, and husimi._grid_corner_sq after "from . import
    husimi" reads as written.
    """
    local = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("idjc")):
            module = (node.module or "").removeprefix("idjc").lstrip(".")
            for alias in node.names:
                local[alias.asname or alias.name] = f"{module}.{alias.name}".lstrip(".")
    found = {path for path in local.values() if any(map(is_private, path.split(".")))}
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in local and any(map(is_private, chain)):
            found.add(".".join([local[node.id], *chain]))
    return found


#: Every private name one module of src/idjc takes from another, by taking module.
PRIVATE_NAMES_TAKEN = {
    "cli": {"scenarios._SCENARIOS"},
    "dynamics": {"fock.DensityMatrix._owned"},
    "husimi": {"dynamics._branch_block", "dynamics._branch_fidelities", "dynamics._checked_sweep",
               "fock._coherent_amplitudes"},
    "scenarios": {"husimi._grid_corner_sq"},
}


def test_private_names_cross_modules_only_as_listed():
    taken = {stem: names for stem, tree in TREES.items() if (names := private_names_taken(tree))}
    assert taken == PRIVATE_NAMES_TAKEN


def test_closed_form_imports_only_catspec_and_default_dim_from_the_engine():
    imports = package_imports(TREES["closed_form"])
    assert not {module for module, _ in imports} & {"dynamics", "husimi", "scenarios"}
    assert {name for module, name in imports if module == "fock"} == {"CatSpec", "default_dim"}


def test_invalid_cat_is_raised_only_by_catspec():
    raisers = {stem for stem, tree in TREES.items() for node in ast.walk(tree)
               if isinstance(node, ast.Raise) and node.exc is not None
               and mentions(node.exc, "InvalidCat")}
    assert raisers == {"fock"}


@pytest.mark.parametrize("constant", ["SERIES_TAIL_TOL", "DEFAULT_TAIL_TOL", "DEFAULT_GUARD_TOL",
                                      "DEFAULT_TAIL_LEAK_TOL"])
def test_each_truncation_tolerance_is_compared_once(constant):
    compares = [(stem, node.lineno) for stem, tree in TREES.items() for node in ast.walk(tree)
                if isinstance(node, ast.Compare) and mentions(node, constant)]
    assert len(compares) == 1, compares


def test_no_call_overrides_a_truncation_rule():
    """No tolerance keyword, and q_mixture_closed sizes its series itself."""
    def params(node):
        return [arg.arg for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]

    overrides = [(stem, node.name) for stem, tree in TREES.items() for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and {"tail_tol", "guard_tol"} & set(params(node))]
    assert overrides == []
    assert "n_terms" not in params(function(TREES["closed_form"], "q_mixture_closed"))


def test_sweep_tau_block_is_referenced_only_in_dynamics():
    """Outside its definition, one function reads it: the walk, dynamics._checked_sweep."""
    users = {stem for stem, tree in TREES.items() if mentions(tree, "SWEEP_TAU_BLOCK")}
    assert users == {"dynamics"}
    readers = {node.name for node in ast.walk(TREES["dynamics"])
               if isinstance(node, ast.FunctionDef) and mentions(node, "SWEEP_TAU_BLOCK")}
    assert readers == {"_checked_sweep"}


def function(tree: ast.AST, name: str) -> ast.FunctionDef:
    (found,) = [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name]
    return found


def calls(node: ast.AST, name: str) -> list[ast.Call]:
    """Calls of name under node, bare or as an attribute, not calls on what it returns."""
    return [sub for sub in ast.walk(node) if isinstance(sub, ast.Call)
            and getattr(sub.func, "id", getattr(sub.func, "attr", None)) == name]


def test_one_function_walks_the_tau_blocks():
    """dynamics._checked_sweep alone takes _branch_weights of a block of taus.

    Every other call passes one tau, a constant or params.tau, and husimi
    takes its blocks' trigonometry from the walk without calling the helper.
    """
    def one_tau(arg: ast.AST) -> bool:
        return isinstance(arg, ast.Constant) or (isinstance(arg, ast.Attribute)
                                                 and arg.attr == "tau")

    walkers = {(stem, node.name) for stem, tree in TREES.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and any(not one_tau(call.args[0]) for call in calls(node, "_branch_weights"))}
    assert walkers == {("dynamics", "_checked_sweep")}
    assert not calls(TREES["husimi"], "_branch_weights")


def test_engine_inputs_are_checked_in_one_prologue_per_path():
    """dynamics owns the rules on its inputs, and scenarios forms no pair frequency.

    EvolutionParams refuses an overflowing ordinary phase; each engine path
    checks a state and takes the weights of its params in one prologue,
    _checked_weights per call or _checked_sweep for both sweeps, and only the
    Kraus branches, which take no state, take those weights directly.
    """
    assert not calls(TREES["scenarios"], "sqrt")

    def callers(name, takes=lambda call: True):
        return {(stem, node.name) for stem, tree in TREES.items() for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and any(map(takes, calls(node, name)))}

    assert callers("_check_tail") == {("dynamics", "_checked_weights"),
                                      ("dynamics", "_checked_sweep")}
    on_params = callers("_branch_weights", lambda call: ast.unparse(call.args[0]) == "params.tau")
    assert on_params == {("dynamics", name)
                         for name in ("_checked_weights", "kraus_diag", "kraus_shift")}


def test_branch_overlaps_have_one_kernel():
    """dynamics._branch_fidelities gives every target fidelity, Q value and Q guard population.

    q_sweep squares and contracts no overlap itself, and the pair products
    serve only the ensemble's own purity, paired with its own rows.
    """
    kernel = "_branch_fidelities"
    assert [stem for stem, tree in TREES.items() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == kernel] == ["dynamics"]
    assert len(calls(function(TREES["dynamics"], "sweep_branches"), kernel)) == 1
    q_sweep = function(TREES["husimi"], "q_sweep")
    assert len(calls(q_sweep, kernel)) == 2  # the guard's top two levels and each grid row
    assert not [node.lineno for node in ast.walk(q_sweep) if isinstance(node, ast.BinOp)
                and isinstance(node.op, (ast.Pow, ast.MatMult))]
    assert not mentions(TREES["husimi"], "_abs2")
    pairs = [call for tree in TREES.values() for call in calls(tree, "_pair_products")]
    assert [[ast.unparse(arg) for arg in call.args] for call in pairs] == [["vecs", "src", "dst"]]


def test_scenarios_are_read_off_one_table():
    """No comparison in src/idjc names a scenario, and one table keys on scenario names.

    What differs between scenarios (runner, keys read, coupling) is a field of
    that table, which run_scenario dispatches through and _read_and_check reads.
    """
    names = set(SCENARIO_NAMES)
    compares = [(stem, node.lineno) for stem, tree in TREES.items() for node in ast.walk(tree)
                if isinstance(node, ast.Compare) and any(isinstance(sub, ast.Constant)
                                                         and sub.value in names
                                                         for sub in ast.walk(node))]
    assert compares == []
    keyed = [node for tree in TREES.values() for node in ast.walk(tree)
             if isinstance(node, ast.Dict)
             and any(getattr(key, "value", None) in names for key in node.keys)]
    assert len(keyed) == 1, [node.lineno for node in keyed]
    (table,) = [node.targets[0].id for node in TREES["scenarios"].body
                if isinstance(node, ast.Assign) and node.value is keyed[0]]
    for reader in ("run_scenario", "_read_and_check"):
        assert mentions(function(TREES["scenarios"], reader), table), reader


def test_type_rules_live_only_in_config_from_mapping():
    """validate_config reads every config through config_from_mapping and keeps only ranges."""
    tree = TREES["scenarios"]
    reader = {id(node) for node in ast.walk(function(tree, "config_from_mapping"))}
    type_rules = [node for node in ast.walk(tree)
                  if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                      and node.id in ("_INT_FIELDS", "_FLOAT_FIELDS"))
                  or (isinstance(node, ast.Call) and mentions(node.func, "isinstance"))]
    assert [node.lineno for node in type_rules if id(node) not in reader] == []
    assert any(isinstance(node, ast.Call) and mentions(node.func, "isinstance")
               and mentions(node.args[1], "bool") for node in type_rules)


def test_scenarios_runs_the_grid_rule_once():
    calls = [node.lineno for node in ast.walk(TREES["scenarios"])
             if isinstance(node, ast.Call) and mentions(node.func, "_grid_corner_sq")]
    assert len(calls) == 1, calls
    assert not any(mentions(tree, "_q_series_levels") for tree in TREES.values())


def test_one_function_compares_with_the_self_check_tolerance():
    comparers = [(stem, node.name) for stem, tree in TREES.items() for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and any(isinstance(sub, ast.Compare) and mentions(sub, "SELF_CHECK_ATOL")
                         for sub in ast.walk(node))]
    assert len(comparers) == 1, comparers


def test_only_run_scenario_reads_self_check():
    tree = TREES["scenarios"]
    inside = {id(node) for node in ast.walk(function(tree, "run_scenario"))}
    readers = [node.lineno for node in ast.walk(tree)
               if ((isinstance(node, ast.Name) and node.id == "self_check")
                   or (isinstance(node, (ast.arg, ast.keyword)) and node.arg == "self_check"))
               and id(node) not in inside]
    assert readers == []


@pytest.mark.parametrize("oracle", ["purity_mixture_closed", "inversion_cat_closed"])
def test_scenarios_call_each_scalar_oracle_at_one_site(oracle):
    calls = [node.lineno for node in ast.walk(TREES["scenarios"])
             if isinstance(node, ast.Call) and mentions(node.func, oracle)]
    assert len(calls) == 1, calls


def test_the_hamiltonian_route_uses_no_engine_weights():
    """tests/test_model.py is a reference only while it restates none of the engine's map."""
    path = Path(__file__).resolve().parent / "test_model.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    engine = {node.name for node in ast.walk(TREES["dynamics"])
              if isinstance(node, ast.FunctionDef) and node.name.startswith("kraus_")}
    assert not [name for name in engine | {"_branch_weights"} if mentions(tree, name)]



def test_scenarios_format_cells_at_one_site():
    """_write_csv formats every CSV cell, and nothing keys a cache on id().

    Its two % are the only ones in scenarios.py: the key pass, which formats a
    block's key cells into a row template, and the fill of each table's values.
    """
    tree = TREES["scenarios"]
    writer = {id(node) for node in ast.walk(function(tree, "_write_csv"))}
    mods = [node for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)]
    assert len(mods) == 2 and all(id(node) in writer for node in mods), \
        [node.lineno for node in mods]
    formats = [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.Call) and mentions(node.func, "format")]
    assert formats == []
    id_calls = [(stem, node.lineno) for stem, tree in TREES.items() for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "id"]
    assert id_calls == []
