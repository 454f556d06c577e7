"""The package surface: every exported name resolves, and every error
type the package declares is one it raises."""

import ast
import dataclasses
import inspect
import pathlib

import hypq
from hypq import errors

SRC = pathlib.Path(hypq.__file__).parent


def _raised_names():
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_type_is_raised_somewhere():
    declared = {
        name
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.HypqError) and cls is not errors.HypqError
    }
    assert declared
    assert sorted(declared - _raised_names()) == []


def test_every_export_resolves():
    assert len(set(hypq.__all__)) == len(hypq.__all__)
    for name in hypq.__all__:
        assert getattr(hypq, name, None) is not None, name


def _heading_rules():
    """(module, function) for each function that picks an end of a line
    for a ray: it calls ideal_endpoints and reads a ray's origin or
    direction, an angle, or the ray's axis frame."""
    found = set()
    for path in SRC.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            attrs = {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
            names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
            reads = (attrs | names) & {"origin", "direction", "phase", "_ray_frame"}
            if "ideal_endpoints" in attrs and reads:
                found.add((path.stem, fn.name))
    return found


def _names(path):
    """Every name a module uses, defines, imports or passes as a keyword."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.update((node.name, node.asname))
        elif isinstance(node, (ast.keyword, ast.arg)):
            names.add(node.arg)
    return names


def test_each_line_decision_has_one_home():
    # a line's signed distance goes through its own axis map, not a
    # helper that takes a map from outside ...
    names = set().union(*map(_names, SRC.glob("*.py")))
    assert "_axis_distance" not in names
    # ... and which way a ray runs is decided in one place
    assert _heading_rules() == {("sectors", "ideal_endpoint")}


def _defined(tree):
    """The names of every function and class a parsed module defines."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def _class(tree, name):
    """The top-level class of this name in a parsed module."""
    (found,) = (
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == name
    )
    return found


def test_sectors_carry_no_membership():
    # a sector copy is its rays and a witness; membership lives in the
    # test oracle
    tree = ast.parse((SRC / "sectors.py").read_text(encoding="utf-8"))
    defined = _defined(tree)
    gone = {
        "contains",
        "clearance",
        "side_signs",
        "CornerPatch",
        "assign_region",
        "ring_partition",
        "RingReport",
    }
    assert defined & gone == set()
    boundary = _class(tree, "SectorBoundary")
    fields = [
        node.target.id for node in boundary.body if isinstance(node, ast.AnnAssign)
    ]
    assert fields == [
        "pair", "scheme", "kind", "vertex", "rays", "witness", "copy_index"
    ]


def test_a_placed_sector_is_its_tree_and_tiles():
    # SpanningTree.node is the one node lookup, and a placed sector holds
    # each node once: in its tree, with one tile per node id
    gone = {"SectorNode", "kind_of", "parent_of", "children_of"}
    for path in SRC.glob("*.py"):
        defined = _defined(ast.parse(path.read_text(encoding="utf-8")))
        assert sorted(defined & gone) == [], path.stem
    dual = ast.parse((SRC / "dual.py").read_text(encoding="utf-8"))
    sector = _class(dual, "SectorTree")
    members = _defined(sector) | {
        node.target.id for node in sector.body if isinstance(node, ast.AnnAssign)
    }
    assert sorted(members & {"nodes", "levels"}) == []


def test_placing_a_sector_looks_up_no_node(monkeypatch):
    from hypq import dual, tree

    calls = []
    lookup = tree.SpanningTree.node

    def counted(self, node_id):
        calls.append(node_id)
        return lookup(self, node_id)

    monkeypatch.setattr(tree.SpanningTree, "node", counted)
    sector = dual.pentagrid_sector(6)
    assert len(calls) == 0
    assert len(sector.tiles) == sector.tree.size == 609


def _scheme_fact_sites():
    """(module, line) of each place outside schlafli.py that works out a
    scheme fact itself: a head region picked as ``Region.S0_PRIME if ...
    else Region.S0``, or a parity test ``% 2`` (lines.py keeps the one
    that refuses even q for its walks)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "schlafli":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.IfExp):
                picks = [
                    branch.attr
                    for branch in (node.body, node.orelse)
                    if isinstance(branch, ast.Attribute)
                ]
                if picks == ["S0_PRIME", "S0"]:
                    found.append((path.stem, node.lineno))
            elif (
                path.stem != "lines"
                and isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Mod)
                and isinstance(node.right, ast.Constant)
                and node.right.value == 2
            ):
                found.append((path.stem, node.lineno))
    return found


def test_each_scheme_fact_has_one_home():
    # the head region, the doubling and the auto choice live on Scheme
    # and schlafli.auto_schemes
    assert _scheme_fact_sites() == []


def test_the_regularity_verdict_is_exact():
    # the verdict is decided by integer sign tests: no float margin, no
    # "indeterminate" outcome, and no second copy of the verdict
    gone = {
        "UNIT_MARGIN",
        "REASON_INDETERMINATE",
        "pair_modulus_sq",
        "others",
        "certificate",
    }
    for path in SRC.glob("*.py"):
        assert sorted(_names(path) & gone) == [], path.stem
        assert "IndeterminateModulus" not in path.read_text(encoding="utf-8")
    # _verdict and the functions of spectral.py that it calls, transitively,
    # hold no float constant
    tree = ast.parse((SRC / "spectral.py").read_text(encoding="utf-8"))
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    reached, todo = set(), ["_verdict"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [
                node.id
                for node in ast.walk(functions[name])
                if isinstance(node, ast.Name) and node.id in functions
            ]
    floats = [
        (name, node.lineno)
        for name in sorted(reached)
        for node in ast.walk(functions[name])
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
    ]
    assert floats == []


def _parameters(fn):
    return list(inspect.signature(fn).parameters)


def _init_fields(cls):
    return [f.name for f in dataclasses.fields(cls) if f.init]


def test_single_value_options_are_gone():
    # a value the inputs already carry is read from them, and a value
    # with one use is a constant
    from hypq import disc, dual, numeration, render, tiling, tree

    assert _parameters(numeration.represent_maximal) == ["value", "seq"]
    assert _parameters(numeration.enumerate_language) == ["seq", "max_len"]
    assert _parameters(numeration.find_maximal_ties) == ["seq", "max_len"]
    assert _parameters(numeration._survey) == ["seq", "max_len", "limit"]
    basis = numeration.BasisSequence
    assert _init_fields(basis) == ["terms", "coefficients", "digit_bound"]
    assert [f.name for f in dataclasses.fields(basis)] == [
        "terms", "coefficients", "digit_bound", "_search"
    ]
    assert _parameters(basis._table) == ["self"]
    assert _parameters(tiling.SpatialIndex) == []
    assert _init_fields(tiling.Tessellation) == [
        "pair", "generations", "tiles", "_centers"
    ]
    assert not hasattr(tiling.Tessellation, "_ensure_vertices")
    assert _init_fields(tree.SpanningTree) == ["system", "depth", "levels"]
    assert _parameters(render.midlines_scene) == ["pair", "generations"]
    assert _parameters(render.zigzag_scene) == ["pair", "generations"]
    assert _parameters(dual.dual_scene) == ["depth"]
    about = inspect.signature(disc.rotation).parameters["about"]
    assert about.default is inspect.Parameter.empty


def test_second_routes_are_gone():
    # each value has one route: the node cap is an argument, a sector
    # copy comes from its cover, a report stores only what is read, and
    # a layer reaches no other layer's private helper
    from hypq import dual, sectors, spectral

    for path in SRC.glob("*.py"):
        assert sorted(_names(path) & {"environ", "getenv"}) == [], path.stem
    assert not hasattr(errors, "InvalidNodeCap")
    assert "sector" not in _defined(ast.parse(inspect.getsource(sectors)))
    assert "sector" not in hypq.__all__
    for cls in (spectral.FactorDecomposition, spectral.RootSet):
        names = {f.name for f in dataclasses.fields(cls)}
        assert sorted(names & {"original", "precision"}) == [], cls.__name__
    imports = [
        node
        for node in ast.walk(ast.parse(inspect.getsource(dual)))
        if isinstance(node, ast.ImportFrom)
    ]
    assert [n.module for n in imports if n.module == "render"] == []
