"""Report serialization and the command-line surface."""

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hypq
from hypq.cli import main
from hypq.errors import SchemeParityMismatch, UnsupportedCase
from hypq.report import (
    _int,
    _ints,
    _write,
    poly_text,
    report_dict,
    report_json,
    report_text,
    reports_json,
)
from hypq.schlafli import Scheme, validate
from hypq.spectral import analyze
from hypq.verify import EVEN_PAIRS, ODD_PAIRS, CheckResult
from sweep_sample import SWEEP_SAMPLE


@pytest.fixture(scope="module")
def even_report():
    return analyze(validate(5, 4), Scheme.EVEN_Q)


@pytest.fixture(scope="module")
def odd_reports():
    pair = validate(5, 7)
    return [analyze(pair, Scheme.ODD_V1), analyze(pair, Scheme.ODD_V2)]


# ---------------------------------------------------------------- report


def test_report_dict_key_order(even_report):
    pairs = json.loads(
        report_json(even_report), object_pairs_hook=lambda p: p
    )
    assert [k for k, _ in pairs] == [
        "pair",
        "scheme",
        "rules",
        "matrix",
        "polynomial",
        "roots",
        "beta",
        "pisot",
        "regular",
        "reason",
        "digit_bound",
        "warnings",
    ]


def test_report_dict_shapes(even_report, odd_reports):
    d = report_dict(even_report)
    assert d["pair"] == {"p": 5, "q": 4}
    assert d["scheme"] == "even-q"
    assert d["matrix"] == [[2, 1], [1, 1]]
    assert d["polynomial"] == [1, -3, 1]
    assert d["pisot"] is True and d["regular"] is True
    assert d["reason"] == "PisotCore"
    assert d["digit_bound"] == 2
    assert d["warnings"] == []

    v1 = report_dict(odd_reports[0])
    rule = v1["rules"][0]
    assert rule["parent"] == "S0"
    assert rule["children"] == [["S0", 4], ["S0'", 1], ["S1", 1]]
    assert rule["fans"] == [["V2", 2], ["V3", 2]]
    roots = v1["roots"]
    assert set(roots) == {"decomposition", "values", "precision"}
    # (1, -5, -4, 0) sheds one power of X before the verdict
    assert roots["decomposition"]["x_power"] == 1
    assert roots["decomposition"]["core"] == [1, -5, -4]
    for entry in roots["values"]:
        assert set(entry) == {"re", "im", "exact"}


def test_reports_json_is_an_array(odd_reports):
    arr = json.loads(reports_json(odd_reports))
    assert [a["scheme"] for a in arr] == ["odd-v1", "odd-v2"]


def test_writer_matches_json_dumps_on_every_desk_case():
    compared = 0
    for p, q in EVEN_PAIRS + ODD_PAIRS:
        pair = validate(p, q)
        odd = []
        for scheme in Scheme:
            try:
                sr = analyze(pair, scheme)
            except (SchemeParityMismatch, UnsupportedCase):
                continue
            want = json.dumps(report_dict(sr), indent=2)
            assert report_json(sr) == want, (pair, scheme)
            compared += 1
            if scheme in (Scheme.ODD_V1, Scheme.ODD_V2):
                odd.append(sr)
        if odd:
            want = json.dumps([report_dict(sr) for sr in odd], indent=2)
            assert reports_json(odd) == want, pair
    # {4,5} has no legacy odd splitting
    assert compared == 44 + 3 * 45 - 1


_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**53).map(str)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324])
    | st.text()
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2028", "\ud800", "\U0001f600"])
)


def _json_containers(children):
    # lists of leaf lists, of one length and of mixed lengths
    rows = st.integers(0, 3).flatmap(
        lambda n: st.lists(st.lists(_json_leaves, min_size=n, max_size=n), min_size=1)
    )
    ragged = st.lists(st.lists(_json_leaves, max_size=3), min_size=2)
    return (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(st.text(), children)
        | rows
        | ragged
    )


@given(st.recursive(_json_leaves, _json_containers, max_leaves=40))
def test_writer_matches_json_dumps(value):
    assert _write(value) == json.dumps(value, indent=2)


def test_large_integers_become_strings():
    # desk-sized pairs never reach 2**53, so exercise the helpers directly
    assert _int(2**53 - 1) == 2**53 - 1
    assert _int(2**53) == str(2**53)
    assert _int(-(2**53)) == str(-(2**53))
    assert _ints([3, 2**60]) == [3, str(2**60)]


def test_poly_text_pins():
    assert poly_text((1, -3, 1)) == "X^2 - 3X + 1"
    assert poly_text((1, -2, 0, 1)) == "X^3 - 2X^2 + 1"
    assert poly_text((1, 0, -4)) == "X^2 - 4"
    assert poly_text((-1, 2)) == "-X + 2"
    assert poly_text((2,)) == "2"


def test_report_text_block(even_report, odd_reports):
    text = report_text(even_report)
    lines = text.splitlines()
    assert lines[0] == "{5,4} under even-q"
    assert "polynomial: [1, -3, 1]   X^2 - 3X + 1" in lines
    assert "pisot: true   regular: true   reason: PisotCore" in lines
    assert "digit bound: 2" in lines

    v1 = report_text(odd_reports[0])
    assert "core: [1, -5, -4] after stripping X^1" in v1
    assert "S0' -> 4*S0 + 1*S1" in v1

    golden = report_text(analyze(validate(4, 5), Scheme.ODD_V1))
    assert "1 (exact)" in golden
    assert "pisot: false   regular: false   reason: RootOnUnitCircle" in golden
    assert "warning: rule S1 produces S0 with multiplicity 0" in golden


#: SHA-256 of the concatenated sample reports, by writer; see
#: test_sample_reports_are_pinned for how they are concatenated.
SAMPLE_REPORT_SHA256 = {
    "report_json": "e8cebc9ecad029304420fed7e92634e0481a7f7cbc5538789de97dd4d278d641",
    "report_text": "60c3a33696861f0464f4f2b0b5bcfb334672e767c94e844067c0b580463bc09f",
}


def test_sample_reports_are_pinned():
    """Both writers, byte for byte, over the 1007 cases of SWEEP_SAMPLE.

    Protocol: for each (pair, scheme) of SWEEP_SAMPLE in its list order,
    the writer's string for analyze(pair, scheme), UTF-8 encoded; the
    strings are concatenated with no separator and hashed with SHA-256.
    Every sample case is analysed (the sample holds only the schemes
    ``analyze --scheme auto`` reports), so no refusal enters the hash:
    a case that raised would fail the test.
    """
    reports = [analyze(pair, scheme) for pair, scheme in SWEEP_SAMPLE]
    assert len(reports) == 1007
    for writer in (report_json, report_text):
        digest = hashlib.sha256()
        for sr in reports:
            digest.update(writer(sr).encode("utf-8"))
        assert digest.hexdigest() == SAMPLE_REPORT_SHA256[writer.__name__]


# ------------------------------------------------------------------- cli


def test_cli_analyze_text(capsys):
    assert main(["analyze", "-p", "5", "-q", "4"]) == 0
    out = capsys.readouterr().out
    assert "{5,4} under even-q" in out
    assert "X^2 - 3X + 1" in out


def test_cli_analyze_json_lists_both_odd_variants(capsys):
    assert main(["analyze", "-p", "4", "-q", "5", "--json"]) == 0
    arr = json.loads(capsys.readouterr().out)
    assert [a["scheme"] for a in arr] == ["odd-v1", "odd-v2"]
    assert arr[0]["polynomial"] == [1, -2, 0, 1]
    assert arr[1]["polynomial"] == [1, -3, 2]


def test_cli_rejects_non_hyperbolic_pairs(capsys):
    assert main(["analyze", "-p", "4", "-q", "4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_tree_counts(capsys):
    args = ["tree", "-p", "5", "-q", "4", "--depth", "5"]
    assert main(args) == 0
    assert (
        capsys.readouterr().out.strip()
        == "1 3 8 21 55 144 | recurrence: OK"
    )


def test_cli_tree_too_shallow_to_check(capsys):
    assert main(["tree", "-p", "5", "-q", "4", "--depth", "0"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "1 | recurrence: SKIPPED (too few levels)"


def test_cli_tree_requires_a_scheme_for_odd_q(capsys):
    assert main(["tree", "-p", "5", "-q", "7", "--depth", "3"]) == 2
    assert "--scheme" in capsys.readouterr().err


def test_cli_tree_node_cap_flag(capsys):
    args = ["tree", "-p", "5", "-q", "4", "--depth", "6", "--node-cap", "100"]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "depth 6: the tree passes the cap of 100 nodes at level 5" in err


def test_cli_tree_env_cap_and_flag_override(capsys, monkeypatch):
    # the cap comes from --node-cap alone: a HYPQ_NODE_CAP in the
    # environment is not read, so a cap of 100 there refuses nothing
    monkeypatch.setenv("HYPQ_NODE_CAP", "100")
    args = ["tree", "-p", "5", "-q", "4", "--depth", "6"]
    for extra in ([], ["--node-cap", "2000"]):
        assert main(args + extra) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "1 3 8 21 55 144 377 | recurrence: OK"
        assert captured.err == ""


def test_cli_tree_refuses_any_depth_at_once(capsys):
    # the refusal stops at the first level past the cap instead of sizing
    # a 200000-level tree, whose node count has ~83000 decimal digits
    args = ["tree", "-p", "5", "-q", "4", "--depth", "200000"]
    start = time.perf_counter()
    assert main(args) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "depth 200000" in err
    assert "cap of 10000000 nodes" in err


def test_cli_tree_cost_follows_rules_not_children(capsys):
    # {3000,3001} rules have millions of children; laying out each level
    # from the rules' multiplicity runs keeps this well under a second
    base = ["tree", "-p", "3000", "-q", "3001", "--format", "counts"]
    start = time.perf_counter()
    assert main(base + ["--scheme", "odd-v1", "--depth", "0"]) == 0
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr().out
    assert out == "1 | recurrence: SKIPPED (too few levels)\n"
    assert main(base + ["--scheme", "odd-v2", "--depth", "1"]) == 0
    assert capsys.readouterr().out.startswith("1 8985007 ")


def test_cli_tree_dot_and_json(capsys):
    base = ["tree", "-p", "5", "-q", "4", "--depth", "2"]
    assert main(base + ["--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph spanning_tree {")
    assert '1 [label="S0/0"];' in dot

    assert main(base + ["--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "pair": {"p": 5, "q": 4},
        "scheme": "even-q",
        "depth": 2,
        "counts": [1, 3, 8],
        "total": 12,
    }


def test_cli_numeration_table(capsys):
    args = ["numeration", "-p", "5", "-q", "4", "--up-to", "7"]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "0: 0"
    assert lines[7] == "7: 2 1"


def test_cli_numeration_reports_gaps(capsys):
    args = ["numeration", "-p", "4", "-q", "5", "--scheme", "odd-v1",
            "--up-to", "5"]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "2: unrepresentable"
    assert lines[5] == "5: unrepresentable"
    assert main(["numeration", "-p", "5", "-q", "4", "--up-to", "-1"]) == 2


def test_cli_verify_scopes_come_from_verify(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "nope"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "invalid choice: 'nope' (choose from "
        "'all', 'core', 'geometry', 'numeration', 'dual')\n"
    )


def test_cli_render_writes_svg(tmp_path, capsys):
    out = tmp_path / "tess.svg"
    args = ["render", "-p", "5", "-q", "4", "--what", "tessellation",
            "--depth", "1", "-o", str(out)]
    assert main(args) == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("<?xml")
    assert "<svg" in text and text.rstrip().endswith("</svg>")


def test_cli_render_refuses_an_output_it_cannot_write(tmp_path, capsys):
    # a missing directory, and a directory in place of the file: invalid
    # input with a one-line error, not a traceback with exit 1
    for out in (tmp_path / "missing" / "tess.svg", tmp_path):
        args = ["render", "-p", "5", "-q", "4", "--what", "tessellation",
                "--depth", "1", "-o", str(out)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def _python_dash_m_hypq(argv):
    """The argument list and environment that run ``python -m hypq argv``
    against this checkout's package."""
    src = str(pathlib.Path(hypq.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return [sys.executable, "-m", "hypq", *argv], env


def test_python_dash_m_hypq_runs_the_cli(capsys):
    argv = ["analyze", "-p", "5", "-q", "4"]
    cmd, env = _python_dash_m_hypq(argv)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, check=False)
    assert main(argv) == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["tree", "-p", "5", "-q", "4", "--depth", "12", "--format", "dot"],
        ["numeration", "-p", "5", "-q", "4", "--up-to", "100000"],
    ],
)
def test_cli_exits_141_when_stdout_closes(argv):
    # a reader that stops early, like ``head -1``: exit 128 + SIGPIPE
    # with nothing on stderr, not a traceback with exit 1
    cmd, env = _python_dash_m_hypq(argv)
    with subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""


def test_cli_render_exits_3_when_precision_runs_out(tmp_path, capsys):
    out = tmp_path / "tess.svg"
    args = ["render", "-p", "8", "-q", "8", "--what", "tessellation",
            "--depth", "5", "-o", str(out)]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: {8,8}: generation 5 after ")
    assert "double precision ran out" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "what, p, q, step",
    [("midlines", 68, 69, 4), ("zigzag", 14, 15, 8), ("zigzag", 16, 25, 7)],
)
def test_cli_render_walks_exit_3_when_precision_runs_out(
    tmp_path, capsys, what, p, q, step
):
    # {68,69}: a walk end rounds onto the unit circle before its
    # mid-point can be taken; {14,15}: the 8th edge ends at |z| = 1.0;
    # {16,25}: the 7th edge ends where it began
    out = tmp_path / "walk.svg"
    args = ["render", "--what", what, "-p", str(p), "-q", str(q),
            "--depth", "0", "-o", str(out)]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {{{p},{q}}} zig-zag walk: step {step} ")
    assert "double precision ran out" in err
    assert not out.exists()


def test_cli_render_dual45_only_for_four_five(tmp_path, capsys):
    out = tmp_path / "dual.svg"
    args = ["render", "-p", "5", "-q", "4", "--what", "dual45",
            "-o", str(out)]
    assert main(args) == 2
    assert "defined for the pair {4,5}" in capsys.readouterr().err
    assert not out.exists()

    good = ["render", "-p", "4", "-q", "5", "--what", "dual45",
            "--depth", "2", "-o", str(out)]
    assert main(good) == 0
    assert out.read_text(encoding="utf-8").startswith("<?xml")


def test_cli_render_dual45_refuses_past_the_tile_cap(tmp_path, capsys):
    out = tmp_path / "dual.svg"
    args = ["render", "-p", "4", "-q", "5", "--what", "dual45",
            "--depth", "12", "-o", str(out)]
    assert main(args) == 3
    assert "sector: more than 100000 tiles" in capsys.readouterr().err
    assert not out.exists()


def test_cli_verify_core_passes(capsys):
    assert main(["verify", "core"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "6/6 checks passed"
    assert all(line.startswith("PASS") for line in out.splitlines()[:-1])


#: SHA-256 of the stdout of ``cli.main(["verify", scope])``.
PINNED_VERIFY = {
    "core": "e02b0bd510904afc35d305b0afa6f8ea24e6e61d7c9b9cdccccd4ba084674579",
    "geometry": "070d88500a6a97016388f9ef8dc8b7d9c8b7dfc627827b0eb8c85b3b9f6c4272",
    "dual": "70d71c852e724466d725efc7c49a8788bf1f578983c6698591cfb3e68003eed3",
}


@pytest.mark.parametrize("scope", PINNED_VERIFY)
def test_cli_verify_text_is_pinned(capsys, scope):
    """The fast ``verify`` scopes print the same text in every run.

    Protocol: run ``cli.main(["verify", scope])`` in process, take the
    captured stdout as UTF-8 and compare its SHA-256 hex digest with
    PINNED_VERIFY.  The node cap is an argument, not an environment
    setting, so the text does not depend on the environment either.
    """
    assert main(["verify", scope]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_VERIFY[scope]


def test_cli_verify_reports_failures(capsys, monkeypatch):
    import hypq.verify

    def broken(scope):
        return [CheckResult("stub", False, "injected failure")]

    # cli.py holds the module object, so patching the attribute is seen
    monkeypatch.setattr(hypq.verify, "run", broken)
    assert main(["verify", "core"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  stub: injected failure" in out
    assert "0/1 checks passed" in out
