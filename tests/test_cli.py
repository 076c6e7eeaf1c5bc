"""Command-line interface: subcommands, exit codes, and determinism."""

from __future__ import annotations

import ast
import importlib.util
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emergent import cli
from emergent.checks import SuiteResult
from emergent.cli import main, render_check_report

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lattice_json(capsys):
    code, out, _ = run_cli(
        capsys, ["lattice", "--input", str(FIXTURES / "s3.json")]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 3
    assert payload["node_count"] == 6
    assert len(payload["nodes"]) == 6
    assert sorted(n["order"] for n in payload["nodes"]) == [1, 2, 2, 2, 3, 6]
    assert sum(n["self_commutant"] for n in payload["nodes"]) == 4
    for node in payload["nodes"]:
        assert len(node["members"]) == node["order"]
        assert 0 <= node["commutant"] < 6
    assert len(payload["hasse"]) == 8


def test_lattice_dot(capsys):
    code, out, _ = run_cli(
        capsys,
        ["lattice", "--input", str(FIXTURES / "s3.json"), "--format", "dot"],
    )
    assert code == 0
    assert out.startswith("digraph lattice {")
    assert out.rstrip().endswith("}")
    assert "rankdir=BT" in out
    assert out.count("peripheries=2") == 4
    assert out.count("style=dashed") == 1
    assert out.count("->") == 9


def test_systems(capsys):
    code, out, _ = run_cli(
        capsys, ["systems", "--input", str(FIXTURES / "s3.json")]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 3
    assert sorted(s["order"] for s in payload["systems"]) == [1, 2, 2, 2, 6]
    by_order = {s["order"]: s for s in payload["systems"]}
    assert by_order[1]["pure_states"] == [[0, 1, 2]]
    assert by_order[6]["pure_states"] == [[0], [1], [2]]
    assert len(payload["compatible"]) == 12
    for i, j, witness in payload["compatible"]:
        assert 0 <= i < 5 and 0 <= j < 5
        assert witness in (0, 1, 2)


def test_scan_mixed(capsys):
    code, out, _ = run_cli(
        capsys, ["scan-mixed", "--input", str(FIXTURES / "s3.json")]
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["nodes"]) == 6
    # Only the three reflection subgroups have both a pure fixed point
    # and mixed moved points.
    both = [payload["nodes"][i] for i in payload["nodes_with_both"]]
    assert len(both) == 3
    for node in both:
        assert node["order"] == 2
        assert len(node["pure_points"]) == 1
        assert len(node["mixed_points"]) == 2
    for node in payload["nodes"]:
        assert sorted(node["pure_points"] + node["mixed_points"]) == [0, 1, 2]


def test_check_all_clean(capsys):
    code, out, _ = run_cli(
        capsys,
        ["check", "--input", str(FIXTURES / "s3.json"), "--suite", "all"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["suites"]) == 5
    for suite in payload["suites"]:
        assert suite["ok"] is True
        assert suite["violations"] == []


def test_check_single_suite(capsys):
    code, out, _ = run_cli(
        capsys,
        ["check", "--input", str(FIXTURES / "s3.json"), "--suite", "lattice"],
    )
    assert code == 0
    payload = json.loads(out)
    assert [s["name"] for s in payload["suites"]] == ["lattice"]


def test_check_on_a_valid_theory_never_exits_2(capsys, tmp_path):
    # S6 is a valid theory whose process category the engine fails to build;
    # that is a violation in the JSON report, not an input error.
    path = tmp_path / "s6.json"
    gens = [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]
    path.write_text(json.dumps({"degree": 6, "generators": {"global": gens}}))
    code, out, err = run_cli(
        capsys, ["check", "--input", str(path), "--suite", "processes"]
    )
    assert code in (0, 1)
    assert err == ""
    (suite,) = json.loads(out)["suites"]
    assert suite["name"] == "processes"
    assert all(v.startswith("processes: ") for v in suite["violations"])


def test_check_report_flags_violations():
    results = (
        SuiteResult(name="lattice", violations=(), notices=()),
        SuiteResult(name="states", violations=("broken",), notices=("n",)),
    )
    text, code = render_check_report(results)
    assert code == 1
    payload = json.loads(text)
    assert payload["ok"] is False
    assert payload["suites"][1]["violations"] == ["broken"]


def test_quantum_multiplicative(capsys):
    code, out, _ = run_cli(capsys, ["quantum", "--decomposition", "2x3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "purely_multiplicative"
    assert payload["decomposition"] == "2x3"
    assert payload["commutant"] == "3x2"
    assert payload["centre_rank"] == 0
    assert payload["system_count"] == 1
    assert payload["group_dimension"] == 3
    assert payload["total_dimension"] == 6
    assert payload["claims"] == {
        "orthogonal": True,
        "orthocomplementary": True,
        "join": "6x1",
        "join_full": True,
    }


def test_quantum_additive(capsys):
    code, out, _ = run_cli(capsys, ["quantum", "--decomposition", "3x1+1x2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "purely_additive"
    assert payload["commutant"] == "2x1 + 1x3"
    assert payload["centre_rank"] == 1
    assert payload["system_count"] == 2
    assert payload["claims"] == {
        "orthogonal": True,
        "orthocomplementary": False,
        "join": "3x1 + 2x1",
        "join_full": False,
    }


def test_quantum_general(capsys):
    code, out, _ = run_cli(capsys, ["quantum", "--decomposition", "2x2+1x3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "general"
    assert payload["claims"] is None
    assert "note" in payload


@pytest.mark.parametrize("text", ["garbage", "1x1", "0x2", "2x"])
def test_quantum_bad_input(capsys, text):
    code, _, err = run_cli(capsys, ["quantum", "--decomposition", text])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "text",
    ["1x" + "9" * 5000, "9" * 3000 + "x" + "9" * 3000, "9" * 4300 + "x1", "\u0663x2"],
    ids=["long-number", "long-total", "long-group-dimension", "arabic-indic-digit"],
)
def test_quantum_refuses_numbers_it_cannot_write(capsys, text):
    # Past the digit cap an int cannot be read or written on CPython 3.11+,
    # so the parser refuses first, the same on every version.
    code, out, err = run_cli(capsys, ["quantum", "--decomposition", text])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    ["1x" + "9" * 1000, "9" * 400 + "x" + "9" * 400, "9" * 400 + "x" + "9" * 400 + "+2x3+1x1"],
    ids=["long-number", "long-join", "long-total"],
)
def test_quantum_refuses_numbers_past_the_interpreters_own_cap(text):
    # Under a cap below sectors.MAX_DIGITS, int() cannot read a long
    # number, str() cannot write the multiplicative join n x 1, and the
    # writer cannot write a general shape's total.
    proc = subprocess.run(
        [sys.executable, "-m", "emergent.cli", "quantum", "--decomposition", text],
        capture_output=True,
        text=True,
        cwd=str(FIXTURES.parent),
        env=dict(os.environ, PYTHONINTMAXSTRDIGITS="640", PYTHONPATH=str(FIXTURES.parent / "src")),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_quantum_writes_numbers_up_to_the_cap(capsys):
    code, out, _ = run_cli(capsys, ["quantum", "--decomposition", "1x" + "9" * 4300])
    assert code == 0
    assert json.loads(out)["total_dimension"] == 10**4300 - 1


def test_cli_suite_names_are_the_checks_suites():
    # The parser holds the names itself, so that it need not import checks.
    from emergent import checks

    assert cli.SUITES == tuple(checks.SUITES)


def test_check_takes_each_suite_and_all(capsys):
    parser = cli.build_parser()
    for name in (*cli.SUITES, "all"):
        assert parser.parse_args(["check", "--suite", name, "--input", "x"]).suite == name
    with pytest.raises(SystemExit):
        parser.parse_args(["check", "--help"])
    assert "{lattice,states,systems,processes,pmcat,all}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "fixture",
    [
        "bad_syntax.json",
        "bad_permutation.json",
        "not_transitive.json",
        "not_centreless.json",
        "no_such_file.json",
    ],
)
def test_bad_theory_exits_2(capsys, fixture):
    code, _, err = run_cli(
        capsys, ["lattice", "--input", str(FIXTURES / fixture)]
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("limits", [[1], "ab"])
def test_bad_limits_with_max_order_exits_2(capsys, tmp_path, limits):
    data = json.loads((FIXTURES / "s3.json").read_text())
    data["limits"] = limits
    path = tmp_path / "theory.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(
        capsys, ["lattice", "--input", str(path), "--max-order", "10"]
    )
    assert code == 2
    assert err == "error: 'limits' must be a JSON object\n"


def test_boolean_degree_exits_2(capsys, tmp_path):
    path = tmp_path / "theory.json"
    path.write_text('{"degree": true, "generators": {"global": [[0]]}}')
    code, out, err = run_cli(capsys, ["lattice", "--input", str(path)])
    assert code == 2
    assert out == ""
    assert err == "error: 'degree' must be a positive integer\n"


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 100_000, b"1" * 5000],
    ids=["not-utf-8", "nested-too-deeply", "over-long-integer"],
)
def test_undecodable_file_exits_2(capsys, tmp_path, content):
    path = tmp_path / "theory.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, ["lattice", "--input", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert str(path) in err


def test_resource_cap_exits_3(capsys):
    code, _, err = run_cli(
        capsys, ["lattice", "--input", str(FIXTURES / "s3_capped.json")]
    )
    assert code == 3
    assert "error:" in err


def test_max_order_flag(capsys):
    s3 = str(FIXTURES / "s3.json")
    code, _, _ = run_cli(capsys, ["lattice", "--input", s3, "--max-order", "2"])
    assert code == 3
    code, out, _ = run_cli(capsys, ["lattice", "--input", s3, "--max-order", "6"])
    assert code == 0
    assert json.loads(out)["node_count"] == 6


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_degree_above_the_order_cap_exits_3_before_allocating(tmp_path):
    # A transitive group on d points has at least d elements, so a degree
    # above the cap is refused before any permutation is built.  The 1 GiB
    # address-space limit turns an allocation regression into a failure
    # of this process alone.
    path = tmp_path / "theory.json"
    path.write_text('{"degree": 1000000000, "generators": {"global": []}}')
    proc = subprocess.run(
        [sys.executable, "-m", "emergent.cli", "lattice", "--input", str(path)],
        capture_output=True,
        text=True,
        cwd=str(FIXTURES.parent),
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: a transitive group on 1000000000 points has at least "
        "1000000000 elements, above the cap of 250000\n"
    )


def _subprocess_run(argv, seed, flags=()):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "emergent.cli", *argv],
        capture_output=True,
        env=env,
        cwd=str(FIXTURES.parent),
    )
    return proc.returncode, proc.stdout


def test_gl42_lattice_reaches_the_node_cap_within_budget(tmp_path, gl42_generators):
    # GL(4,2) on 15 points has 20 160 elements and more than 4 096 nodes, so
    # every element's centralizer is computed before the cap is reached.
    degree, generators = gl42_generators
    path = tmp_path / "gl42.json"
    path.write_text(
        json.dumps({"degree": degree, "generators": {"global": generators}})
    )
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "emergent.cli", "lattice", "--input", str(path)],
        capture_output=True,
        text=True,
        cwd=str(FIXTURES.parent),
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "error: lattice exceeds cap of 4096 subgroups\n"
    assert elapsed < 6.0


def test_s6_regular_lattice_within_budget(tmp_path, s6_regular_generators):
    # S6 acting on its own 720 elements: 513 nodes, as on six points.  Its
    # centralizers read the point images; no point-transfer row (720 masks
    # each) is built.
    degree, generators = s6_regular_generators
    path = tmp_path / "s6_regular.json"
    path.write_text(
        json.dumps({"degree": degree, "generators": {"global": generators}})
    )
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "emergent.cli", "lattice", "--input", str(path)],
        capture_output=True,
        text=True,
        cwd=str(FIXTURES.parent),
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["nodes"]) == 513
    assert elapsed < 6.0


def test_lattice_suite_on_27_points_within_budget():
    # A fresh process, as on the command line: in a long test session the
    # theory-keyed caches may hold nodes of an equal but distinct group.
    start = time.perf_counter()
    code, out = _subprocess_run(
        ["check", "--suite", "lattice", "--input", "fixtures/s3x3x3.json"], 0
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    (suite,) = json.loads(out)["suites"]
    assert suite["violations"] == []
    assert suite["notices"] == [
        "lattice: the centre of the product differs from the meet for "
        "1516 commuting pairs",
        "lattice: orthomodular identity fails for 2044 nested pairs",
        "lattice: distributivity fails for 2999808 node triples",
        "lattice: 216 nodes",
    ]
    assert elapsed < 30.0


def test_pmcat_suite_on_27_points_within_budget():
    start = time.perf_counter()
    code, out = _subprocess_run(
        ["check", "--suite", "pmcat", "--input", "fixtures/s3x3x3.json"], 0
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    (suite,) = json.loads(out)["suites"]
    assert suite["violations"] == []
    assert suite["notices"] == ["pmcat: 27 objects, 2197 morphisms"]
    assert elapsed < 60.0


def test_processes_suite_on_27_points_within_budget():
    start = time.perf_counter()
    code, out = _subprocess_run(
        ["check", "--suite", "processes", "--input", "fixtures/s3x3x3.json"], 0
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    (suite,) = json.loads(out)["suites"]
    assert suite["violations"] == []
    assert suite["notices"] == [
        "processes: 27 objects, 2197 morphism classes",
        "processes: generators 362 reversible, 63 preparations, 27 discards",
    ]
    assert elapsed < 60.0


def test_states_suite_on_27_points_within_budget():
    start = time.perf_counter()
    code, out = _subprocess_run(
        ["check", "--suite", "states", "--input", "fixtures/s3x3x3.json"], 0
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    (suite,) = json.loads(out)["suites"]
    assert suite["violations"] == []
    assert suite["notices"] == [
        "states: the splitting of pointwise stabilizers disagrees with the "
        "product-state test in 5103 cases",
        "states: 343 pure local states across all nodes",
    ]
    assert elapsed < 30.0


def test_systems_suite_on_27_points_within_budget():
    start = time.perf_counter()
    code, out = _subprocess_run(
        ["check", "--suite", "systems", "--input", "fixtures/s3x3x3.json"], 0
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    (suite,) = json.loads(out)["suites"]
    assert suite["violations"] == []
    assert suite["notices"] == ["systems: 125 systems, 450 ordered compatible pairs"]
    assert elapsed < 30.0


@pytest.mark.parametrize(
    "argv",
    [
        ["lattice", "--input", "fixtures/s3x3.json"],
        ["systems", "--input", "fixtures/s3.json"],
        ["scan-mixed", "--input", "fixtures/s3_diagonal.json"],
        ["check", "--suite", "all", "--input", "fixtures/s3x3.json"],
        ["quantum", "--decomposition", "2x2+3x1+1x4"],
    ],
)
def test_output_bytes_deterministic(argv):
    runs = [_subprocess_run(argv, seed) for seed in (0, 1, 31337)]
    codes = {code for code, _ in runs}
    outputs = {out for _, out in runs}
    assert codes == {0}
    assert len(outputs) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--suite", "all", "--input", "fixtures/s3.json"],
        ["lattice", "--input", "fixtures/s3x3.json"],
        ["check", "--suite", "lattice", "--input", "fixtures/s3x3.json"],
        ["check", "--suite", "states", "--input", "fixtures/s3x3.json"],
        ["check", "--suite", "systems", "--input", "fixtures/s3x3.json"],
        ["check", "--suite", "processes", "--input", "fixtures/s3x3.json"],
        ["scan-mixed", "--input", "fixtures/s3x3.json"],
    ],
)
def test_output_unchanged_under_optimize_flag(argv):
    # Stripping assert statements with -O must not change any result.
    plain = _subprocess_run(argv, 0)
    optimized = _subprocess_run(argv, 0, flags=("-O",))
    assert plain[1]
    assert optimized == plain


@pytest.mark.parametrize("fixture", ["s3", "s3x3x3"])
def test_closed_stdout_exits_141_without_traceback(fixture):
    # The reader has gone before the first byte: a shell reports 141 for a
    # tool that SIGPIPE ends, and the interpreter's last flush stays quiet.
    # Buffered, the s3 lattice fails at the flush and the s3x3x3 lattice at
    # the write.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "emergent.cli", "lattice", "--input", f"fixtures/{fixture}.json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            cwd=str(FIXTURES.parent),
            env=env,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 141


def test_output_that_fits_the_pipe_exits_0_before_it_is_read():
    proc = subprocess.Popen(
        [sys.executable, "-m", "emergent.cli", "lattice", "--input", "fixtures/s3.json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=str(FIXTURES.parent),
    )
    code = proc.wait(timeout=60)
    out, err = proc.communicate()
    assert code == 0
    assert err == b""
    assert json.loads(out)["node_count"] == 6


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.text(),
    st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=0x1F)),
    st.text(alphabet=st.characters(categories=["Cs"])),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.integers(-3, 3), max_size=4),
        st.lists(st.integers(-3, 3), max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(payload=_JSON_VALUES)
def test_dump_writes_what_json_dumps_writes(payload):
    assert cli._dump(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "payload",
    [
        [],
        {},
        [[], {}, [[]], {"a": {}}],
        [True, 1, False, 0],
        (1, True),
        [[1, 2], [True, 2], [0, 1], [False, True]],
        {"b": [1, 2], "a": {"c": [1, 2]}, "": "é\x00\ud800"},
    ],
)
def test_dump_edge_cases(payload):
    assert cli._dump(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "payload",
    [1.5, [1, 2.0], {1, 2}, {"a": {2, 3}}, {1: "a"}, {"a": 1, None: 2}, [[1, 2], [1.0, 2]]],
)
def test_dump_refuses_what_the_cli_never_writes(payload):
    with pytest.raises(TypeError):
        cli._dump(payload)


def test_dump_memo_lives_for_one_call(monkeypatch):
    memos = []
    encode = cli._encode

    def spy(value, newline, memo):
        memos.append(memo)
        return encode(value, newline, memo)

    monkeypatch.setattr(cli, "_encode", spy)
    module = dict(vars(cli))
    sizes = {name: len(v) for name, v in module.items() if isinstance(v, (dict, list, set))}
    payload = {"a": [[1, 2], [1, 2]], "b": [1, 2]}
    first = cli._dump(payload)
    calls = len(memos)
    assert cli._dump(payload) == first
    assert all(m is memos[0] for m in memos[:calls])
    assert all(m is memos[calls] for m in memos[calls:])
    assert memos[0] is not memos[calls]
    # The module gains no name and none of its tables grows.
    assert vars(cli) == module
    assert {name: len(vars(cli)[name]) for name in sizes} == sizes


def test_library_has_no_assert_statements():
    # Properties are proved by the suites and tests; an assert in the
    # library would be a second, -O-dependent proof.
    source = FIXTURES.parent / "src" / "emergent"
    found = [
        f"{path.relative_to(source)}:{node.lineno}"
        for path in sorted(source.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _uses_functools_cache(node: ast.AST) -> bool:
    banned = {"lru_cache", "cache"}
    if isinstance(node, ast.ImportFrom) and node.module == "functools":
        return any(alias.name in banned for alias in node.names)
    return (
        isinstance(node, ast.Attribute)
        and node.attr in banned
        and isinstance(node.value, ast.Name)
        and node.value.id == "functools"
    )


def test_library_has_no_process_wide_caches():
    # What is computed from a theory is memoised on the theory itself
    # (``perms.theory_memo``), so no cache outlives the theories it keys.
    source = FIXTURES.parent / "src" / "emergent"
    found = [
        f"{path.relative_to(source)}:{node.lineno}"
        for path in sorted(source.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if _uses_functools_cache(node)
    ]
    assert found == []


def test_library_imports_only_the_standard_library():
    # The engine promises to run on the standard library alone.
    source = FIXTURES.parent / "src" / "emergent"
    found = []
    for path in sorted(source.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found.extend(
                f"{path.relative_to(source)}:{node.lineno}:{module}"
                for module in modules
                if module.split(".")[0] != "emergent"
                and module.split(".")[0] not in sys.stdlib_module_names
            )
    assert found == []


def test_importing_the_cli_leaves_dataclasses_unloaded():
    # Only FiniteCategoryInstance is a dataclass, and ``emergent`` loads
    # its module on first use, so start-up does not import ``dataclasses``
    # (nor ``inspect``, which it pulls in); the pmcat names still resolve.
    script = (
        "import sys\n"
        "absent = {'dataclasses', 'inspect'} - set(sys.modules)\n"
        "import emergent.cli\n"
        "print(sorted(absent & set(sys.modules)))\n"
        "import emergent\n"
        "print(emergent.check_partially_monoidal.__name__)\n"
        "print(emergent.FiniteCategoryInstance.__name__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=str(FIXTURES.parent),
    )
    assert proc.stderr == ""
    assert proc.stdout == "[]\ncheck_partially_monoidal\nFiniteCategoryInstance\n"


def test_importing_the_cli_without_site_leaves_pathlib_unloaded():
    # ``site`` may load pathlib and typing itself (a .pth file can), so the
    # check runs without it: the loader reads its file with ``open``, not
    # ``pathlib``, and the records are ``collections.namedtuple``s, so a
    # whole ``check --suite all`` run imports no ``typing`` either.
    script = (
        "import io, sys\n"
        "import emergent.cli\n"
        "print('pathlib' in sys.modules)\n"
        "sys.stdout = io.StringIO()\n"
        "code = emergent.cli.main(['check', '--suite', 'all', '--input', 'fixtures/s3.json'])\n"
        "sys.stdout = sys.__stdout__\n"
        "print(code, sorted({'pathlib', 'typing'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        cwd=str(FIXTURES.parent),
        env=dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src")),
    )
    assert proc.stderr == ""
    assert proc.stdout == "False\n0 []\n"


# Each subcommand imports only the layers it runs.  The script runs the CLI
# in a fresh interpreter without ``site`` (a .pth file may import anything)
# and prints the exit code and every loaded module, with the CLI's own
# stdout sent to a buffer.
_FOOTPRINT = (
    "import io, sys\n"
    "from emergent.cli import main\n"
    "sys.stdout = io.StringIO()\n"
    "code = main(sys.argv[1:])\n"
    "sys.__stdout__.write(' '.join([str(code), *sorted(sys.modules)]))\n"
)
_LAYERS = ("lattice", "states", "systems", "processes", "checks", "pmcat")


def _footprint(*argv: str) -> tuple[int, set[str]]:
    """The exit code of ``emergent argv`` and the modules it loaded."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _FOOTPRINT, *argv],
        capture_output=True,
        text=True,
        cwd=str(FIXTURES.parent),
        env=dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src")),
    )
    code, *modules = proc.stdout.split(" ")
    return int(code), set(modules)


def _engine(*names: str) -> set[str]:
    return {f"emergent.{name}" for name in names}


def test_quantum_loads_no_group_layer():
    code, modules = _footprint("quantum", "--decomposition", "2x2+1x3")
    assert code == 0
    assert "emergent.sectors" in modules
    assert modules & _engine(*_LAYERS, "perms", "catalog") == set()


@pytest.mark.parametrize(
    "fixture",
    [
        "bad_syntax.json",
        "bad_permutation.json",
        "not_transitive.json",
        "not_centreless.json",
        "missing.json",
    ],
)
def test_check_on_invalid_input_loads_no_suite_layer(fixture):
    # The theory is loaded, and refused, before the suites are imported.
    code, modules = _footprint("check", "--input", f"fixtures/{fixture}")
    assert code == 2
    assert modules & _engine(*_LAYERS, "sectors") == set()


def test_lattice_loads_no_layer_above_the_lattice():
    code, modules = _footprint("lattice", "--input", "fixtures/s3.json")
    assert code == 0
    assert "emergent.lattice" in modules
    assert modules & _engine("states", "systems", "processes", "checks", "sectors", "pmcat") == set()


def test_check_all_loads_neither_dataclasses_nor_sectors():
    # The axiom check reads ``pmcat.CategoryTables``; only the names that
    # return a ``FiniteCategoryInstance`` load the dataclass.
    code, modules = _footprint("check", "--suite", "all", "--input", "fixtures/s3.json")
    assert code == 0
    assert "emergent.pmcat" in modules
    assert modules & {"dataclasses", "inspect", *_engine("sectors", "instance")} == set()


# Every name ``emergent`` offered before its names were loaded lazily.
_PUBLIC_NAMES = """
    DegreeMismatch ElementNotInGroup ElementNotInOwner FiniteCategoryInstance
    FiniteGroup GeneralCaseUnsupported GenerationReport GlobalTheory
    IncompatibleSystems InvalidTheory LocalState MorphismClass NotCentreless
    NotNested NotOrthogonal NotProductState NotPure NotSelfBicommutant
    NotTransitive PairState ParseError Perm PointOutOfRange Process
    ProcessCategory PurityVerdict ResourceLimit SbcLattice SectorDecomposition
    SpecialPairReport StateNotInPair StateNotInSystem Subgroup
    SubgroupNotInTheory SuiteResult System SystemEnvironmentPair TheoryError
    TypeMismatch Violation ZeroDimension act_local are_compatible
    build_process_category catalog centralizer centre centre_rank
    check_partially_monoidal check_special_pair_claims checks classify
    commutant commutant_decomp compose_process discard_process
    enumerate_self_bicommutant enumerate_systems errors extract_instance
    factorizes generate_group group_dimension instance_from_category
    is_orthocomplementary is_orthocomplemented is_orthogonal is_product_state
    is_self_bicommutant iterated_restrict join lattice load_theory
    make_decomposition make_pair make_process make_system meet pair_composite
    pair_states parse_decomposition perms pmcat process_codomain processes
    product_set pure_local_states pure_stabilizer restrict run_suites sectors
    states subgroup_closure symmetric_group system_count systems
    tensor_processes tensor_pure_states tensor_state_candidates tensor_systems
    theory_from_dict trivial_system validate_global_theory verify_generation
""".split()


def test_namespace_names_resolve_to_their_defining_modules():
    import emergent

    assert set(_PUBLIC_NAMES) <= set(emergent.__all__)
    assert set(emergent.__all__) <= set(dir(emergent))
    for name in emergent.__all__:
        value = getattr(emergent, name)
        if isinstance(value, type(emergent)):
            assert value is sys.modules[f"emergent.{name}"]
        else:
            assert value is getattr(sys.modules[value.__module__], name), name
    assert emergent.pmcat.FiniteCategoryInstance is emergent.FiniteCategoryInstance
    with pytest.raises(AttributeError):
        emergent.no_such_name  # noqa: B018
    star: dict = {}
    exec("from emergent import *", star)
    assert all(star[name] is getattr(emergent, name) for name in emergent.__all__)


def _resolves(module: str, name: str | None = None) -> bool:
    """``import module`` or ``from module import name`` would succeed."""
    try:
        found = importlib.import_module(module)
        if name is not None and not hasattr(found, name):
            importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_benchmark_imports_from_emergent_resolve():
    # The benchmark imports engine names inside functions that no test
    # calls, so a renamed or deleted public name must be caught here.
    imports = []
    for path in sorted((FIXTURES.parent / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [(alias.name, None) for alias in node.names]
            else:
                continue
            imports.extend(
                (f"{path.name}:{node.lineno}", module, name)
                for module, name in names
                if module.split(".")[0] == "emergent"
            )
    assert imports
    assert [entry for entry in imports if not _resolves(*entry[1:])] == []


def test_cli_matrix_covers_every_fixture_and_command():
    path = FIXTURES.parent / "scripts" / "cli_matrix.py"
    spec = importlib.util.spec_from_file_location("cli_matrix", path)
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    cases = matrix.CASES
    assert len(cases) == len(set(cases)) == 121
    parser_cases = [argv for argv in cases if argv in matrix.PARSER_CASES]
    assert parser_cases == [
        ("--help",),
        *((command, "--help") for command in ("lattice", "systems", "scan-mixed", "check", "quantum")),
        ("check", "--suite", "bogus", "--input", "fixtures/s3.json"),
    ]
    # Help exits with code 0 and a bad --suite choice with 2.
    exits = [matrix.run_case(argv).split("\t")[1] for argv in parser_cases]
    assert exits == ["0"] * 6 + ["2"]
    cases = [argv for argv in cases if argv not in matrix.PARSER_CASES]
    on_files = [argv for argv in cases if "--input" in argv]
    inputs = {argv[argv.index("--input") + 1] for argv in on_files}
    fixtures = {f"fixtures/{p.name}" for p in FIXTURES.glob("*.json")}
    assert inputs == fixtures | {matrix.MISSING}
    assert matrix.MISSING not in fixtures
    assert {argv[: argv.index("--input")] for argv in on_files} == set(matrix.COMMANDS)
    quantum = [argv for argv in cases if "--input" not in argv]
    assert quantum == [("quantum", "--decomposition", d) for d in matrix.DECOMPOSITIONS]
    # Every decomposition but the last parses; the last exits with code 2.
    exits = [matrix.run_case(argv).split("\t")[1] for argv in quantum]
    assert exits == ["0", "0", "0", "2"]
    slowest = ("check", "--suite", "all", "--input", "fixtures/s3x3x3.json")
    assert matrix.run_case(slowest, timeout=0.01) == " ".join(slowest) + "\ttimeout"


_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 5),
    st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
)


@st.composite
def _theory_documents(draw):
    """Small JSON documents, mostly shaped like theories, often mistyped."""

    def mostly(good):
        # Usually the intended shape, else a value of a wrong type.
        return draw(_JUNK if draw(st.integers(0, 3)) == 3 else good)

    degree = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-1, degree), st.booleans(), st.none())
    row = st.one_of(
        st.permutations(range(degree)), st.lists(entry, max_size=degree + 1)
    )
    doc = {
        "degree": mostly(st.just(degree)),
        "generators": mostly(
            st.fixed_dictionaries({"global": st.lists(row, max_size=3)})
        ),
    }
    if draw(st.booleans()):
        doc["limits"] = mostly(st.just({"max_order": mostly(st.integers(0, 30))}))
    if draw(st.booleans()):
        index = st.one_of(st.integers(-1, 3), st.booleans(), st.none())
        doc["subgroups"] = mostly(
            st.dictionaries(st.text(max_size=2), st.lists(index, max_size=3), max_size=2)
        )
    return mostly(st.just(doc))


@settings(max_examples=50, deadline=None)
@given(
    doc=_theory_documents(),
    command=st.sampled_from([["lattice"], ["check", "--suite", "lattice"]]),
)
def test_cli_exit_codes_on_arbitrary_documents(doc, command):
    # Any input ends in a documented exit code, never in a traceback.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "theory.json"
        path.write_text(json.dumps(doc))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main([*command, "--input", str(path)])
    assert code in (0, 1, 2, 3)
    assert err.getvalue().startswith("error: ") == (code >= 2)


@settings(max_examples=50, deadline=None)
@given(
    data=st.binary(max_size=64),
    command=st.sampled_from([["lattice"], ["check", "--suite", "lattice"]]),
)
def test_cli_exit_codes_on_arbitrary_bytes(data, command):
    # Files that are not UTF-8, or not JSON, end in a documented exit code too.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "theory.json"
        path.write_bytes(data)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main([*command, "--input", str(path)])
    assert code in (0, 1, 2, 3)
    assert err.getvalue().startswith("error: ") == (code >= 2)


_NUMBER = st.one_of(
    st.text("0123456789", min_size=1, max_size=4),
    st.integers(4290, 4310).map(lambda n: "9" * n),
)


@settings(max_examples=100, deadline=None)
@given(
    text=st.one_of(
        st.text(),
        st.lists(
            st.tuples(_NUMBER, st.sampled_from(["x", " x ", "X", "\u0663"]), _NUMBER).map(
                "".join
            ),
            min_size=1,
            max_size=3,
        ).map("+".join),
    )
)
def test_quantum_exit_codes_on_arbitrary_decompositions(text):
    # Any decomposition text exits 0 or 2, with an error line exactly on 2.
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        code = main(["quantum", f"--decomposition={text}"])
    assert code in (0, 2)
    assert err.getvalue().startswith("error: ") == (code == 2)
    assert (out.getvalue() == "") == (code == 2)
