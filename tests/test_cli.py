import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import statechar as sc
import statechar.cli
import statechar.io
from statechar.cli import main
from statechar.io import dumps_canonical, gen_instance, instance_hash

from oracles import (dumps_canonical_reference, print_matrix_reference,
                     print_vector_reference)

E = math.e

# SHA-256 of `statechar gen --seed 3 --n 5 --m 4` output.
GOLDEN_GEN_SHA256 = "673c4beb505a1a3ef81dbad0430027290c3c1c903644d53141e3dad11972e954"

SYM2X2 = {
    "characteristics": ["a", "b"],
    "states": ["lo", "hi"],
    "utility": [[1.0, 0.0], [0.0, 1.0]],
    "phi": [0.5, 0.5],
    "mu": [0.5, 0.5],
    "alpha": 0.5,
    "lambda": 1.0,
}


@pytest.fixture
def sym_file(tmp_path):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(SYM2X2))
    return str(path)


def write_instance(tmp_path, payload, name="inst.json"):
    path = tmp_path / name
    path.write_text(dumps_canonical(payload))
    return str(path)


# --- parsing -----------------------------------------------------------------

def test_parse_minimal_1x1(tmp_path, capsys):
    path = write_instance(tmp_path, {
        "characteristics": ["only"], "states": ["s"], "utility": [[2.0]],
        "phi": [1.0], "mu": [1.0], "alpha": 0.5, "lambda": 1.0})
    assert main(["solve", "--instance", path]) == 0
    out = capsys.readouterr().out
    assert "U* = 2" in out


def test_parse_matches_fixture(sym_file, sym2x2):
    inst, _ = sc.load_instance(sym_file)
    assert inst.characteristic_labels == sym2x2.characteristic_labels
    assert inst.state_labels == sym2x2.state_labels
    np.testing.assert_array_equal(inst.utility, sym2x2.utility)
    np.testing.assert_array_equal(inst.phi, sym2x2.phi)
    assert (inst.alpha, inst.lam) == (sym2x2.alpha, sym2x2.lam)


def test_parse_alpha_zero_exit_2(tmp_path, capsys):
    payload = dict(SYM2X2, alpha=0.0)
    path = write_instance(tmp_path, payload)
    assert main(["solve", "--instance", path]) == 2
    assert "unique" in capsys.readouterr().err


def test_parse_missing_field_exit_2(tmp_path, capsys):
    payload = {k: v for k, v in SYM2X2.items() if k != "phi"}
    path = write_instance(tmp_path, payload)
    assert main(["solve", "--instance", path]) == 2
    assert "phi" in capsys.readouterr().err


def test_parse_shape_mismatch_exit_2(tmp_path, capsys):
    payload = dict(SYM2X2, utility=[[1.0, 0.0]])
    path = write_instance(tmp_path, payload)
    assert main(["solve", "--instance", path]) == 2
    assert "utility" in capsys.readouterr().err


def test_parse_bad_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["solve", "--instance", str(path)]) == 2
    assert "JSON" in capsys.readouterr().err


def test_missing_file_exit_2(tmp_path):
    assert main(["solve", "--instance", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize("command", ["solve", "gen"])
def test_unwritable_output_path_exit_2(sym_file, tmp_path, capsys, command):
    out = str(tmp_path / "absent" / "out.json")
    argv = {"solve": ["solve", "--instance", sym_file, "--report", out],
            "gen": ["gen", "--n", "3", "--m", "2", "--out", out]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {out}: {os.strerror(errno.ENOENT)}\n"
    assert captured.out == ""


# --- solve -------------------------------------------------------------------

def test_solve_symmetric_report(sym_file, tmp_path, capsys):
    report_path = str(tmp_path / "report.json")
    assert main(["solve", "--instance", sym_file, "--report", report_path]) == 0
    report = json.loads(open(report_path).read())
    assert report["command"] == "solve"
    assert report["solution"]["U_star"] == pytest.approx(math.log((1 + E) / 2),
                                                         abs=1e-6)
    assert report["solution"]["converged"] is True
    assert report["diagnostics"]["all_passed"] is True
    assert "U*" in capsys.readouterr().out


def test_solve_flat_returns_prior(tmp_path):
    payload = dict(SYM2X2, utility=[[0.0, 0.0], [0.0, 0.0]],
                   phi=[0.25, 0.75])
    path = write_instance(tmp_path, payload)
    report_path = str(tmp_path / "r.json")
    assert main(["solve", "--instance", path, "--report", report_path]) == 0
    report = json.loads(open(report_path).read())
    assert report["solution"]["nu_star"] == [0.25, 0.75]


def test_solve_deterministic_reports(sym_file, tmp_path):
    r1, r2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["solve", "--instance", sym_file, "--report", r1]) == 0
    assert main(["solve", "--instance", sym_file, "--report", r2]) == 0
    assert open(r1, "rb").read() == open(r2, "rb").read()


def test_solve_report_round_trips(sym_file, tmp_path):
    report_path = str(tmp_path / "r.json")
    main(["solve", "--instance", sym_file, "--report", report_path])
    text = open(report_path).read()
    assert dumps_canonical(json.loads(text)) == text


def test_solve_non_convergence_exit_3(tmp_path):
    payload = gen_instance(11, 3, 3, alpha=0.25)
    path = write_instance(tmp_path, payload)
    report_path = str(tmp_path / "r.json")
    assert main(["solve", "--instance", path, "--report", report_path,
                 "--max-iter", "2"]) == 3
    report = json.loads(open(report_path).read())
    assert report["solution"]["converged"] is False


def test_solve_timings_flag(sym_file, tmp_path):
    report_path = str(tmp_path / "r.json")
    main(["solve", "--instance", sym_file, "--report", report_path, "--timings"])
    report = json.loads(open(report_path).read())
    assert report["timings"]["seconds"] > 0


# --- bridge ------------------------------------------------------------------

def test_bridge_flat_one_sweep(tmp_path, capsys):
    payload = dict(SYM2X2, utility=[[0.0, 0.0], [0.0, 0.0]])
    inst_path = write_instance(tmp_path, payload)
    nu_path = tmp_path / "nu.json"
    nu_path.write_text(json.dumps({"nu": [0.5, 0.5]}))
    report_path = str(tmp_path / "r.json")
    assert main(["bridge", "--instance", inst_path, "--nu", str(nu_path),
                 "--report", report_path]) == 0
    report = json.loads(open(report_path).read())
    assert report["bridge"]["iterations"] == 1
    assert report["bridge"]["value_V"] == pytest.approx(0.0, abs=1e-12)


def test_bridge_consistent_with_solve(sym_file, tmp_path):
    solve_report = str(tmp_path / "s.json")
    main(["solve", "--instance", sym_file, "--report", solve_report])
    nu_star = json.loads(open(solve_report).read())["solution"]["nu_star"]
    nu_path = tmp_path / "nu.json"
    nu_path.write_text(json.dumps(nu_star))
    bridge_report = str(tmp_path / "b.json")
    assert main(["bridge", "--instance", sym_file, "--nu", str(nu_path),
                 "--report", bridge_report]) == 0
    v = json.loads(open(bridge_report).read())["bridge"]["value_V"]
    u = json.loads(open(solve_report).read())["solution"]["U_star"]
    assert v == pytest.approx(u, abs=1e-8)


def test_bridge_tiny_max_iter_exit_3(tmp_path):
    payload = gen_instance(11, 3, 3, alpha=0.5)
    inst_path = write_instance(tmp_path, payload)
    nu_path = tmp_path / "nu.json"
    nu_path.write_text(json.dumps([0.2, 0.5, 0.3]))
    report_path = str(tmp_path / "r.json")
    assert main(["bridge", "--instance", inst_path, "--nu", str(nu_path),
                 "--report", report_path, "--max-iter", "1"]) == 3
    assert json.loads(open(report_path).read())["bridge"]["converged"] is False


def test_bridge_wrong_length_nu_exit_2(sym_file, tmp_path):
    nu_path = tmp_path / "nu.json"
    nu_path.write_text(json.dumps([0.2, 0.5, 0.3]))
    assert main(["bridge", "--instance", sym_file, "--nu", str(nu_path)]) == 2


# --- entry -------------------------------------------------------------------

def test_entry_no_entry_pair(sym_file, tmp_path):
    report_path = str(tmp_path / "r.json")
    assert main(["entry", "--instance", sym_file, "--entrant", sym_file,
                 "--report", report_path]) == 0
    report = json.loads(open(report_path).read())
    assert report["passed"] is True
    assert report["informative_pairs"] == 0


def test_entry_alpha_recovery(tmp_path):
    payload = gen_instance(21, 3, 3, alpha=0.7)
    base_path = write_instance(tmp_path, payload, "base.json")
    shifted = dict(payload, phi=[0.5, 0.3, 0.2])
    entrant_path = write_instance(tmp_path, shifted, "entrant.json")
    report_path = str(tmp_path / "r.json")
    assert main(["entry", "--instance", base_path, "--entrant", entrant_path,
                 "--report", report_path]) == 0
    report = json.loads(open(report_path).read())
    assert report["alpha_median"] == pytest.approx(0.7, abs=1e-4)
    assert report["passed"] is True


def test_entry_mismatch_exit_2(tmp_path, sym_file):
    other = dict(SYM2X2, mu=[0.3, 0.7])
    other_path = write_instance(tmp_path, other)
    assert main(["entry", "--instance", sym_file, "--entrant", other_path]) == 2


# --- oracle ------------------------------------------------------------------

def test_oracle_symmetric(sym_file, tmp_path):
    report_path = str(tmp_path / "r.json")
    assert main(["oracle", "--instance", sym_file, "--report", report_path]) == 0
    report = json.loads(open(report_path).read())
    assert report["oracle"]["U_solver"] == pytest.approx(
        report["oracle"]["U_oracle"], abs=1e-6)


def test_oracle_guard_exit_2(tmp_path):
    payload = gen_instance(0, 4, 4, alpha=0.5)
    path = write_instance(tmp_path, payload)
    assert main(["oracle", "--instance", path]) == 2


# --- diagnose ----------------------------------------------------------------

def test_diagnose_solution_mode(sym_file, tmp_path):
    report_path = str(tmp_path / "r.json")
    assert main(["diagnose", "--instance", sym_file,
                 "--report", report_path]) == 0
    report = json.loads(open(report_path).read())
    assert report["diagnostics"]["mode"] == "solution"
    assert report["diagnostics"]["all_passed"] is True


def test_diagnose_coupling_mode(sym_file, tmp_path):
    coupling_path = tmp_path / "c.json"
    coupling_path.write_text(json.dumps([[0.25, 0.25], [0.25, 0.25]]))
    report_path = str(tmp_path / "r.json")
    assert main(["diagnose", "--instance", sym_file, "--coupling",
                 str(coupling_path), "--report", report_path]) == 0
    report = json.loads(open(report_path).read())
    assert report["diagnostics"]["mode"] == "coupling"
    assert report["diagnostics"]["gibbs_deviation"] == pytest.approx(0.5, abs=1e-9)
    # product coupling: U = E[u] = 1/2 and f(phi) = log((1+e)/2)
    assert report["diagnostics"]["jensen_gap"] == pytest.approx(
        math.log((1 + E) / 2) - 0.5, abs=1e-9)


# --- gen ---------------------------------------------------------------------

def test_gen_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["gen", "--seed", "1", "--n", "3", "--m", "2", "--out", p1]) == 0
    assert main(["gen", "--seed", "1", "--n", "3", "--m", "2", "--out", p2]) == 0
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_gen_seed_changes_content(tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    main(["gen", "--seed", "1", "--n", "3", "--m", "2", "--out", p1])
    main(["gen", "--seed", "2", "--n", "3", "--m", "2", "--out", p2])
    assert open(p1).read() != open(p2).read()


def test_gen_output_validates(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    main(["gen", "--seed", "5", "--n", "4", "--m", "3", "--out", path])
    inst, raw = sc.load_instance(path)
    assert inst.n == 4 and inst.m == 3
    assert f"(hash {instance_hash(raw)[:12]})" in capsys.readouterr().out


def test_gen_golden_bytes(tmp_path):
    # Pins the file bytes themselves, so a serializer change that alters every
    # run the same way still fails.  The CI console-script job checks the same.
    path = tmp_path / "g.json"
    main(["gen", "--seed", "3", "--n", "5", "--m", "4", "--out", str(path)])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_GEN_SHA256


def test_gen_then_solve(tmp_path):
    path = str(tmp_path / "g.json")
    main(["gen", "--seed", "5", "--n", "3", "--m", "3", "--out", path])
    assert main(["solve", "--instance", path]) == 0


@pytest.mark.parametrize("options", [
    ["--alpha", "1.5", "--lambda", "-1"], ["--alpha", "0"], ["--lambda", "0"],
    ["--lambda", "inf"], ["--umax", "inf"], ["--umin=-1e308", "--umax=1e308"],
    ["--umax", "1e308", "--lambda", "0.5"],
])
def test_gen_writes_no_invalid_instance(tmp_path, capsys, options):
    path = tmp_path / "g.json"
    assert main(["gen", "--n", "3", "--m", "2", "--out", str(path)] + options) == 2
    assert not path.exists()
    assert main(["gen", "--n", "3", "--m", "2"] + options) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# --- malformed and non-finite inputs ------------------------------------------

def test_nan_prior_exit_2(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(dict(
        SYM2X2, characteristics=["a", "b", "c"],
        utility=[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], phi=[0.5, 0.5, math.nan])))
    assert "NaN" in path.read_text()
    assert main(["solve", "--instance", str(path)]) == 2
    assert "phi" in capsys.readouterr().err


def test_bridge_nan_nu_exit_2_before_solving(sym_file, tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("sinkhorn_solve ran on a NaN marginal")

    monkeypatch.setattr("statechar.cli.sinkhorn_solve", never)
    nu_path = tmp_path / "nu.json"
    nu_path.write_text("[NaN, 1.0]")
    assert main(["bridge", "--instance", sym_file, "--nu", str(nu_path)]) == 2


@pytest.fixture
def no_solve(monkeypatch):
    """Fail the test if any solve starts: every outer, bridge and entry solve
    contracts the Gibbs kernel, and the oracle evaluates its objective."""
    import statechar.model
    import statechar.optimize

    def never(*args, **kwargs):
        raise AssertionError("a solve started on an invalid tuning value")

    for kernel in (statechar.model._GibbsKernel, statechar.model._ScaledGibbsKernel):
        monkeypatch.setattr(kernel, "over_x", never)
        monkeypatch.setattr(kernel, "over_t", never)
    monkeypatch.setattr(statechar.optimize, "_oracle_objective", never)


@pytest.mark.parametrize("command,option,value", [
    ("solve", "--outer-tol", "nan"),
    ("bridge", "--inner-tol", "nan"),
    ("entry", "--constancy-tol", "nan"),
    ("entry", "--alpha-tol", "nan"),
    ("oracle", "--iterations", "-3"),
])
def test_invalid_tuning_value_exit_2_before_solving(sym_file, tmp_path, capsys,
                                                    no_solve, command, option, value):
    argv = _command_argv(tmp_path, sym_file, command) + [option, value]
    assert main(argv) == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("command,option,text", [
    ("bridge", "--nu", '["x", 1.0]'),
    ("bridge", "--nu", '{"nu": {"a": 1}}'),
    ("diagnose", "--coupling", '{"x": 1}'),
    ("diagnose", "--coupling", "[[0.25, NaN], [0.25, 0.25]]"),
])
def test_malformed_array_file_exit_2(sym_file, tmp_path, capsys, command, option, text):
    path = tmp_path / "array.json"
    path.write_text(text)
    assert main([command, "--instance", sym_file, option, str(path)]) == 2
    assert str(path) in capsys.readouterr().err


# --- options and hook points -------------------------------------------------

def _command_argv(tmp_path, sym_file, command):
    nu_path = tmp_path / "nu.json"
    nu_path.write_text(json.dumps([0.5, 0.5]))
    return {
        "solve": ["solve", "--instance", sym_file],
        "bridge": ["bridge", "--instance", sym_file, "--nu", str(nu_path)],
        "entry": ["entry", "--instance", sym_file, "--entrant", sym_file],
        "oracle": ["oracle", "--instance", sym_file],
        "diagnose": ["diagnose", "--instance", sym_file],
    }[command]


@pytest.mark.parametrize("command,option", [
    ("solve", "--inner-tol"), ("entry", "--inner-tol"), ("oracle", "--inner-tol"),
    ("diagnose", "--inner-tol"), ("bridge", "--outer-tol"), ("solve", "--seed"),
    ("bridge", "--seed"), ("entry", "--seed"), ("diagnose", "--seed"),
])
def test_unread_option_rejected(sym_file, tmp_path, command, option):
    argv = _command_argv(tmp_path, sym_file, command) + [option, "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("command,flags", [
    ("solve", ["outer_tol", "max_iter"]),
    ("bridge", ["inner_tol", "max_iter"]),
    ("entry", ["outer_tol", "max_iter"]),
    ("oracle", ["outer_tol", "max_iter", "seed"]),
    ("diagnose", ["outer_tol", "max_iter"]),
])
def test_report_flags_echo_declared_options(sym_file, tmp_path, command, flags):
    report_path = str(tmp_path / "r.json")
    argv = _command_argv(tmp_path, sym_file, command) + ["--report", report_path]
    assert main(argv) == 0
    assert list(json.loads(open(report_path).read())["flags"]) == flags


SOLUTION_KEYS = ["converged", "nu_star", "coupling", "U_star", "f_star",
                 "expected_utility", "kappa", "kappa_vertical",
                 "kappa_mutual_information", "foc_residual", "marginal_residual",
                 "duality_gap", "outer_iterations"]


@pytest.mark.parametrize("command,hashes", [
    ("solve", ["instance_hash"]), ("bridge", ["instance_hash"]),
    ("entry", ["instance_hash", "entrant_hash"]), ("oracle", ["instance_hash"]),
    ("diagnose", ["instance_hash"]),
])
def test_report_schema_2_keys(sym_file, tmp_path, command, hashes):
    report_path = str(tmp_path / "r.json")
    argv = _command_argv(tmp_path, sym_file, command) + ["--report", report_path]
    assert main(argv) == 0
    report = json.loads(open(report_path).read())
    header = ["command", "version", "schema", *hashes, "flags"]
    assert list(report)[:len(header)] == header
    assert report["schema"] == 2
    if command in ("solve", "oracle"):
        assert list(report["solution"]) == SOLUTION_KEYS  # one n x m matrix, no ccp
    else:
        assert "solution" not in report


def test_solve_table_is_library_ccp(tmp_path, capsys):
    # The table is rendered from the report's coupling / mu, not from ccp.
    payload = gen_instance(7, 40, 30)
    path = write_instance(tmp_path, payload)
    assert main(["solve", "--instance", path]) == 0
    out = capsys.readouterr().out
    inst = sc.validate_instance(payload)
    print_matrix_reference("conditional choice probabilities P(x|t)",
                           inst.characteristic_labels, inst.state_labels,
                           sc.full_solve(inst).ccp)
    table = capsys.readouterr().out
    assert "\n" + table + "U* = " in out


def test_report_coupling_over_mu_is_library_ccp(tmp_path):
    payload = gen_instance(8, 100, 100)
    path = write_instance(tmp_path, payload)
    report_path = str(tmp_path / "r.json")
    assert main(["solve", "--instance", path, "--report", report_path]) == 0
    coupling = np.array(json.loads(open(report_path).read())["solution"]["coupling"])
    inst = sc.validate_instance(payload)
    ccp = sc.full_solve(inst).ccp
    assert np.all(np.abs(coupling / inst.mu - ccp) <= np.spacing(ccp))
    assert np.max(np.abs(coupling / coupling.sum(axis=0) - ccp)) <= 1e-10


def test_hook_points_looked_up_at_call_time(sym_file, tmp_path, monkeypatch):
    import statechar.cli
    import statechar.io

    calls = {}
    hooks = [(statechar.cli, name) for name in (
        "load_instance", "instance_hash", "dumps_canonical", "full_solve",
        "run_diagnostics", "sinkhorn_solve", "schrodinger_residual")]
    hooks.append((statechar.io, "validate_instance"))
    for module, name in hooks:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    report_path = str(tmp_path / "r.json")
    for command in ("solve", "bridge"):
        argv = _command_argv(tmp_path, sym_file, command) + ["--report", report_path]
        assert main(argv) == 0
    assert sorted(calls) == sorted(name for _, name in hooks)


# --- canonical JSON and stdout tables -----------------------------------------

_EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                                -5e-324, 2.2250738585072014e-308, 1e308, 1e16, 0.1])
_FLOATS = st.floats() | _EDGE_FLOATS
_ARRAYS = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5))
_LEAVES = (_FLOATS | st.integers(-2**80, 2**80) | st.booleans() | st.none()
           | st.text() | _FLOATS.map(np.float64)
           | st.floats(width=32).map(np.float32)
           | st.integers(-2**63, 2**63 - 1).map(np.int64)
           | st.booleans().map(np.bool_) | _ARRAYS
           | st.lists(_FLOATS) | st.lists(_FLOATS).map(tuple))
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_dumps_canonical_matches_per_element_reference(obj):
    assert dumps_canonical(obj) == dumps_canonical_reference(obj)


_MATRICES = hnp.arrays(
    st.sampled_from([np.float64, np.int64, np.bool_]),
    st.tuples(st.integers(0, 4), st.integers(0, 4)))  # (0, k) and (k, 0) too


@settings(max_examples=200, deadline=None)
@given(st.one_of(_VALUES, _MATRICES, st.dictionaries(st.text(max_size=3), _MATRICES,
                                                     max_size=3)))
def test_streamed_writer_matches_text_and_reference(obj):
    fh = io.StringIO()
    assert dumps_canonical(obj, fh) is None
    assert fh.getvalue() == dumps_canonical(obj) == dumps_canonical_reference(obj)


def test_instance_hash_is_sha256_of_canonical_text():
    payload = gen_instance(2, 6, 4)
    text = dumps_canonical(payload)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert instance_hash(payload) == digest
    # Field order and array types of the raw payload do not matter.
    shuffled = dict(reversed(list(payload.items())), extra=1)
    shuffled["utility"] = np.array(payload["utility"])
    assert instance_hash(shuffled) == digest


def test_report_writer_and_hash_hold_one_row_at_a_time(tmp_path):
    # The text of each is about 3 MB; neither may hold it, or a list of a
    # whole matrix, at once.
    report = {"coupling": np.random.default_rng(0).random((400, 400))}
    raw = gen_instance(0, 400, 400)
    path = tmp_path / "r.json"
    tracemalloc.start()
    try:
        with open(path, "w", encoding="utf-8") as fh:
            dumps_canonical(report, fh)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        digest = instance_hash(raw)
        hash_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 3_000_000
    assert path.read_text(encoding="utf-8") == dumps_canonical(report)
    assert digest == hashlib.sha256(dumps_canonical(raw).encode("utf-8")).hexdigest()
    assert write_peak < 1 << 20
    assert hash_peak < 1 << 20


@pytest.mark.parametrize("obj", [
    {1, 2}, 1 + 2j, [0.5, 1j], {"a": [0.5, {0.5}]}, np.array([1 + 2j]),
    np.array(0.5),  # 0-d: not iterable, as in the reference
])
def test_dumps_canonical_rejects_unsupported(obj):
    with pytest.raises(TypeError):
        dumps_canonical_reference(obj)
    with pytest.raises(TypeError):
        dumps_canonical(obj)


# --- float matrices split across processes -------------------------------------

_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1e16, -2.5]


@pytest.fixture
def forks(monkeypatch):
    """Make io split every float matrix of 2 or more rows across ``cpus``
    processes; returns the pids forked so far."""
    if not statechar.io._CAN_SPLIT:
        pytest.skip("needs os.fork, os.sched_getaffinity and os.memfd_create")
    pids = []

    def fork(_fork=os.fork):
        pid = _fork()
        pids.append(pid)
        return pid

    def force(cpus, chunk=None):
        monkeypatch.setattr(statechar.io, "_CELLS_PER_WORKER", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(os, "fork", fork)
        if chunk:
            monkeypatch.setattr(statechar.io, "_CHUNK", chunk)
        return pids
    return force


def _special_matrix(rows, kind):
    cells = np.resize(np.array(_SPECIAL), rows * 3).reshape(rows, 3)
    cells[:, 1] = np.random.default_rng(rows).random(rows)
    return {"float64": cells, "float32": cells.astype(np.float32),
            "list": cells.tolist(), "tuple": tuple(map(tuple, cells.tolist()))}[kind]


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("kind", ["float64", "float32", "list", "tuple"])
@pytest.mark.parametrize("rows", range(2, 8))
@pytest.mark.parametrize("cpus", [2, 3])
def test_split_matrix_is_byte_identical(forks, cpus, rows, kind, chunk):
    matrix = _special_matrix(rows, kind)
    reference = dumps_canonical_reference({"m": matrix})
    pids = forks(cpus, chunk)
    assert dumps_canonical({"m": matrix}) == reference
    assert len(pids) == min(cpus, rows) - 1  # at most one process per row
    fh = io.StringIO()
    dumps_canonical({"m": matrix}, fh)
    assert fh.getvalue() == reference
    payload = dict(gen_instance(1, rows, 3), utility=matrix)
    text = dumps_canonical_reference(statechar.io.instance_payload(payload))
    assert instance_hash(payload) == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert len(pids) == 3 * (min(cpus, rows) - 1)
    for pid in pids:
        with pytest.raises(ChildProcessError):  # reaped
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("cpus", [2, 3])
def test_split_gen_keeps_golden_bytes(forks, tmp_path, cpus):
    pids = forks(cpus)
    path = tmp_path / "g.json"
    main(["gen", "--seed", "3", "--n", "5", "--m", "4", "--out", str(path)])
    assert pids
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_GEN_SHA256


@pytest.mark.parametrize("matrix", [
    [[0.5, 1], [0.25, 0.75], [0.5, 0.5]],       # an int in a row
    [[0.5, 0.5], ["a", 0.75], [0.5, 0.5]],      # a str in a row
    [[0.5, 0.5], [], [0.5, 0.5]],               # an empty row
    [[0.5, 0.5], np.array([0.5, 0.5])],         # an ndarray row
    [[0.5, 0.5], [np.float64(0.5), 0.5]],       # a float subclass
    np.array([[1, 2], [3, 4]]),                 # an int array
    np.array([[True, False], [False, True]]),   # a bool array
    np.zeros((1, 6)), [[0.5] * 6],              # one row
])
def test_only_float_matrices_are_split(forks, matrix):
    pids = forks(2)
    assert dumps_canonical(matrix) == dumps_canonical_reference(matrix)
    assert pids == []


def test_split_needs_cells_per_worker(forks, monkeypatch):
    pids = forks(3)
    monkeypatch.setattr(statechar.io, "_CELLS_PER_WORKER", 10)
    dumps_canonical(np.zeros((4, 5)))  # 20 cells: 2 processes
    assert len(pids) == 1
    dumps_canonical(np.zeros((3, 6)))  # 18 cells: 1 process
    assert len(pids) == 1


def test_split_child_failure_raises_oserror(forks, monkeypatch):
    pids = forks(3)
    monkeypatch.setattr(statechar.io, "_write_rows_and_exit", lambda rows, fd: os._exit(3))
    fh = io.StringIO()
    with pytest.raises(OSError, match=r"process \d+ formatting matrix rows failed "
                                      r"\(exit status 3\)"):
        dumps_canonical(np.zeros((4, 2)), fh)
    assert len(pids) == 2
    assert fh.getvalue() == "[[0, 0]"  # the first block only, no child text
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("fail_at", [1, 2, 6, 12])
def test_split_reaps_children_when_emit_raises(forks, exc, fail_at):
    # Pieces: "[", the first block's rows, then the children's 7-byte chunks.
    pids = forks(3, chunk=7)
    written = []

    class Sink:
        def write(self, piece):
            if len(written) == fail_at:
                raise exc("sink failed")
            written.append(piece)

    with pytest.raises(exc, match="sink failed"):
        dumps_canonical(_special_matrix(6, "float64"), Sink())
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_split_solve_report_under_warnings_as_errors(tmp_path):
    # A report big enough for the split path on a machine with 2 or more CPUs;
    # Python >= 3.12 warns on fork() while numpy's BLAS threads run.
    n, m = 400, 400
    assert n * m // statechar.io._CELLS_PER_WORKER >= 2
    path = write_instance(tmp_path, gen_instance(2, n, m))
    report = tmp_path / "r.json"
    code = ("import sys; from statechar.cli import main; "
            "sys.exit(main(['solve', '--instance', sys.argv[1], '--report', sys.argv[2]]))")
    src = os.path.dirname(os.path.dirname(sc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code, path, str(report)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(report.read_text())["instance_hash"] == hashlib.sha256(
        open(path, "rb").read()).hexdigest()


@pytest.mark.parametrize("command", ["solve", "bridge"])
def test_stdout_tables_match_per_cell_reference(tmp_path, capsys, monkeypatch, command):
    payload = gen_instance(7, 40, 30)
    path = write_instance(tmp_path, payload)
    nu_path = tmp_path / "nu.json"
    nu_path.write_text(dumps_canonical(payload["phi"]))
    argv = {"solve": ["solve", "--instance", path],
            "bridge": ["bridge", "--instance", path, "--nu", str(nu_path)]}[command]

    def stdout():
        assert main(argv) == 0
        return [line for line in capsys.readouterr().out.splitlines(keepends=True)
                if not line.startswith("elapsed:")]

    got = stdout()
    monkeypatch.setattr(statechar.cli, "_print_vector", print_vector_reference)
    monkeypatch.setattr(statechar.cli, "_print_matrix", print_matrix_reference)
    assert got == stdout()
    assert len(got) > 40
