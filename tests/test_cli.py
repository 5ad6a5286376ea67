"""Command-line interface: subcommands, exit codes, file outputs."""

import dataclasses
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from openschwinger import EvolutionRecord, HermitianOperator, SymmetrySector, matrix_from_json
from openschwinger import cli
from openschwinger.cli import main


def run_cli(argv):
    return main(list(argv))


def test_states_reports_count_and_cross_check(capsys):
    assert run_cli(["states", "2"]) == 0
    out = capsys.readouterr().out
    assert "closed form) = 13" in out
    assert "enumeration) = 13" in out


def test_states_skips_enumeration_at_large_volume(capsys):
    assert run_cli(["states", "12"]) == 0
    out = capsys.readouterr().out
    assert "closed form) = 1373466" in out
    assert "enumeration" not in out


def test_states_counts_two_thousand_sites_within_a_second(capsys):
    start = time.perf_counter()
    assert run_cli(["states", "2000"]) == 0
    assert time.perf_counter() - start < 1.0
    count = capsys.readouterr().out.split(" = ")[1].strip()
    assert len(count) == 1023


def test_states_past_the_printable_digit_limit_is_a_usage_error(capsys):
    # at Python's default limit of 4300 digits the count is printable up to
    # N = 8406; beyond, the reason is reported with exit 2, not as a failed
    # numerical check
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert run_cli(["states", "8406"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli(["states", "8407"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "too long to print" in err and "numerical check failed" not in err


def test_states_sector_flag(capsys):
    assert run_cli(["states", "2", "--sector", "--truncate"]) == 0
    assert "truncated sector dim 4" in capsys.readouterr().out


def test_states_sector_check_needs_no_dense_isometry(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("dense isometry built")

    monkeypatch.setattr(SymmetrySector, "isometry", refuse)
    assert run_cli(["states", "4", "--sector", "--truncate"]) == 0
    assert "truncated sector dim 18" in capsys.readouterr().out


def test_states_sector_check_catches_overlapping_orbits(monkeypatch, capsys):
    build = cli.build_symmetry_sector

    def overlapping(spec):
        sector = build(spec)
        reps = np.append(sector.representatives, sector.representatives[-1])
        return dataclasses.replace(sector, representatives=reps)

    monkeypatch.setattr(cli, "build_symmetry_sector", overlapping)
    assert run_cli(["states", "2", "--sector"]) == 1
    assert "cross-check FAILED" in capsys.readouterr().err


def test_states_sector_of_an_unenumerable_lattice_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["states", "13", "--sector"])
    assert err.value.code == 2
    assert "N: the configurations of N = 13 could take" in capsys.readouterr().err


def test_a_sector_whose_operators_exceed_the_setup_budget_is_a_usage_error(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("sector operators built")

    monkeypatch.setattr(cli, "build_sector_operators", refuse)
    monkeypatch.setattr(cli, "SETUP_MAX_BYTES", 80 * 18**2 - 1)  # N = 4 truncated: dim 18
    with pytest.raises(SystemExit) as err:
        run_cli(["evolve", "--n-sites", "4", "-o", str(tmp_path / "run.csv")])
    assert err.value.code == 2
    assert "--n-sites: the operators of the dim 18 sector of N = 4" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_states_rejects_nonpositive_volume():
    with pytest.raises(SystemExit) as err:
        run_cli(["states", "0"])
    assert err.value.code == 2


def test_unknown_arguments_exit_with_usage_error():
    with pytest.raises(SystemExit) as err:
        run_cli(["evolve", "--no-such-flag"])
    assert err.value.code == 2


def test_hamiltonian_dump(tmp_path, capsys):
    out = tmp_path / "h.json"
    assert run_cli(["hamiltonian", "--n-sites", "2", "-o", str(out)]) == 0
    op = HermitianOperator(*matrix_from_json(out.read_text()))
    assert op.dim == 5
    assert op.matrix[0, 1] == pytest.approx(1.0, abs=1e-14)
    assert "k0-parity-even" in op.basis_tag


def test_hamiltonian_observables_flag(tmp_path):
    out = tmp_path / "h.json"
    assert run_cli(["hamiltonian", "--n-sites", "2", "--truncate",
                    "--observables", "-o", str(out)]) == 0
    pairs = HermitianOperator(*matrix_from_json((tmp_path / "h_pairs.json").read_text()))
    electric = HermitianOperator(*matrix_from_json((tmp_path / "h_electric.json").read_text()))
    assert np.array_equal(np.diag(pairs.matrix), [0, 1, 2, 1])
    assert np.array_equal(4 * np.diag(electric.matrix), [0, 1, 2, 3])
    assert (tmp_path / "h_condensate.json").exists()


def test_evolve_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "run.csv"
    code = run_cli(["evolve", "--n-sites", "2", "--t-max", "1.0", "--dt", "0.01",
                    "--stride", "10", "-o", str(out)])
    assert code == 0
    rec = EvolutionRecord.from_csv(out.read_text())
    assert rec.times[0] == 0.0
    assert rec.times[-1] == pytest.approx(1.0)
    sidecar = json.loads((tmp_path / "run.json").read_text())
    assert sidecar["config"]["n_sites"] == 2
    assert sidecar["config"]["method"] == "rk4"
    assert sidecar["config"]["dt"] == 0.01
    assert sidecar["config"]["truncate_total_flux"] is True
    assert sidecar["gibbs_reference"]["beta"] == pytest.approx(0.1)
    assert set(sidecar) == {"config", "gibbs_reference", "invariants", "thermal_gap", "counters", "wall_time_s",
                            "timings"}
    # the blocks summarize the rows of the CSV, which round-trip exactly
    assert sidecar["invariants"]["max_trace_error"] == np.max(np.abs(rec.trace - 1.0))
    assert sidecar["invariants"]["min_eig"] == np.min(rec.min_eig)
    gap, gibbs = sidecar["thermal_gap"], sidecar["gibbs_reference"]
    assert gap["t"] == rec.times[-1]
    assert gap["e2"] == rec.e2[-1] - gibbs["e2"]
    assert gap["n_pairs"] == rec.n_pairs[-1] - gibbs["n_pairs"]
    # the C-even line, which the vacuum reaches, is the full one at N = 2
    assert gibbs["c_even"] == {"n_pairs": gibbs["n_pairs"], "e2": gibbs["e2"]}
    assert gap["c_even"] == {"e2": gap["e2"], "n_pairs": gap["n_pairs"]}
    assert sidecar["counters"] == {"two_thread": False, "steps": 100, "rhs_evaluations": 400,
                                   "records": 11, "blocks": [4]}


@pytest.mark.parametrize("method, evaluations", [("rk4", {"rhs_evaluations": 40}),
                                                 ("exact", {"expm_multiply_calls": 1}),
                                                 ("dilation", {"cycles": 10})])
def test_a_vacuum_run_reports_its_one_stepped_block(tmp_path, method, evaluations):
    # at N = 4 the vacuum lies in the C-even block (16 of the 18 states); the
    # C-odd block is exactly zero and is never stepped
    out = tmp_path / "run.csv"
    assert run_cli(["evolve", "--n-sites", "4", "--method", method, "--t-max", "0.1", "--dt", "0.01",
                    "--n-cycles", "10", "-o", str(out)]) == 0
    counters = json.loads((tmp_path / "run.json").read_text())["counters"]
    assert counters == {"two_thread": False, "steps": 10, **evaluations, "records": 11, "blocks": [16]}


@pytest.mark.parametrize("method", ["rk4", "exact", "dilation"])
def test_the_sidecar_times_each_phase_of_a_run(tmp_path, method):
    # the engine's steps and records fall inside its wall time; setup and the
    # CSV write are timed around it
    out = tmp_path / "run.csv"
    assert run_cli(["evolve", "--n-sites", "4", "--method", method, "--t-max", "0.1", "--dt", "0.01",
                    "--n-cycles", "10", "-o", str(out)]) == 0
    sidecar = json.loads((tmp_path / "run.json").read_text())
    timings = sidecar["timings"]
    assert set(timings) == {"setup_s", "steps_s", "records_s", "write_s"}
    assert all(seconds > 0 for seconds in timings.values())
    assert timings["steps_s"] + timings["records_s"] <= sidecar["wall_time_s"]
    assert "steps_s" not in sidecar["counters"]


@pytest.mark.parametrize("flags, dim, truncated", [([], 4, True), (["--full-flux"], 5, False)],
                         ids=["default", "full-flux"])
def test_evolve_full_flux_keeps_the_background_loops(tmp_path, capsys, flags, dim, truncated):
    out = tmp_path / "run.csv"
    assert run_cli(["evolve", "--n-sites", "2", "--t-max", "0.02", "--dt", "0.01", *flags, "-o", str(out)]) == 0
    assert f"dim {dim}," in capsys.readouterr().out
    assert json.loads((tmp_path / "run.json").read_text())["config"]["truncate_total_flux"] is truncated


def test_sidecar_reports_the_worst_invariants_and_the_thermal_gap(tmp_path):
    rec = EvolutionRecord(
        times=np.array([0.0, 0.5, 1.0]),
        n_pairs=np.array([0.0, 0.5, 0.75]),
        e2=np.array([0.0, 0.25, 0.5]),
        trace=np.array([1.0, 1.0 - 3e-12, 1.0 + 1e-12]),
        purity=np.ones(3),
        min_eig=np.array([0.0, -2e-9, -1e-9]),
        max_hermiticity_error=4e-13,
    )
    gibbs = {"beta": 0.1, "n_pairs": 1.0, "e2": 0.25, "c_even": {"n_pairs": 0.5, "e2": 0.375}}
    out = tmp_path / "run.csv"
    cli._write_outputs(out, rec, {"method": "rk4"}, gibbs, 1.5)
    sidecar = json.loads((tmp_path / "run.json").read_text())
    assert sidecar["invariants"] == {
        "max_trace_error": float(np.max(np.abs(rec.trace - 1.0))),
        "max_hermiticity_error": 4e-13,
        "min_eig": -2e-9,
    }
    assert sidecar["thermal_gap"] == {
        "t": 1.0, "e2": 0.25, "n_pairs": -0.25, "c_even": {"e2": 0.125, "n_pairs": 0.25},
    }
    assert sidecar["wall_time_s"] == 1.5
    assert set(sidecar["timings"]) == {"write_s"}  # a record made by hand carries no timings
    assert EvolutionRecord.from_csv(out.read_text()).trace[1] == rec.trace[1]


def test_evolve_output_is_deterministic(tmp_path):
    args = ["evolve", "--n-sites", "2", "--t-max", "0.5", "--dt", "0.01", "-o"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + [str(out1)]) == 0
    assert run_cli(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_evolve_exact_method(tmp_path):
    out = tmp_path / "exact.csv"
    assert run_cli(["evolve", "--method", "exact", "--n-sites", "2",
                    "--t-max", "1.0", "--dt", "0.1", "-o", str(out)]) == 0
    rec = EvolutionRecord.from_csv(out.read_text())
    assert len(rec) == 11


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--dt", ["evolve", "--n-sites", "2", "--dt", "0", "-o", "OUT"]),
        ("--n-cycles", ["evolve", "--n-sites", "2", "--method", "dilation", "--n-cycles", "0",
                        "-o", "OUT"]),
        ("--t-max", ["evolve", "--n-sites", "2", "--t-max", "1", "--dt", "0.3", "-o", "OUT"]),
        ("--t-max", ["evolve", "--n-sites", "2", "--t-max", "1.0", "--dt", "0.0075", "-o", "OUT"]),
        ("--t-max", ["evolve", "--n-sites", "2", "--t-max", "-1", "-o", "OUT"]),
        ("--t-max", ["evolve", "--n-sites", "2", "--method", "exact", "--t-max", "0", "-o", "OUT"]),
        ("--stride", ["compare", "--n-sites", "2", "--method-a", "rk4", "--method-b", "exact",
                      "--t-max", "1.0", "--dt", "0.01", "--stride", "0", "--out-a", "OUT"]),
        ("--sites", ["sweep", "--sites", "0", "-o", "OUT"]),
        ("--a", ["evolve", "--n-sites", "2", "--a", "0", "-o", "OUT"]),
        ("--a", ["hamiltonian", "--n-sites", "2", "--a", "0", "-o", "OUT"]),
        ("--t-max", ["evolve", "--n-sites", "2", "--t-max", "1e308", "--dt", "1e-300", "-o", "OUT"]),
        ("--t-max", ["evolve", "--n-sites", "2", "--method", "exact", "--t-max", "1e308",
                     "--dt", "1e-300", "-o", "OUT"]),
        ("--t-max", ["sweep", "--sites", "2", "--t-max", "1e308", "--dt", "1e-300", "-o", "OUT"]),
        ("--t-max", ["evolve", "--n-sites", "2", "--t-max", "1", "--dt", "1e-300", "-o", "OUT"]),
        ("--sites", ["sweep", "--sites", "2,2", "--t-max", "0.1", "-o", "OUT"]),
        ("--sites", ["sweep", "--sites", "4,2", "--t-max", "0.1", "-o", "OUT"]),
        ("--max-dev", ["compare", "--n-sites", "2", "--method-a", "rk4", "--method-b", "exact",
                       "--t-max", "0.1", "--dt", "0.01", "--max-dev", "-1", "--out-a", "OUT"]),
        ("--t-max", ["evolve", "--n-sites", "2", "--t-max", "1e17", "--dt", "1", "-o", "OUT"]),
        ("--n-cycles", ["evolve", "--n-sites", "2", "--method", "dilation", "--t-max", "1",
                        "--n-cycles", "100000000000000000", "-o", "OUT"]),
        ("--n-sites", ["evolve", "--n-sites", "13", "-o", "OUT"]),
        ("--method exact", ["evolve", "--n-sites", "8", "--method", "exact", "-o", "OUT"]),
        ("--method exact", ["compare", "--n-sites", "8", "--method-a", "rk4", "--method-b", "exact",
                            "--t-max", "0.01", "--dt", "0.005", "--out-a", "OUT"]),
        ("-o/--output", ["evolve", "--n-sites", "2", "--t-max", "0.1", "-o", "OUT.json"]),
        ("--out-b", ["compare", "--n-sites", "2", "--method-a", "rk4", "--method-b", "exact",
                     "--t-max", "0.1", "--dt", "0.01", "--out-a", "OUT", "--out-b", "OUT"]),
        ("--out-b", ["compare", "--n-sites", "2", "--method-a", "rk4", "--method-b", "exact",
                     "--t-max", "0.1", "--dt", "0.01", "--out-a", "OUT", "--out-b", "OUT/../out"]),
        ("--dump-unitaries", ["evolve", "--n-sites", "2", "--method", "dilation", "--t-max", "0.1",
                              "--n-cycles", "2", "--dump-unitaries", "OUT/gates", "-o", "OUT/gates_uj.csv"]),
    ],
    ids=["dt-zero", "no-cycles", "misaligned-grid", "misaligned-fine-grid", "negative-horizon",
         "exact-zero-horizon", "stride-zero", "no-sites", "evolve-zero-spacing",
         "hamiltonian-zero-spacing", "overflowing-step-count", "exact-overflowing-step-count",
         "sweep-overflowing-step-count", "unindexable-step-count", "repeated-sites",
         "descending-sites", "negative-max-dev", "unrecordable-step-count",
         "unrecordable-cycle-count", "unenumerable-lattice", "exact-superoperator-too-large",
         "compare-exact-superoperator-too-large", "csv-output-is-its-own-sidecar",
         "compare-outputs-are-one-file", "compare-outputs-are-one-file-by-two-names",
         "unitary-dump-is-the-sidecar"],
)
def test_bad_run_arguments_are_usage_errors(flag, argv, tmp_path, capsys):
    """Rejected before any setup: exit 2, the flag named, nothing written."""
    with pytest.raises(SystemExit) as err:
        run_cli([a.replace("OUT", str(tmp_path / "out")) for a in argv])
    assert err.value.code == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--dt", ["evolve", "--n-sites", "2", "--dt", "inf", "-o", "OUT"]),
        ("--t-max", ["evolve", "--n-sites", "2", "--t-max", "inf", "-o", "OUT"]),
        ("--t-max", ["evolve", "--n-sites", "2", "--method", "dilation", "--t-max", "nan",
                     "-o", "OUT"]),
        ("--dt", ["evolve", "--n-sites", "2", "--method", "exact", "--dt", "inf", "-o", "OUT"]),
        ("--m", ["evolve", "--n-sites", "2", "--m", "nan", "-o", "OUT"]),
        ("--a", ["evolve", "--n-sites", "2", "--a", "inf", "-o", "OUT"]),
        ("--e", ["hamiltonian", "--n-sites", "2", "--e=-inf", "-o", "OUT"]),
        ("--beta", ["gibbs", "--n-sites", "2", "--beta", "nan", "-o", "OUT"]),
        ("--coupling", ["evolve", "--n-sites", "2", "--coupling", "inf", "-o", "OUT"]),
        ("--max-dev", ["compare", "--n-sites", "2", "--method-a", "rk4", "--method-b", "exact",
                       "--t-max", "1.0", "--dt", "0.01", "--max-dev", "nan", "--out-a", "OUT"]),
        ("--tail-frac", ["sweep", "--sites", "2", "--tail-frac", "nan", "-o", "OUT"]),
    ],
    ids=["dt-inf", "horizon-inf", "dilation-horizon-nan", "exact-dt-inf", "mass-nan",
         "spacing-inf", "gauge-coupling-minus-inf", "beta-nan", "bath-coupling-inf", "max-dev-nan",
         "tail-frac-nan"],
)
def test_non_finite_float_options_are_usage_errors(flag, argv, tmp_path, capsys):
    """inf and nan are refused by the parser: exit 2, the flag named, nothing written."""
    with pytest.raises(SystemExit) as err:
        run_cli([str(tmp_path / "out") if a == "OUT" else a for a in argv])
    assert err.value.code == 2
    assert f"argument {flag}: must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("-o/--output", ["evolve", "--n-sites", "2", "--t-max", "0.1", "-o", "FILE/x.csv"]),
        ("-o/--output", ["evolve", "--n-sites", "2", "--t-max", "0.1", "-o", "DIR"]),
        ("--dump-unitaries", ["evolve", "--n-sites", "2", "--method", "dilation", "--t-max", "0.1",
                              "--n-cycles", "2", "--dump-unitaries", "FILE/gates", "-o", "DIR/x.csv"]),
        ("-o/--output-dir", ["sweep", "--sites", "2", "--t-max", "0.1", "-o", "FILE"]),
        ("--out-a", ["compare", "--n-sites", "2", "--method-a", "rk4", "--method-b", "exact",
                     "--t-max", "0.1", "--dt", "0.01", "--out-a", "DIR"]),
        ("-o/--output", ["gibbs", "--n-sites", "2", "-o", "DIR"]),
        ("--observables", ["hamiltonian", "--n-sites", "2", "--observables", "-o", "DIR/h_pairs"]),
    ],
    ids=["evolve-under-a-file", "evolve-onto-a-directory", "dump-under-a-file", "sweep-into-a-file",
         "compare-onto-a-directory", "gibbs-onto-a-directory", "observable-onto-a-directory"],
)
def test_outputs_that_cannot_be_written_are_usage_errors(flag, argv, tmp_path, capsys):
    """A file where a directory must be, or a directory where a file must be,
    is refused before any setup: exit 2, the flag named, nothing created."""
    (tmp_path / "file").write_text("kept")
    (tmp_path / "dir" / "h_pairs_pairs.json").mkdir(parents=True)
    with pytest.raises(SystemExit) as err:
        run_cli([a.replace("FILE", str(tmp_path / "file")).replace("DIR", str(tmp_path / "dir"))
                 for a in argv])
    assert err.value.code == 2
    assert flag in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "file", "h_pairs_pairs.json"]
    assert (tmp_path / "file").read_text() == "kept"


def test_evolve_dilation_dumps_unitaries(tmp_path):
    out = tmp_path / "dil.csv"
    prefix = tmp_path / "gates"
    code = run_cli(["evolve", "--method", "dilation", "--n-sites", "2",
                    "--t-max", "1.0", "--n-cycles", "20",
                    "--dump-unitaries", str(prefix), "-o", str(out)])
    assert code == 0
    uj, tag_j = matrix_from_json((tmp_path / "gates_uj.json").read_text())
    uh, tag_h = matrix_from_json((tmp_path / "gates_uh.json").read_text())
    assert tag_j.endswith("+ancilla")
    assert uj.shape == (8, 8)
    assert uh.shape == (4, 4)
    for u in (uj, uh):
        assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-13)


def test_dump_unitaries_requires_the_dilation_method(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli(["evolve", "--n-sites", "2", "--t-max", "1.0",
                 "--dump-unitaries", str(tmp_path / "g"),
                 "-o", str(tmp_path / "x.csv")])
    assert err.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_gibbs_prints_reference(tmp_path, capsys):
    out = tmp_path / "gibbs.json"
    assert run_cli(["gibbs", "--n-sites", "2", "-o", str(out)]) == 0
    ref = json.loads(out.read_text())
    assert ref["beta"] == pytest.approx(0.1)
    assert ref["e2"] == pytest.approx(0.3564747014220561, abs=1e-12)
    assert ref["n_pairs"] == pytest.approx(0.9642044409706013, abs=1e-12)


def test_gibbs_builds_no_lindblad_operator(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("gibbs needs no Lindblad operator")

    monkeypatch.setattr(cli, "build_lindblad_operator", refuse)
    assert run_cli(["gibbs", "--n-sites", "2"]) == 0
    ref = json.loads(capsys.readouterr().out)
    assert ref["beta"] == pytest.approx(0.1)
    assert ref["e2"] == pytest.approx(0.3564747014220561, abs=1e-12)
    assert ref["n_pairs"] == pytest.approx(0.9642044409706013, abs=1e-12)


def test_compare_rk4_against_exact(capsys):
    code = run_cli(["compare", "--n-sites", "2", "--method-a", "rk4",
                    "--method-b", "exact", "--t-max", "1.0", "--dt", "0.01",
                    "--stride", "10", "--max-dev", "1e-6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "n_pairs: max |dev|" in out
    assert "e2: max |dev|" in out


def test_compare_enforces_the_deviation_bound(capsys):
    code = run_cli(["compare", "--n-sites", "2", "--method-a", "rk4",
                    "--method-b", "dilation", "--t-max", "1.0", "--dt", "0.05",
                    "--n-cycles", "20", "--max-dev", "1e-12"])
    assert code == 1
    assert "exceeds" in capsys.readouterr().err


def test_compare_rk4_against_exact_at_six_sites(capsys):
    code = run_cli(["compare", "--n-sites", "6", "--method-a", "rk4",
                    "--method-b", "exact", "--t-max", "0.5", "--dt", "0.01",
                    "--stride", "10", "--max-dev", "1e-6"])
    assert code == 0
    assert "e2: max |dev|" in capsys.readouterr().out


def test_compare_writes_nothing_when_a_run_fails(tmp_path, capsys):
    # exact succeeds; rk4 then aborts at a step size it cannot hold
    with np.errstate(all="ignore"):
        code = run_cli(["compare", "--n-sites", "2", "--method-a", "exact", "--method-b", "rk4",
                        "--t-max", "50", "--dt", "5", "--out-a", str(tmp_path / "a.csv")])
    assert code == 1
    assert "rk4 aborted" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_compare_writes_nothing_when_the_grids_do_not_align(tmp_path, capsys):
    # two rk4 runs of zero horizon share one time point only
    with pytest.raises(SystemExit) as err:
        run_cli(["compare", "--n-sites", "2", "--method-a", "rk4", "--method-b", "rk4",
                 "--t-max", "0", "--out-a", str(tmp_path / "a.csv"),
                 "--out-b", str(tmp_path / "b.csv")])
    assert err.value.code == 2
    assert "fewer than two time points" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_writes_per_volume_runs_and_summary(tmp_path, capsys):
    code = run_cli(["sweep", "--sites", "2,4", "--t-max", "1.0", "--dt", "0.01",
                    "--stride", "10", "-o", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [run["n_sites"] for run in summary["runs"]] == [2, 4]
    assert [run["dim"] for run in summary["runs"]] == [4, 18]
    assert len(summary["thermal_e2_gaps"]) == 1
    assert summary["thermal_e2_gaps"][0] == pytest.approx(0.059321193303638, abs=1e-9)
    assert len(summary["curve_e2_distances"]) == 1
    for run in summary["runs"]:
        rec = EvolutionRecord.from_csv((tmp_path / run["csv"]).read_text())
        assert rec.times[-1] == pytest.approx(1.0)
        assert run["gibbs_e2"] > 0
        sidecar = json.loads((tmp_path / run["csv"]).with_suffix(".json").read_text())
        assert run["gibbs_e2_c_even"] == sidecar["gibbs_reference"]["c_even"]["e2"]
        assert run["gibbs_n_pairs_c_even"] == sidecar["gibbs_reference"]["c_even"]["n_pairs"]
    # at N = 4 the C-even line sits above the full sector's
    n4 = summary["runs"][1]
    assert n4["gibbs_e2_c_even"] == pytest.approx(0.421755, abs=1e-6)
    assert n4["gibbs_e2"] == pytest.approx(0.415796, abs=1e-6)


def test_sweep_summary_reports_the_c_even_gaps_and_row_by_row_distances(tmp_path, capsys):
    # the vacuum runs reach the C-even lines, 0.356475 (N = 2, where C-even is
    # the whole sector), 0.421755 (N = 4) and 0.430242 (N = 5)
    assert run_cli(["sweep", "--sites", "2,4,5", "--t-max", "0.5", "--dt", "0.01",
                    "--stride", "10", "-o", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    summary = json.loads((tmp_path / "summary.json").read_text())
    c_even = [run["gibbs_e2_c_even"] for run in summary["runs"]]
    assert summary["thermal_e2_gaps_c_even"] == [abs(c_even[1] - c_even[0]), abs(c_even[2] - c_even[1])]
    assert summary["thermal_e2_gaps_c_even"] == pytest.approx([0.065281, 0.008486], abs=1e-6)
    assert summary["thermal_gaps_c_even_decreasing"] is True
    assert len(summary["thermal_e2_gaps"]) == 2 and "thermal_gaps_decreasing" in summary
    assert "C-even thermal e2 gaps: 0.065281, 0.008486" in out
    assert "C-even gaps decreasing: True" in out
    e2 = [EvolutionRecord.from_csv((tmp_path / run["csv"]).read_text()).e2 for run in summary["runs"]]
    assert summary["curve_e2_distances"] == [float(np.max(np.abs(a - b))) for a, b in zip(e2, e2[1:])]


def test_sweep_of_zero_horizon_omits_the_curve_distances(tmp_path):
    assert run_cli(["sweep", "--sites", "2,4", "--t-max", "0", "-o", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert "curve_e2_distances" not in summary and "curve_distances_decreasing" not in summary
    assert len(summary["thermal_e2_gaps_c_even"]) == 1


def test_sweep_refuses_an_exact_size_before_its_engine_starts(tmp_path, capsys):
    # N = 2 runs; the generator of the N = 8 vacuum's C-even block (dim 476)
    # is a usage error
    with pytest.raises(SystemExit) as err:
        run_cli(["sweep", "--sites", "2,8", "--method", "exact", "--t-max", "0.1", "--dt", "0.05",
                 "-o", str(tmp_path)])
    assert err.value.code == 2
    assert "--method exact at N = 8: superoperator for dim 476" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["evolve_N2.csv", "evolve_N2.json"]


def test_sweep_rejects_bad_tail_fraction(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli(["sweep", "--sites", "2", "--tail-frac", "1.5", "-o", str(tmp_path)])
    assert err.value.code == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "openschwinger", "states", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "closed form) = 13" in proc.stdout
