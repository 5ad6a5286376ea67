"""Tests of the benchmark itself, on tiny sizes through the same code."""

import json
import sys

import numpy as np
import pytest

from perfbench import run
from perfbench.spans import Span, self_times

assert run.load_package() is None
from openschwinger import EvolutionRecord  # noqa: E402  (needs the package on the path)
from perfbench import workloads as wl  # noqa: E402

SPEC = run.benchmark_spec()


def _run(capsys, *argv):
    code = run.main(list(argv), workloads=wl.TINY_WORKLOADS)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_each_workload_prints_every_named_metric_with_its_unit(capsys, workload, trace):
    code, lines = _run(capsys, "--workload", workload, "--seed", "1", "--seconds", "0",
                       "--trace", str(trace))
    assert code == 0
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(final["metrics"]) == {m["name"] for m in listed}
    printed = {ln.split()[1]: ln.split()[3] for ln in lines if ln.startswith("metric ")}
    for m in listed:
        value = final["metrics"][m["name"]]
        assert value["unit"] == m["unit"] == run.unit_of(m["name"]) == printed[m["name"]]
        assert np.isfinite(value["value"])
    assert printed["failed_frac"] == "frac"
    for name, unit in printed.items():
        assert unit == run.unit_of(name)
    if trace and workload == "oracle-circuit":
        for name in ("lindblad.liouvillian_s", "lindblad.steady_state_s", "dilation.cycle_ms",
                     "dilation.ms_per_cycle.1t", "dilation.useful_frac"):
            assert name in printed
    assert lines[1].startswith("env ")
    env = json.loads(lines[1][4:])
    assert env["nproc"] >= 1 and env["numpy"] == np.__version__


def test_one_thread_probe_runs_single_threaded(capsys):
    code, lines = _run(capsys, "--workload", "rk4-n8", "--seed", "0", "--seconds", "0",
                       "--trace", "1")
    assert code == 0
    result = json.loads(next(ln for ln in lines if ln.startswith("result "))[len("result "):])
    blas = result["details"]["one_thread"]["blas"]
    if "error" not in blas and blas["numpy"]["threads"] is not None:
        assert blas["numpy"]["threads"] == 1


def test_the_gate_rejects_a_corrupted_record_and_counts_it(capsys, monkeypatch):
    rk4 = wl.rk4_evolve

    def shifted(*args, **kwargs):
        rec = rk4(*args, **kwargs)
        rec.trace = rec.trace + 1e-6
        return rec

    monkeypatch.setattr(wl, "rk4_evolve", shifted)
    code, lines = _run(capsys, "--workload", "rk4-small", "--seed", "0", "--seconds", "0",
                       "--trace", "0")
    final = json.loads(lines[-1])
    assert code == 1
    assert final["correct"] is False
    # two passes, each with two sizes whose trace check fails
    assert final["failed"] == 4
    frac = next(ln for ln in lines if ln.startswith("metric failed_frac "))
    assert float(frac.split()[2]) == pytest.approx(4 / final["attempted"])
    assert any("|tr - 1|" in ln for ln in lines if ln.startswith("FAILED: "))


def test_gate_invariants_on_a_single_record():
    gate = wl.Gate()
    times = np.array([0.0, 0.1])
    good = dict(times=times, n_pairs=np.zeros(2), e2=np.zeros(2), trace=np.ones(2),
                purity=np.ones(2), min_eig=np.zeros(2))
    gate.record(EvolutionRecord(**good), "good")
    assert gate.failed == 0 and gate.attempted == 3
    gate.record(EvolutionRecord(**dict(good, min_eig=np.array([0.0, -2e-7]))), "negative")
    gate.record(EvolutionRecord(**good, max_hermiticity_error=1e-9), "non-Hermitian")
    assert gate.failed == 2 and gate.attempted == 9


def test_self_time_is_duration_less_the_direct_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 5.0, 9.0, parent=0),
        Span("b.inner", 6.0, 7.0, parent=2),
        Span("b.inner2", 7.0, 8.5, parent=2),
        Span("a.inner", 1.5, 2.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 1.5, 1.0, 1.5, 0.5])


def test_a_missing_patch_target_raises():
    import types

    module = types.SimpleNamespace(present=lambda: 1)
    tracer = wl.Tracer(layers=True)
    with pytest.raises(AttributeError):
        with tracer.patched([(module, "present", "x.present"), (module, "renamed", "x.renamed")]):
            pass
    assert module.present() == 1 and not tracer.spans  # restored, unwrapped


def test_liouvillian_mb_counts_only_the_sizes_that_build_it(tmp_path):
    p = wl.run_pass(wl.TINY_WORKLOADS["oracle-circuit"], 0, True, tmp_path)
    assert p.liouvillian_sizes == {2}
    assert p.sizes[2]["dim"] == 4 and p.sizes[3]["dim"] > 4
    raw = wl.layer_raw(p)
    probe = wl.record_probe(p)
    probe_1t = wl.engine_probe(p.kept, [(2, 2, 0.005)], p.dilation_runs)
    m = wl.layer_metrics(raw, p, probe, probe_1t)
    assert m["lindblad.liouvillian_mb"] == 4**4 * 16 / 2**20


def test_outputs_are_the_clis_own(tmp_path):
    from openschwinger import cli

    p = wl.run_pass(wl.TINY_WORKLOADS["rk4-small"], 0, False, tmp_path)
    csv = tmp_path / "rk4_N2.csv"
    sidecar = json.loads(cli._sidecar_path(csv).read_text())
    assert sidecar["config"]["method"] == "rk4" and sidecar["config"]["stride"] == 1
    assert sidecar["config"]["coupling"] == wl.COUPLING
    files = sorted(tmp_path.iterdir())
    assert len(files) == 4
    assert p.bytes_written == sum(f.stat().st_size for f in files)


def test_a_checkout_without_the_package_exits_nonzero_without_a_result(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    code = run.main(["--workload", "rk4-n8", "--seed", "0", "--seconds", "1", "--trace", "0"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_spread_is_the_quartile_distance_over_the_median():
    from perfbench.spread import parse_seeds, summarise

    assert parse_seeds("0-3") == [0, 1, 2, 3] and parse_seeds("4,7") == [4, 7]
    s = summarise([10.0, 11.0, 9.0, 10.0, 12.0, 8.0, 10.0, 10.0, 11.0, 9.0])
    assert s["median"] == 10.0 and s["spread"] == pytest.approx((11.0 - 9.0) / 10.0)
