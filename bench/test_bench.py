"""Self-test of the benchmark (not part of the Tier-1 suite; about 3 minutes).

    python3 -m pytest -q bench/test_bench.py

Runs one traced run of every workload and checks that tracing changes no
result, that each per-layer metric is non-zero on the workloads its layer is
meant to move, and that rigidify never reaches dictionary, wedge or fock.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from compare import differing_digests  # noqa: E402
from digest import InexactResult, digest  # noqa: E402
from tracer import PER_LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

C, O, R = "calibrate", "operators", "rigidify"


def _names(span, *stats):
    return [f"{span}.{s}" for s in stats]


# metric -> workloads on which it must be non-zero (the layer table in README.md)
NONZERO_ON = {}
for names, workloads in [
    (_names("exact.poly_gcd", "calls", "self_s", "cache_hit_frac", "sympy_calls",
            "sympy_frac", "cache_size"), (C, O, R)),
    (_names("exact.TPoly.mul", "calls", "self_s") + _names("exact.TPoly.add", "calls", "self_s"),
     (C, R)),
    ([f"exact.RatFn.{op}.{s}" for op in ("new", "mul", "add") for s in ("calls", "self_s")],
     (C, O, R)),
    ([f"exact.QSSeries.{op}.{s}" for op in ("mul", "scale", "add") for s in ("calls", "self_s")]
     + ["exact.log_atom_expand.s", "exact.rational_reconstruct_q.s"], (O,)),
    (_names("wedge.e_act", "calls", "s") + _names("wedge.normal_pair_matrix", "calls",
                                                  "cache_hit_frac", "s")
     + ["wedge.omega_plus_terms.s", "wedge.theta_logatoms.s"], (C, O)),
    (_names("fock.nak_pairing", "calls", "s") + ["fock.convert_labels.s"], (C, O)),
    (["fock.omega0_mode_matrices.s"], (O,)),  # no calibration stage reaches it
    (_names("vertex.insertion_limit", "calls", "s")
     + ["vertex.vacuum_series.s", "vertex.theta_vacuum_series.s"], (R,)),
    (["dictionary.atom_targets.s", "dictionary.mode_tower.s", "dictionary.mode_level.calls",
      "dictionary.mode_level.s", "dictionary.ratfn_solve.s", "dictionary.transport_inverse.s"],
     (C, O)),  # operators calibrates in its set-up
    ([f"dictionary.{x}.s" for x in ("bracket_matrix", "word_bracket_table", "m_divisor",
                                    "three_point", "rationality_certificate", "spectrum_probe")]
     + [f"dictionary.check.{c}.s" for c in ("factorization", "tau_linearity", "vanishing",
                                            "corner", "heisenberg", "self_adjoint", "commute")],
     (O,)),
    (_names("partitions.enumerate_multipartitions", "calls", "s"), (C, O)),
    (["surface.SurfaceGeometry.new.calls"], (C, O, R)),
]:
    for name in names:
        NONZERO_ON[name] = workloads


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = {}
    for w in WORKLOADS:
        path = tmp_path_factory.mktemp("bench") / f"{w}.json"
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", "1",
             "--seconds", "1", "--trace", "1", "--out", str(path)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600,
        )
        out[w] = json.loads(path.read_text())
    return out


def test_table_covers_every_layer_metric():
    names = {name for name, _, _ in PER_LAYER_METRICS}
    assert set(NONZERO_ON) == names - {"trace.overhead_frac"}


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER_METRICS
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb", "ok_frac"}


def test_traced_and_untraced_digests_identical(traced):
    for w, doc in traced.items():
        plain, trace = doc["reps"]
        assert not plain["traced"] and trace["traced"]
        assert [t["digest"] for t in plain["tasks"]] == [t["digest"] for t in trace["tasks"]], w
        assert all(t["digest"] for t in plain["tasks"]), w
        assert doc["result"]["correct"], w


def test_layer_metrics_nonzero_where_they_move(traced):
    for name, workloads in NONZERO_ON.items():
        for w in workloads:
            assert traced[w]["result"]["metrics"][name]["value"] > 0, (name, w)


def test_rigidify_bypasses_dictionary_wedge_fock(traced):
    spans = traced["rigidify"]["reps"][1]["trace"]["spans"]
    bypassed = {k: v["calls"] for k, v in spans.items()
                if k.split(".")[0] in ("dictionary", "wedge", "fock")}
    assert len(bypassed) > 20  # the tracer did wrap these layers
    assert not any(bypassed.values()), {k: v for k, v in bypassed.items() if v}


def test_tracer_rebinds_names_imported_elsewhere_and_restores():
    from andt import dictionary, exact

    before = (dictionary.log_atom_expand, exact.RatFn.__radd__, exact.poly_gcd)
    with Tracer() as tr:
        assert dictionary.log_atom_expand is exact.log_atom_expand
        assert dictionary.log_atom_expand is not before[0]
        dictionary._vacuum_scalar_series(1, exact.Window(1, 2, 1), 1)
        exact.RF_ONE.__radd__(exact.RF_ONE)
    assert tr.stats["exact.log_atom_expand"][0] > 0
    assert tr.stats["exact.RatFn.add"][0] > 0
    assert (dictionary.log_atom_expand, exact.RatFn.__radd__, exact.poly_gcd) == before


def test_digest_is_canonical_and_exact():
    from andt.exact import RatFn, T1, T2, TPoly

    assert digest({"a": RatFn(T1), "b": [1, 2]}) == digest({"b": [1, 2], "a": RatFn(T1)})
    assert digest(RatFn(T1)) != digest(RatFn(T2))
    assert digest({"ok": True, "elapsed_s": 1.0}) == digest({"ok": True, "elapsed_s": 2.0})
    with pytest.raises(InexactResult):
        digest(TPoly({(1, 0, 0): 0.5}, _trusted=True))


def test_compare_lists_differing_digests():
    a = {"digests": {"x": "1", "y": "2"}}
    b = {"digests": {"x": "1", "y": "3", "z": "4"}}
    assert differing_digests(a, b) == [("y", "2", "3"), ("z", None, "4")]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rigidify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
