"""Experiment registry: every table/figure regenerates with the paper's
qualitative structure intact."""

import math

import numpy as np
import pytest

from repro.experiments import experiment_names, run_experiment


class TestRegistry:
    def test_all_experiments_registered(self):
        names = experiment_names()
        for expected in ("analytics", "fig03", "fig04", "fig07", "fig08",
                         "fig09", "fig10", "fig14", "fig15", "fig16",
                         "fig17", "fig18", "fig19", "fleet", "table1"):
            assert expected in names

    def test_unknown_name(self):
        from repro.experiments import get_experiment
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_render_smoke(self):
        res = run_experiment("fig19")
        text = res.render()
        assert "Fig. 19" in text and "radix10" in text


class TestFigureInvariants:
    def test_fig07_all_patterns_correct(self):
        res = run_experiment("fig07")
        assert len(res.rows) == 9
        assert all(r["all_states_correct"] for r in res.rows)
        # Constant work: forward + inverted edges always total n = 5.
        assert all(r["forward_shift_edges"]
                   + r["inverted_feedback_edges"] == 5 for r in res.rows)

    def test_fig08_orderings(self):
        res = run_experiment("fig08")
        rca_row = next(r for r in res.rows if r["radix"] == "RCA")
        for row in res.rows:
            if row["radix"] == "RCA":
                continue
            # IARM always beats naive k-ary and the worst-case RCA_i64.
            assert row["iarm"] < row["kary_i64"]
            assert row["iarm"] < rca_row["unit_i64"]
        # IARM minimum sits in the paper's radix 4-8 sweet spot.
        iarm = {r["radix"]: r["iarm"] for r in res.rows
                if r["radix"] != "RCA"}
        best = min(iarm, key=iarm.get)
        assert best in (4, 6, 8)

    def test_fig09_values_always_exact(self):
        res = run_experiment("fig09")
        assert res.rows[0]["carry_resolves"] == 0      # Fig. 9 step 1
        assert res.rows[0]["value"] == 10008
        assert all("#" in r["digits(MSD..LSD)"] for r in res.rows)

    def test_fig10_counts(self):
        res = run_experiment("fig10")
        for row in res.rows:
            n = row["n_bits"]
            assert row["pinatubo_measured"] == 3 * n + 4
            assert row["magic_measured"] <= 6 * n + 5
            assert row["pinatubo_measured"] < row["ambit(7n+7)"]

    def test_table1_matches_paper(self):
        res = run_experiment("table1")
        for row in res.rows:
            assert row["error_rate"] == pytest.approx(
                row["paper_error"], rel=0.55)
            assert row["detect_rate"] == pytest.approx(
                row["paper_detect"], rel=0.05)

    def test_fig14_structure(self):
        res = run_experiment("fig14")
        assert len(res.rows) == 10
        for row in res.rows:
            # C2M always ahead of SIMDRAM; GPU ahead on dense GEMM.
            assert row["C2M_gops"] > row["SIMDRAM_gops"]
            if row["workload"].startswith("M"):
                assert row["GPU_gops"] > row["C2M_gops"]
            assert row["C2M/GPU_gops_per_W"] > row["SIMDRAM/GPU_gops_per_W"]

    def test_fig15_bank_scaling(self):
        res = run_experiment("fig15")
        for row in res.rows:
            assert row["C2M:1_ms"] > row["C2M:4_ms"] > row["C2M:16_ms"]
            assert row["SIMDRAM:16_ms"] > row["C2M:16_ms"]
            ratio = row["C2M:1_ms"] / row["C2M:4_ms"]
            assert ratio == pytest.approx(4.0, rel=0.02)

    def test_fig16_crossovers(self):
        res = run_experiment("fig16")
        v0 = [r for r in res.rows if r["workload"] == "V0"]
        m0 = [r for r in res.rows if r["workload"] == "M0"]
        # C2M latency falls with sparsity; GPU and SIMDRAM stay flat.
        assert v0[0]["C2M_ms"] > v0[-1]["C2M_ms"]
        assert v0[0]["GPU_ms"] == v0[-1]["GPU_ms"]
        assert v0[0]["SIMDRAM_ms"] == v0[-1]["SIMDRAM_ms"]
        # GEMV crossover at moderate sparsity, GEMM only at the extreme.
        v0_cross = next(float(n.split("beyond ")[1].split("%")[0])
                        for n in res.notes if n.startswith("V0"))
        m0_cross = next(float(n.split("beyond ")[1].split("%")[0])
                        for n in res.notes if n.startswith("M0"))
        assert 10 <= v0_cross <= 75          # paper: ~40 %
        assert m0_cross > 99 or math.isnan(m0_cross)

    def test_fig19_checkpoints(self):
        res = run_experiment("fig19")
        dna = next(r for r in res.rows
                   if str(r["capacity"]).startswith("DNA"))
        assert dna["radix10"] == 10 and dna["binary"] == 7
        for row in res.rows:
            if isinstance(row["capacity"], int):
                exp = int(math.log2(row["capacity"]))
                if exp % 2 == 0:
                    assert row["radix4"] == row["binary"]

    def test_fig03_small_values(self):
        res = run_experiment("fig03")
        assert any("4-8 bits" in n or "bits" in n for n in res.notes)
        dna_rows = [r for r in res.rows
                    if r["source"] == "DNA token repetition"]
        assert dna_rows and dna_rows[0]["value"] <= 2

    def test_fleet_parity(self):
        res = run_experiment("fleet", quick=True)
        configs = {r["config"]: r for r in res.rows}
        assert set(configs) == {"server", "fleet-2"}
        assert all(r["parity"] for r in res.rows)
        assert configs["fleet-2"]["shards"] == 2
        for row in res.rows:
            assert row["p50_us"] <= row["p99_us"]


@pytest.mark.slow
class TestSlowExperiments:
    def test_fig04_shapes(self):
        res = run_experiment("fig04")
        rmse_rows = [r for r in res.rows if "rmse[JC]" in r]
        at = {r["fault_rate"]: r for r in rmse_rows}
        # RCA error dwarfs JC at every common fault rate.
        for f in (1e-4, 1e-3, 1e-2):
            assert at[f]["rmse[RCA]"] > 5 * at[f]["rmse[JC]"]
        # Protection flattens the curve at moderate rates.
        assert at[1e-3]["rmse[JC+ECC]"] < at[1e-3]["rmse[JC]"] + 1e-9

    def test_fig17_orderings(self, shared_experiment):
        # Shared with benchmarks/test_fig17.py: one computation per
        # session.
        res = shared_experiment("fig17")
        dna = {r["fault_rate"]: r for r in res.rows if r["app"] == "DNA"}
        assert dna[1e-4]["JC"] > dna[1e-4]["RCA"]
        assert dna[1e-2]["JC+ECC"] > dna[1e-2]["JC+TMR"] - 0.05
        assert dna[1e-2]["JC+ECC"] > 0.9
        bert = {r["fault_rate"]: r for r in res.rows if r["app"] == "BERT"}
        assert bert[1e-2]["JC+ECC"] >= bert[1e-2]["JC"]

    def test_fig18_protection_overheads(self):
        res = run_experiment("fig18")
        for row in res.rows:
            assert row["C2M_ms"] < row["SIMDRAM_ms"]
            assert row["C2M_protected_ms"] > row["C2M_ms"]
            inflation = row["C2M_protected_ms"] / row["C2M_ms"]
            # (13n+16)/(7n+7)|n=2 * 1.196 = 2.39x
            assert inflation == pytest.approx(2.39, rel=0.05)
            assert row["correction_overhead"] == pytest.approx(0.196,
                                                               abs=0.01)
