"""Reliability campaigns: determinism, accounting, pool batching."""

import numpy as np
import pytest

from repro.engine.machine import Counters
from repro.reliability import Campaign, CampaignResult, FaultPoint
from repro.serve.pool import BankPool


@pytest.fixture
def workload():
    rng = np.random.default_rng(0)
    z = rng.integers(-1, 2, (8, 16)).astype(np.int8)
    xs = rng.integers(-5, 6, (3, 8))
    return z, xs


def _campaign(z, xs, **kw):
    kw.setdefault("banks_per_trial", 2)
    return Campaign(z=z, xs=xs, kind="ternary", **kw)


class TestEngineTrials:
    def test_fault_free_point_is_exact(self, workload):
        z, xs = workload
        result = _campaign(z, xs).run([FaultPoint(p_cim=0.0)], n_trials=2)
        row = result.rows[0]
        assert row["injected"] == 0
        assert row["silent_lanes"] == 0
        assert row["exact_trials"] == 2
        assert row["mean_ops"] > 0

    def test_high_rate_corrupts_silently_without_protection(self,
                                                            workload):
        z, xs = workload
        result = _campaign(z, xs).run([FaultPoint(p_cim=0.2)], n_trials=2)
        row = result.rows[0]
        assert row["injected"] > 0
        assert row["silent_trials"] == 2
        assert 0 < row["silent_rate"] <= 1
        # Fused fault replay actually carried the campaign (cold trials
        # replay their chains, compiled on first sight).
        assert row["trace_replays"] + row["megatrace_replays"] > 0

    def test_protection_detects_and_corrects(self, workload):
        z, xs = workload
        result = _campaign(z, xs).run(
            [FaultPoint(p_cim=2e-3, fr_checks=2)], n_trials=2)
        row = result.rows[0]
        assert row["injected"] > 0
        assert row["detected"] > 0
        # Outcome-level correction accounting: every detected-faulty
        # block re-executed to a clean validation, none exhausted, and
        # a corrected block implies at least one retry.
        assert row["corrected"] > 0
        assert row["corrected"] <= row["retries"]
        assert row["retry_exhausted"] == 0 and row["failed_lanes"] == 0
        # At this moderate rate the ECC scheme keeps outputs exact.
        assert row["silent_lanes"] == 0
        assert row["exact_trials"] == 2

    def test_exhausted_retries_are_loud_not_silent(self, workload):
        """A query whose protection burns every retry is a *detected*
        failure: its lanes land in failed_lanes, never silent_lanes,
        and the trial is not exact."""
        z, xs = workload
        result = _campaign(z, xs).run(
            [FaultPoint(p_cim=0.3, fr_checks=2)], n_trials=1)
        row = result.rows[0]
        assert row["retry_exhausted"] > 0
        assert row["failed_lanes"] > 0
        assert row["exact_trials"] == 0
        # Silent corruption is only counted on completed queries.
        trial = result.trials[0].metrics
        assert trial["failed_lanes"] + trial["n_outputs"] \
            == z.shape[1] * xs.shape[0]

    def test_deterministic_across_pool_budgets(self, workload):
        z, xs = workload
        points = [FaultPoint(p_cim=0.05),
                  FaultPoint(p_cim=0.05, p_read=0.005),
                  FaultPoint(p_cim=0.05, margin_aware=False)]
        a = _campaign(z, xs, pool_banks=8).run(points, n_trials=2)
        b = _campaign(z, xs, pool_banks=2).run(points, n_trials=2)
        c = _campaign(z, xs).run(points, n_trials=2)   # unbounded
        assert a.rows == b.rows == c.rows
        assert [t.metrics for t in a.trials] == [t.metrics
                                                 for t in b.trials]

    def test_word_trials_match_bit_backend_outcomes(self, workload):
        """Same seeds, same outcomes: the fused word campaign runs the
        bit-level reference campaign's command stream on the same bank
        cluster geometry, so it injects the same flips, corrupts the
        same lanes and issues the same commands (only the program
        store's and the replay tiers' counters are backend-specific)."""
        z, xs = workload
        points = [FaultPoint(p_cim=0.1)]
        word = _campaign(z, xs).run(points, n_trials=2)
        bit = _campaign(z, xs, backend="bit").run(points, n_trials=2)
        for tw, tb in zip(word.trials, bit.trials):
            assert tw.metrics["injected"] > 0
            keys = [key for key in tw.metrics if not key.startswith(
                ("program_", "trace_", "megatrace_"))]
            assert {k: tw.metrics[k] for k in keys} \
                == {k: tb.metrics[k] for k in keys}
        assert word.rows[0]["trace_replays"] \
            + word.rows[0]["megatrace_replays"] > 0
        assert bit.rows[0]["trace_replays"] == 0

    def test_read_only_faults_decode_leniently(self):
        """A model that only flips reads can still corrupt counters, so
        trials decode leniently: the corruption is reported as silent
        lanes, never raised as a strict-decode overflow."""
        rng = np.random.default_rng(3)
        z = rng.integers(-1, 2, (12, 20)).astype(np.int8)
        xs = rng.integers(-6, 7, (4, 12))
        row = Campaign(z=z, xs=xs, kind="ternary").run(
            [FaultPoint(p_cim=0.0, p_read=1e-2)], n_trials=4).rows[0]
        assert row["injected"] > 0
        assert row["silent_lanes"] > 0 and row["failed_lanes"] == 0

    def test_wave_admission_respects_pool(self, workload):
        z, xs = workload
        pool = BankPool(4)
        campaign = _campaign(z, xs, pool=pool, banks_per_trial=2)
        assert campaign.wave_size() == 2
        result = campaign.run([FaultPoint(p_cim=0.05)], n_trials=5)
        assert len(result.trials) == 5
        assert pool.banks_free == 4          # all leases returned
        assert pool.n_live_leases == 0
        # A pool smaller than banks_per_trial still admits one trial
        # (plans clamp to the total budget).
        tiny = _campaign(z, xs, pool_banks=1, banks_per_trial=4)
        assert tiny.wave_size() == 1
        out = tiny.run([FaultPoint(p_cim=0.0)], n_trials=1)
        assert out.rows[0]["exact_trials"] == 1

    def test_trial_reproducible_in_isolation(self, workload):
        z, xs = workload
        campaign = _campaign(z, xs)
        full = campaign.run([FaultPoint(p_cim=0.1)], n_trials=3)
        # Re-running just trial index 2 reproduces its metrics (no
        # wave list: the solo trial closes its own device).
        solo = _campaign(z, xs)._run_point_trial(
            0, FaultPoint(p_cim=0.1), 2)
        assert solo.metrics == full.trials[2].metrics

    def test_megatrace_path_preserves_campaign_accounting(self,
                                                          workload):
        """Trials whose repeated queries ride trace chains keep the
        injected / detected / corrected / silent accounting -- and the
        measured op stream -- identical to the interpreted path, and
        stay reproducible from the seed tree when a trial is re-run
        alone."""
        import contextlib

        from repro.isa.trace import fusion_disabled

        z, xs = workload
        reps = np.repeat(xs[:1], 4, axis=0)
        points = [FaultPoint(p_cim=0.02),                 # unprotected
                  FaultPoint(p_cim=2e-3, fr_checks=2)]    # protected

        def run(ctx=contextlib.nullcontext):
            with ctx():
                return _campaign(z, reps).run(points, n_trials=3)

        mega = run()
        interp = run(fusion_disabled)
        # Everything except the cache counters -- including injected,
        # detected, corrected, silent_lanes, measured_ops -- is equal
        # trial for trial across both execution paths.
        drop = {"program_compiles", "program_replays", "trace_compiles",
                "trace_replays", "megatrace_compiles", "megatrace_replays"}

        def core(result):
            return [{k: v for k, v in t.metrics.items() if k not in drop}
                    for t in result.trials]

        assert core(mega) == core(interp)
        # The unprotected point's trials really rode trace chains.
        assert all(t.metrics["megatrace_replays"] > 0
                   for t in mega.point_trials(0))
        assert all(t.metrics["megatrace_replays"] == 0
                   for t in interp.trials)
        row = mega.rows[0]
        assert row["injected"] > 0
        assert row["megatrace_compiles"] > 0
        assert row["megatrace_replays"] > 0
        # The protected point exercises detection/correction; its
        # accounting equality is covered by the core() check above.
        assert mega.rows[1]["detected"] > 0
        assert mega.rows[1]["corrected"] > 0
        # Seed-tree isolation holds on the chain path too.
        solo = _campaign(z, reps)._run_point_trial(0, points[0], 1)
        assert solo.metrics == mega.point_trials(0)[1].metrics

    def test_summary_row_totals_every_counter(self, workload):
        """Each summary row totals every engine counter its trials
        report, at an unprotected point and an ECC point."""
        z, xs = workload
        points = [FaultPoint(p_cim=0.02), FaultPoint(p_cim=2e-3,
                                                     fr_checks=1)]
        result = _campaign(z, xs, backend="word").run(points, n_trials=3)
        for index, row in enumerate(result.rows):
            trials = result.point_trials(index)
            for name in Counters._fields:
                assert row[name] == sum(t.metrics[name] for t in trials), \
                    name
        assert result.rows[0]["trace_compiles"] > 0


class TestCustomTrials:
    def test_custom_trial_metrics_are_averaged(self):
        def trial(point, rng):
            return {"metric": point.p_cim * 100 + rng.integers(0, 3)}

        campaign = Campaign(trial=trial, base_seed=5)
        points = [FaultPoint(p_cim=0.01, label="a"),
                  FaultPoint(p_cim=0.02, label="b")]
        result = campaign.run(points, n_trials=4)
        assert [row["point"] for row in result.rows] == ["a", "b"]
        for row, point in zip(result.rows, points):
            assert row["trials"] == 4
            assert point.p_cim * 100 <= row["metric"] \
                   <= point.p_cim * 100 + 2
        # Deterministic in the seed tree.
        again = Campaign(trial=trial, base_seed=5).run(points, n_trials=4)
        assert again.rows == result.rows

    def test_requires_workload_or_trial(self):
        with pytest.raises(ValueError, match="workload"):
            Campaign()
        with pytest.raises(ValueError, match="positive"):
            Campaign(trial=lambda p, r: {}).run([FaultPoint(0.0)],
                                                n_trials=0)


class TestResultRendering:
    def test_render_and_point_lookup(self, workload):
        z, xs = workload
        points = [FaultPoint(p_cim=0.0), FaultPoint(p_cim=0.1,
                                                    fr_checks=2)]
        result = _campaign(z, xs).run(points, n_trials=1)
        text = result.render()
        assert "Reliability campaign" in text
        assert "p_cim=0.1,fr=2" in text
        assert len(result.point_trials(0)) == 1
        assert isinstance(result, CampaignResult)

    def test_duplicate_grid_points_keep_separate_trial_sets(self,
                                                            workload):
        """Value-equal points at different grid positions must not
        pool their trials in the summary (aggregation is by index)."""
        z, xs = workload
        points = [FaultPoint(p_cim=0.1), FaultPoint(p_cim=0.1)]
        result = _campaign(z, xs).run(points, n_trials=2)
        assert [row["trials"] for row in result.rows] == [2, 2]
        assert len(result.point_trials(0)) == 2
        assert len(result.point_trials(1)) == 2
        # Distinct seed subtrees: the duplicates draw different faults.
        assert result.rows[0]["injected"] != result.rows[1]["injected"]

    def test_fault_point_names(self):
        assert FaultPoint(p_cim=1e-2).name == "p_cim=0.01"
        assert FaultPoint(p_cim=1e-2, p_read=1e-3, margin_aware=False,
                          fr_checks=2, scheme="ecc").name == \
            "p_cim=0.01,p_read=0.001,no-margin,fr=2,ecc"
        assert FaultPoint(p_cim=1.0, label="x").name == "x"
