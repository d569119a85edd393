"""Sensitivity bench — quantifies the Fig. 5 orbit-noise claim.

Shape asserted: the GMS-reference (Eq. 3) scheduler's T_short share is
tight around the 1/9 ideal regardless of timer jitter, while quantum-
granularity SFS's share is (a) above the ideal and (b) pulled toward it
by jitter — the behaviour the reproduction note in
``repro.experiments.fig5_shortjobs`` documents.
"""

from conftest import record, run_once
from repro.experiments import sensitivity


def test_fig5_orbit_sensitivity(benchmark):
    result = run_once(
        benchmark,
        sensitivity.run,
        jitters=(0.0, 0.05),
        seeds=(1, 2),
    )
    text = sensitivity.render(result)
    record(
        benchmark,
        text,
        sfs_mean_no_jitter=result.mean("sfs", 0.0),
        sfs_mean_jitter=result.mean("sfs", 0.05),
        gms_mean_no_jitter=result.mean("gms-reference", 0.0),
    )
    ideal = sensitivity.IDEAL_SHORT_SHARE
    # GMS-reference: insensitive and on the ideal.
    for jitter in (0.0, 0.05):
        assert abs(result.mean("gms-reference", jitter) - ideal) < 0.03
        assert result.spread("gms-reference", jitter) < 0.02
    # SFS: above the ideal (the Eq. 4 clamp) but within 2x with noise.
    assert result.mean("sfs", 0.05) > ideal
    assert result.mean("sfs", 0.05) < 2.2 * ideal