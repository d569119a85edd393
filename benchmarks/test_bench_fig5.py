"""Figure 5 — the short jobs problem: SFQ vs SFS (vs the GMS ideal).

Paper shape: group weights 20:20:5 should yield shares 4:4:1. SFQ gives
each *set* roughly equal bandwidth (T_short wildly over-served); SFS
comes much closer to 4:4:1; the paper's own Eq. 3 ideal (GMS-reference)
delivers it exactly. See the reproduction note in the
``repro.experiments.fig5_shortjobs`` docstring for the orbit-stability
analysis of the residual SFS-vs-ideal gap.
"""

from conftest import record, run_once
from repro.experiments import fig5_shortjobs

IDEAL = fig5_shortjobs.IDEAL_SHARES


def test_fig5a_sfq_fails_proportions(benchmark):
    result = run_once(benchmark, fig5_shortjobs.run, "sfq")
    record(benchmark, fig5_shortjobs.render(result), **result.group_share)
    # T_short grabs way beyond its 1/9 entitlement under SFQ.
    assert result.group_share["T_short"] > 2.0 * IDEAL["T_short"]


def test_fig5b_sfs_close_to_4_4_1(benchmark):
    result = run_once(
        benchmark, fig5_shortjobs.run, "sfs", quantum_jitter=0.05
    )
    record(benchmark, fig5_shortjobs.render(result), **result.group_share)
    sfq = fig5_shortjobs.run("sfq")
    # SFS is strictly closer to the ideal on every group than SFQ.
    for group in ("T1", "T2-21", "T_short"):
        assert abs(result.group_share[group] - IDEAL[group]) < abs(
            sfq.group_share[group] - IDEAL[group]
        ), group
    # And T_short is held within 2x of its entitlement (the Eq. 4
    # zero-clamp keeps it from reaching the exact 1/9; see the
    # fig5_shortjobs reproduction note).
    assert result.group_share["T_short"] < 2.0 * IDEAL["T_short"]


def test_fig5_gms_reference_delivers_4_4_1(benchmark):
    result = run_once(benchmark, fig5_shortjobs.run, "gms-reference")
    record(benchmark, fig5_shortjobs.render(result), **result.group_share)
    assert abs(result.group_share["T1"] - IDEAL["T1"]) < 0.04
    assert abs(result.group_share["T2-21"] - IDEAL["T2-21"]) < 0.04
    assert abs(result.group_share["T_short"] - IDEAL["T_short"]) < 0.04
