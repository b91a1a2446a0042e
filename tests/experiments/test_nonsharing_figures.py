"""Figs. 4–7 (non-sharing dispatch) as a tier-1 gate.

Each algorithm's ``run_figure`` summary is pinned by a CRC over its
fields with every float as ``float.hex``, at the benchmarks' own scales
and seed 2017: Fig. 4 New York at 0.02, Fig. 5 Boston at 0.05, Fig. 6's
Boston fleet sweep at 0.04 over 7–11 am, Fig. 7 Boston at 0.04.  The
pins hold NSTD-P/T, Greedy, MCBM and MMCM to bit-identical figures.
The EXPERIMENTS.md orderings the figures reproduce are asserted at the
same scales:

* NSTD's taxi dissatisfaction is below MCBM's, MMCM's and Greedy's in
  Figs. 4 and 5, and at every fleet size of Fig. 6(c);
* Fig. 6(a)'s dispatch delay falls as the fleet grows, for every
  algorithm (one documented exception, :data:`FIG6_DELAY_RISES`);
* NSTD-P and NSTD-T give the same summaries under the homogeneous α of
  the city runs (DESIGN §4a).
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentScale, run_figure
from repro.experiments.figures import FIG6_TAXI_COUNTS
from tests.experiments.test_sharing_figures import summary_crc

#: figure -> (scale factor, hour window, {summary key: CRC32 of its summary}).
PINS = {
    "fig4": (
        0.02,
        None,
        {
            "NSTD-P": "0453d7d8",
            "NSTD-T": "0453d7d8",
            "Greedy": "f1dfcfa2",
            "MCBM": "9aec8218",
            "MMCM": "b7ed4f9c",
        },
    ),
    "fig5": (
        0.05,
        None,
        {
            "NSTD-P": "4fd86030",
            "NSTD-T": "4fd86030",
            "Greedy": "5bcfe7dc",
            "MCBM": "4674ee60",
            "MMCM": "dcb22036",
        },
    ),
    "fig6": (
        0.04,
        (7.0, 11.0),
        {
            "NSTD-P@100": "1a0b6bcc",
            "NSTD-T@100": "1a0b6bcc",
            "Greedy@100": "f3e56b5f",
            "MCBM@100": "0d6e2e4a",
            "MMCM@100": "642a0496",
            "NSTD-P@150": "80973d4a",
            "NSTD-T@150": "80973d4a",
            "Greedy@150": "80a2b9b3",
            "MCBM@150": "60cd902c",
            "MMCM@150": "b16ae50f",
            "NSTD-P@200": "04d8ebb1",
            "NSTD-T@200": "04d8ebb1",
            "Greedy@200": "55c09da9",
            "MCBM@200": "4e1f3960",
            "MMCM@200": "2abed480",
            "NSTD-P@250": "4a442a95",
            "NSTD-T@250": "4a442a95",
            "Greedy@250": "cb53589d",
            "MCBM@250": "4964ac74",
            "MMCM@250": "a3fa240d",
            "NSTD-P@300": "a53a3505",
            "NSTD-T@300": "a53a3505",
            "Greedy@300": "c1739f59",
            "MCBM@300": "b91a4455",
            "MMCM@300": "2a94d666",
        },
    ),
    "fig7": (
        0.04,
        None,
        {
            "NSTD-P": "0eea2d1a",
            "NSTD-T": "0eea2d1a",
            "Greedy": "8bbd126f",
            "MCBM": "9f7ec2ab",
            "MMCM": "236a50ba",
        },
    ),
}

NSTD = ("NSTD-P", "NSTD-T")
BASELINES = ("Greedy", "MCBM", "MMCM")

#: Fig. 6(a) steps (algorithm, smaller fleet) where the delay rises with
#: the fleet.  EXPERIMENTS.md reports the sweep's endpoints (NSTD 20.0
#: → 10.4 min); between them NSTD's delay goes from 20.0 min at 100 taxis
#: up to 21.2 at 150 before falling.
FIG6_DELAY_RISES = {("NSTD-P", 100), ("NSTD-T", 100)}


@pytest.fixture(scope="module")
def figures():
    return {
        figure_id: run_figure(figure_id, ExperimentScale(factor=factor, seed=2017, hours=hours))
        for figure_id, (factor, hours, _) in PINS.items()
    }


@pytest.mark.parametrize("figure_id", sorted(PINS))
def test_summaries_match_their_pins(figures, figure_id):
    summaries = figures[figure_id].summaries
    assert {name: summary_crc(s) for name, s in summaries.items()} == PINS[figure_id][2]


@pytest.mark.parametrize("figure_id", sorted(PINS))
def test_nstd_p_and_t_agree_under_homogeneous_alpha(figures, figure_id):
    summaries = figures[figure_id].summaries
    for key, summary in summaries.items():
        if key.startswith("NSTD-P"):
            assert summary == summaries[key.replace("NSTD-P", "NSTD-T")], key


@pytest.mark.parametrize("figure_id", ["fig4", "fig5", "fig6"])
def test_nstd_has_the_lowest_taxi_dissatisfaction(figures, figure_id):
    result = figures[figure_id]
    if figure_id == "fig6":
        td = result.series["mean_taxi_dissatisfaction"]
    else:
        td = {name: [s["mean_taxi_dissatisfaction"]] for name, s in result.summaries.items()}
    for index in range(len(td["NSTD-P"])):
        stable = max(td[name][index] for name in NSTD)
        for baseline in BASELINES:
            assert stable < td[baseline][index], (figure_id, baseline, index)


def test_fig6_delay_falls_as_the_fleet_grows(figures):
    for name, delays in figures["fig6"].series["mean_dispatch_delay_min"].items():
        assert delays[-1] < delays[0], name
        for count, before, after in zip(FIG6_TAXI_COUNTS, delays, delays[1:]):
            rises = (name, count) in FIG6_DELAY_RISES
            assert (after > before) == rises, (name, count, before, after)
