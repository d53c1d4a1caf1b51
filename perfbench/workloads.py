"""Workload definitions of the benchmark.

Every workload is a pure function of the seed: the same seed builds the same
configurations, so two commits simulate exactly the same inputs.  The three
single-run workloads each describe one :class:`repro.config.SimulationConfig`;
``fig5_sweep`` describes a :class:`repro.experiments.orchestrator.SweepSpec`.

Cycle counts and the sweep grid are sized so that one repetition takes a few
host seconds on a 2-core container; the network, traffic, routing and load of
each workload are the ones its ``why`` names.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import SimulationConfig
from repro.core.arrangement import VcArrangement
from repro.experiments.figures import oblivious_series
from repro.experiments.orchestrator import SweepSpec
from repro.experiments.runner import LARGE, TINY, ExperimentScale, base_config

#: the seed whose outputs are stored in ``references.json``.
DEFAULT_SEED = 7

#: h=3 Dragonfly (38 groups, 114 routers, 342 nodes) for the mid-size runs.
H3 = ExperimentScale(
    name="bench-h3", h=3, warmup_cycles=300, measure_cycles=700, seeds=1,
    loads=(0.4, 0.9),
)

#: Fig. 5 sweep grid: UN + ADV series x these loads x FIG5_SEEDS seeds.
FIG5_LOADS = (0.3, 0.7, 1.0)
FIG5_SEEDS = 2
FIG5_WORKERS = 2
#: shortened tiny-scale cycle counts of every sweep job.
FIG5_WARMUP = 100
FIG5_MEASURE = 200


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: builds the single-run configuration for a seed (single-run workloads).
    config: Optional[Callable[[int], SimulationConfig]] = None
    #: builds the sweep specification for a seed (sweep workloads).
    sweep: Optional[Callable[[int], SweepSpec]] = None
    #: fresh processes per untraced run that only time the cold construction
    #: (setup_s is the median over them and the repetitions' own builds).
    setup_reps: int = 5

    @property
    def is_sweep(self) -> bool:
        return self.sweep is not None


def _un_saturated(seed: int) -> SimulationConfig:
    config = base_config(
        H3, pattern="uniform", algorithm="min", vc_policy="flexvc",
        arrangement=VcArrangement.single_class(4, 2), seed=seed,
    )
    return config.with_load(0.9)


def _adv_pb_reqrep(seed: int) -> SimulationConfig:
    # Fig. 8 "PB FlexVC - per VC": request-reply (4,2)/(2,1), per-VC sensing.
    config = base_config(
        H3, pattern="adversarial", algorithm="pb", vc_policy="flexvc",
        arrangement=VcArrangement.request_reply((4, 2), (2, 1)),
        reactive=True, pb_sensing="vc", seed=seed,
    )
    return config.with_load(0.4)


def _large_un_low(seed: int) -> SimulationConfig:
    config = base_config(LARGE, pattern="uniform", algorithm="min", seed=seed)
    # Both phases outlast a round trip over a global link (2 x 100 cycles),
    # so packets that cross groups are delivered inside the measured window.
    return replace(config, warmup_cycles=200, measure_cycles=300).with_load(0.2)


def fig5_series(seed: int) -> List[Tuple[str, Callable[[], SimulationConfig]]]:
    """The Fig. 5 tiny series (UN and ADV), shortened and re-seeded."""
    series = []
    for prefix, pattern in (("UN", "uniform"), ("ADV", "adversarial")):
        for entry in oblivious_series(TINY, pattern):
            def build(builder=entry.builder) -> SimulationConfig:
                return replace(
                    builder(), warmup_cycles=FIG5_WARMUP,
                    measure_cycles=FIG5_MEASURE, seed=seed,
                )
            series.append((f"{prefix} {entry.label}", build))
    return series


def _fig5_sweep(seed: int) -> SweepSpec:
    return SweepSpec(
        series=fig5_series(seed), loads=FIG5_LOADS, seeds=FIG5_SEEDS,
        name="perfbench-fig5",
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "un_saturated",
            "h=3 Dragonfly, UN, MIN, FlexVC 4/2 at offered 0.9: congested, "
            "allocator/grant/credit path dominates, routing plans are memo hits",
            config=_un_saturated,
        ),
        Workload(
            "adv_pb_reqrep",
            "h=3 Dragonfly, ADV request-reply, Piggyback per-VC FlexVC at 0.4: "
            "routing decisions, saturation boards and credit sensing dominate",
            config=_adv_pb_reqrep,
        ),
        Workload(
            "large_un_low",
            "h=6 Dragonfly (876 routers), UN, MIN, baseline at 0.2: "
            "construction and cold memos dominate",
            config=_large_un_low,
            setup_reps=2,
        ),
        Workload(
            "fig5_sweep",
            "Fig. 5 tiny sweep, 54 jobs on 2 workers into a fresh journal store, "
            "then a resume pass: dispatch, artifact cache, pool, store",
            sweep=_fig5_sweep,
        ),
    )
}
