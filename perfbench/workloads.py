"""The benchmark's workloads: which scenario, which backend, which cache.

Every workload drives a registry scenario through the public engine
API. The benchmark passes ``--seed`` to ``get_scenario(..., seed=)``;
the program only ever sees the generated inputs. ``reference`` names the
group in ``references.json`` whose stored summary a run must reproduce:
serial, sharded, scalar and vector runs are byte-identical by the
engine's contract, so both fig6 workloads share one group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Map-cache policies. ``cold``: every process gets its own empty cache
#: directory, so set-up pays full map training. ``warm``: one untimed
#: step fills a per-run cache first, and every timed process must then
#: show zero trainings. ``none``: baseline policies train no maps.
COLD, WARM, NONE = "cold", "warm", "none"


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    cache: str
    reference: str
    samples: "int | None" = None
    overrides: dict = field(default_factory=dict)
    #: Least episodes a timed run steps, whatever ``--seconds`` says.
    min_episodes: int = 1
    #: Fresh interpreters timed per run for ``setup_s`` (one of them
    #: also runs the measured episodes).
    setups: int = 5

    def spec(self, seed: int, cache_dir: "str | None" = None):
        """The scenario spec for ``seed`` (imports the program lazily)."""
        from repro.scenario import get_scenario

        spec = get_scenario(self.scenario, samples=self.samples, seed=seed)
        overrides = dict(self.overrides)
        if cache_dir is not None:
            overrides["control.map_cache"] = cache_dir
        return spec.with_overrides(**overrides) if overrides else spec


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig6-cold",
            scenario="paper/fig6-cluster16",
            cache=COLD,
            reference="fig6",
            overrides={"control.execution": "serial", "control.kernel": "scalar"},
            # Each set-up trains every map for about 8 s.
            setups=3,
        ),
        Workload(
            name="module-m10",
            scenario="paper/overhead-m10",
            cache=WARM,
            reference="module-m10",
            overrides={"control.kernel": "scalar"},
        ),
        Workload(
            name="baseline-cluster",
            scenario="cluster-baseline-showdown",
            cache=NONE,
            reference="baseline-cluster",
            samples=6000,
            overrides={"control.kernel": "vector"},
            # Sub-millisecond boundary steps: their p95 moves by 15 % from
            # one 5 s episode to the next, so a run pools four.
            min_episodes=4,
        ),
        Workload(
            name="fig6-sharded",
            scenario="paper/fig6-cluster16",
            cache=WARM,
            reference="fig6",
            overrides={
                "control.execution": "sharded",
                # One worker: with two, the parent and both workers share
                # the two cores of the reference host, and where the
                # scheduler puts them moved periods/s by 25 % between
                # repeats of one seed.
                "control.shard_workers": 1,
                "control.pipeline": "boundary",
            },
            # Each set-up spawns the pool; keep the run inside its budget.
            setups=3,
        ),
    )
}
