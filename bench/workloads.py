"""The benchmark's workloads: fixed lists of shadowkit CLI invocations.

Each workload stresses a different set of layers (see README.md for the
prediction table).  The run's ``--seed`` becomes every invocation's ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the system override that exercises the known ``compose(diag, shift_diag)``
#: defect: today shadow, shadow-periodic, chain-demo and robustness exit 3
#: on it, while verify-cl passes
CONJUGATED = 'system={"name":"conjugated:weighted_shift_linear"}'


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``shadowkit EXPERIMENT --seed S --out DIR --override ...``."""

    label: str
    experiment: str
    overrides: tuple = ()

    def argv(self, seed, out):
        argv = [self.experiment, "--seed", str(seed), "--out", out]
        for text in self.overrides:
            argv += ["--override", text]
        return argv


@dataclass(frozen=True)
class Workload:
    """Timed invocations, plus untimed probes that only count pass/fail."""

    invocations: tuple
    probes: tuple = ()


WORKLOADS = {
    # one large job: the graph-transform fixed point and the semiconj sweeps
    # over structured weighted shifts; the sweep pool stays idle
    "conjugacy": Workload((
        Invocation("semiconj", "semiconj"),
    )),
    # many independent cells through the sweep pool: bounded-solution
    # solvers and shadowing, no graph transform, no verifiers
    "sweep": Workload((
        Invocation("shadow", "shadow",
                   ("N=256", "horizon=200", "d_sweep=[1e-3,1e-4,1e-5]",
                    "runs=8")),
        Invocation("shadow-periodic", "shadow-periodic",
                   ("N=128", "periods=[1,5,12,40]", "runs=6")),
        Invocation("chain-demo", "chain-demo",
                   ("N=128", "runs=6", "horizon=24")),
        Invocation("solver-oracle", "solver-oracle", ("runs=200",)),
    ), probes=(
        Invocation("probe:shadow-conjugated", "shadow", (CONJUGATED,)),
    )),
    # the splitting verifiers, the product map, and the graph transform on
    # dense perturbations with dense 2-norms
    "certify": Workload((
        Invocation("verify-cl:weighted_shift_linear", "verify-cl", ("N=128",)),
        Invocation("verify-cl:ms_product", "verify-cl",
                   ('system={"name":"ms_product"}',)),
        Invocation("verify-cl:conjugated", "verify-cl", (CONJUGATED,)),
        Invocation("verify-ed", "verify-ed"),
        Invocation("robustness", "robustness", ("N=48", "runs=2")),
    )),
}
