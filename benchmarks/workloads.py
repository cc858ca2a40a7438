"""Seeded command lists for the hvlab benchmark.

A workload seed produces argv lists for ``hvlab.cli.main`` and, for each
command, the manifest the correctness gate checks: the experiment names
of the report rows in output order, the output format and any note the
command prints instead of rows.  Nothing else depends on the seed.

Generated values are passed as ``--flag=value``, because argparse reads
``--beta -0.3,...`` as a new option.  Probabilities are written with
``repr`` so that they still sum to 1 within the CLI's 1e-6 check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Monte Carlo sample count of every command (the CLI's documented default).
SAMPLES = 1_000_000

#: Simplex grid step of the ks-scan workload, and of the scan in battery
#: (the CLI's default).
SCAN_STEP = 0.002
BATTERY_SCAN_STEP = 0.01

#: The offset spectrum whose second-moment and variance rows fail at the
#: parent code (absolute 1e-9 oracle bound below one ulp of 1.5e8).
OFFSET_LAMBDAS = "12345.678,12346.678,12344.678"
OFFSET_PROBS = "0.2,0.5,0.3"


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the output it must produce."""

    argv: tuple[str, ...]
    #: Experiment names of the report rows, run-length encoded, in output order.
    rows: tuple[tuple[str, int], ...]
    fmt: str = "table"
    #: Prefix of the line printed in place of rows, if any.
    note: str | None = None

    @property
    def row_count(self) -> int:
        return sum(count for _, count in self.rows)


def _rows(*names: str) -> tuple[tuple[str, int], ...]:
    return tuple((name, 1) for name in names)


SGN_ROWS = (("sgn-mean", 21), ("sgn-product-mean", 4))
SPIN_ONE_ROWS = _rows("spin-one-mean", "spin-one-second-moment", "spin-one-variance")
SPIN_HALF_ROWS = _rows("spin-half-mean", "spin-half-second-moment", "spin-half-variance")
SPIN_HALF_ORIGINAL_ROWS = _rows("spin-half-original-mean", "spin-half-original-variance")
KS_ROWS = _rows("ks-average", "ks-second-moment", "ks-dispersion")
ORACLE_CHECK_ROWS = (
    ("basis-orthogonality", 2),
    ("basis-traceless", 3),
    *_rows(
        "structure-f",
        "structure-f",
        "structure-d",
        "structure-f",
        "basis-combination",
        "squares-identity",
        "squares-identity",
        "simultaneous-eigenbasis",
        "eigen-reconstruction",
        "born-vs-trace",
        "direction-spectrum",
    ),
)
VERIFY_ALL_ROWS = (
    *ORACLE_CHECK_ROWS,
    ("sgn-mean", 6),
    *_rows(
        "spin-half-mean",
        "spin-half-variance",
        "spin-half-original-mean",
        "homogeneity-recombined",
        "spin-one-mean",
        "spin-one-second-moment",
        "spin-one-operator-mean",
        "spin-one-operator-variance",
        "ks-average",
    ),
    ("ks-second-moment", 3),
    *_rows("ks-epsilon-mean", "ks-epsilon-variance"),
)
HOMOGENEITY_ROWS = _rows(
    "homogeneity-mean-plus", "homogeneity-mean-minus", "homogeneity-whole", "homogeneity-recombined"
)
KS_EPSILON_SWEEP_ROWS = (
    *_rows("ks-epsilon-mean", "ks-epsilon-second-moment", "ks-epsilon-variance"),
    ("ks-epsilon-sweep", 13),
    *_rows("ks-epsilon-slope"),
)


def _scan_rows(step: float) -> tuple[tuple[str, int], ...]:
    count = int(round(1.0 / step))
    grid = (count + 1) * (count + 2) // 2 + 1  # the simplex grid plus its centroid
    return (("ks-scan", grid), *_rows("ks-scan-min", "ks-scan-max"))


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**31))


def _probs(rng: random.Random) -> str:
    """Three probabilities from a Dirichlet(2, 2, 2), each at least 0.05."""
    while True:
        draws = [rng.gammavariate(2.0, 1.0) for _ in range(3)]
        total = sum(draws)
        p1, p2 = draws[0] / total, draws[1] / total
        p3 = 1.0 - p1 - p2
        if min(p1, p2, p3) >= 0.05:
            return f"{p1!r},{p2!r},{p3!r}"


def _reals(rng: random.Random, count: int) -> str:
    return ",".join(repr(rng.gauss(0.0, 1.0)) for _ in range(count))


def _amplitudes(rng: random.Random, count: int) -> str:
    return ",".join(repr(complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))) for _ in range(count))


def _bloch(rng: random.Random) -> str:
    """A Bloch vector of length between 0.1 and 0.9."""
    vec = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = sum(v * v for v in vec) ** 0.5
    radius = rng.uniform(0.1, 0.9)
    return ",".join(repr(v / norm * radius) for v in vec)


def _argv(rng: random.Random, samples: int, command: str, *flags: str) -> tuple[str, ...]:
    return (command, *flags, f"--seed={_seed(rng)}", f"--samples={samples}")


def sign_sweep(rng: random.Random, samples: int) -> list[Command]:
    return [Command(_argv(rng, samples, "sgn-averages", f"--n={n}"), SGN_ROWS) for n in (0, 3)]


def mc_models(rng: random.Random, samples: int) -> list[Command]:
    def spin_one(*flags: str, rows=SPIN_ONE_ROWS, note=None) -> Command:
        return Command(_argv(rng, samples, "spin-one", *flags), rows, note=note)

    commands = [spin_one(f"--case={case}", "--lambdas=0,1,-1", f"--probs={_probs(rng)}") for case in ("III", "IV", "V", "VI")]
    commands += [
        spin_one("--case=III", "--swap", "--lambdas=0,1,-1", f"--probs={_probs(rng)}"),
        spin_one("--case=II", "--lambdas=0,1,-1", "--probs=0.6,0.3,0.1"),
        spin_one("--case=I", "--lambdas=0,1,-1", "--probs=0.25,0.5,0.25", rows=(), note="infeasible:"),
        spin_one("--case=III", f"--lambdas={OFFSET_LAMBDAS}", f"--probs={OFFSET_PROBS}"),
        spin_one("--basis=gell-mann", f"--beta={_reals(rng, 8)}", f"--state={_amplitudes(rng, 3)}"),
        spin_one("--basis=angular-momentum", f"--beta={_reals(rng, 3)}", f"--state={_amplitudes(rng, 3)}"),
        Command(
            _argv(rng, samples, "spin-half", f"--beta={_reals(rng, 3)}", f"--state={_amplitudes(rng, 2)}"),
            SPIN_HALF_ROWS,
        ),
        Command(_argv(rng, samples, "spin-half", f"--beta={_reals(rng, 3)}", "--original"), SPIN_HALF_ORIGINAL_ROWS),
        Command(_argv(rng, samples, "ks-dispersion", f"--probs={_probs(rng)}"), KS_ROWS),
    ]
    return commands


def ks_scan(rng: random.Random, samples: int) -> list[Command]:
    return [
        Command(
            _argv(rng, samples, "ks-dispersion", "--scan", f"--grid-step={SCAN_STEP}", f"--format={fmt}"),
            _scan_rows(SCAN_STEP),
            fmt=fmt,
        )
        for fmt in ("csv", "json")
    ]


def battery(rng: random.Random, samples: int) -> list[Command]:
    # The documented CSV scan keeps the ks.scan layer and the many-row
    # emit path in a workload whose commands are all short.
    return [
        Command(_argv(rng, samples, "verify-all"), VERIFY_ALL_ROWS),
        Command(_argv(rng, samples, "oracle-check"), ORACLE_CHECK_ROWS),
        Command(
            _argv(rng, samples, "homogeneity", "--alpha=1.5", f"--beta={_reals(rng, 3)}", f"--epsilon={_bloch(rng)}"),
            HOMOGENEITY_ROWS,
        ),
        Command(_argv(rng, samples, "ks-epsilon", "--eps=0.05", f"--probs={_probs(rng)}", "--sweep"), KS_EPSILON_SWEEP_ROWS),
        Command(
            _argv(rng, samples, "ks-dispersion", "--scan", f"--grid-step={BATTERY_SCAN_STEP}", "--format=csv"),
            _scan_rows(BATTERY_SCAN_STEP),
            fmt="csv",
        ),
    ]


WORKLOADS = {
    "sign-sweep": sign_sweep,
    "mc-models": mc_models,
    "ks-scan": ks_scan,
    "battery": battery,
}


def generate(workload: str, seed: int, samples: int = SAMPLES) -> list[Command]:
    """The command list of ``workload`` for ``seed``; equal seeds give equal lists."""
    return WORKLOADS[workload](random.Random(seed), samples)
