"""Command-line front end: run each experiment, sweep parameters, and
emit machine-readable reports.

Every subcommand produces a stream of report rows (analytic value,
Monte Carlo estimate with standard error, and an exact reference value
where one applies) in text-table, CSV or JSON form.  Output is
deterministic for a fixed seed.  Exit status is 0 when every row
passes, 1 on verification failures, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import ks, spin_half, spin_one
from .distributions import (
    PowerLawDistribution,
    SignFunctionSpec,
    mc_mean,
    mc_mean_pair,
    sign_mean_analytic,
    sign_mean_quadrature,
    sign_product_mean_analytic,
    sign_product_mean_quadrature,
)
from .oracle import (
    ANGULAR_MOMENTUM,
    BASIS_KINDS,
    GELL_MANN,
    PAULI,
    QuantumState,
    bloch_vector,
    born_distribution,
    build_basis,
    expectation,
    linear_observable,
    random_pure_state,
    simultaneous_eigenbasis,
    spectral_decompose,
    variance,
    verify_ks_identity,
)

ORACLE_TOL = 1e-9

_CSV_COLUMNS = ("experiment", "params", "analytic", "mc", "stderr", "oracle", "pass")


class CliError(Exception):
    """A usage-level problem with the provided arguments."""


@dataclass
class RunConfig:
    command: str
    seed: int
    samples: int
    n: int
    output_format: str
    grid_step: float
    tolerance_sigma: float

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise CliError("--samples must be at least 1")
        if not 0.0 < self.grid_step <= 0.5:
            raise CliError("--grid-step must lie in (0, 0.5]")
        if not self.tolerance_sigma > 0.0:
            raise CliError("--tolerance-sigma must be positive")
        if self.n < 0:
            raise CliError("--n must be nonnegative")


@dataclass
class ReportRow:
    experiment: str
    params: str
    analytic: float
    mc: float | None = None
    stderr: float | None = None
    oracle: float | None = None

    def passed(self, tolerance_sigma: float) -> bool:
        ok = True
        if self.oracle is not None:
            ok = ok and abs(self.analytic - self.oracle) < ORACLE_TOL
        if self.mc is not None:
            # the roundoff floor covers deterministic estimates (stderr 0)
            band = tolerance_sigma * (self.stderr or 0.0) + 1e-12 * max(1.0, abs(self.analytic))
            ok = ok and abs(self.mc - self.analytic) <= band
        return ok


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def emit_rows(rows: list[ReportRow], cfg: RunConfig, stream=None) -> None:
    stream = stream if stream is not None else sys.stdout
    tol = cfg.tolerance_sigma
    if cfg.output_format == "json":
        payload = [
            {
                "experiment": row.experiment,
                "params": row.params,
                "analytic": row.analytic,
                "mc": row.mc,
                "stderr": row.stderr,
                "oracle": row.oracle,
                "pass": row.passed(tol),
            }
            for row in rows
        ]
        stream.write(json.dumps(payload, indent=2) + "\n")
    elif cfg.output_format == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row.experiment,
                    row.params,
                    _fmt(row.analytic),
                    _fmt(row.mc),
                    _fmt(row.stderr),
                    _fmt(row.oracle),
                    "true" if row.passed(tol) else "false",
                ]
            )
    else:
        cells = [_CSV_COLUMNS] + [
            (
                row.experiment,
                row.params,
                f"{row.analytic:.10g}",
                "" if row.mc is None else f"{row.mc:.10g}",
                "" if row.stderr is None else f"{row.stderr:.3g}",
                "" if row.oracle is None else f"{row.oracle:.10g}",
                "pass" if row.passed(tol) else "FAIL",
            )
            for row in rows
        ]
        widths = [max(len(line[k]) for line in cells) for k in range(len(_CSV_COLUMNS))]
        for line in cells:
            stream.write("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n")


def _parse_floats(text: str, count: int | None = None, flag: str = "") -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise CliError(f"could not parse {flag or 'list'}: {exc}") from None
    if count is not None and len(vals) != count:
        raise CliError(f"{flag or 'list'} needs {count} comma-separated values")
    if not np.all(np.isfinite(vals)):
        raise CliError(f"{flag or 'list'} values must be finite")
    return vals


def _parse_probs(text: str, flag: str = "--probs") -> tuple[float, float, float]:
    vals = _parse_floats(text, 3, flag)
    total = sum(vals)
    if abs(total - 1.0) > 1e-6:
        raise CliError(f"{flag} must sum to 1 (got {total})")
    return tuple(v / total for v in vals)


def _parse_state(text: str) -> QuantumState:
    try:
        amps = np.array([complex(tok) for tok in text.split(",")], dtype=complex)
    except ValueError as exc:
        raise CliError(f"could not parse --state: {exc}") from None
    if amps.shape[0] not in (2, 3):
        raise CliError("--state needs 2 or 3 comma-separated amplitudes")
    if not np.all(np.isfinite(amps)):
        raise CliError("--state amplitudes must be finite")
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise CliError("--state must be a nonzero vector")
    return QuantumState.from_pure(amps / norm)


def _row_seed(cfg: RunConfig, index: int) -> int:
    return cfg.seed + 104_729 * (index + 1)


# ---------------------------------------------------------------------------
# subcommands


def run_oracle_check(cfg: RunConfig, args) -> tuple[list[ReportRow], str | None]:
    rng = np.random.default_rng(cfg.seed)
    rows: list[ReportRow] = []
    bases = {kind: build_basis(kind) for kind in BASIS_KINDS}

    for kind in (PAULI, GELL_MANN):
        basis = bases[kind]
        gram = np.einsum("aij,bji->ab", basis.operators, basis.operators).real
        dev = float(np.max(np.abs(gram - 2.0 * np.eye(basis.size))))
        rows.append(ReportRow("basis-orthogonality", f"kind={kind}", dev, oracle=0.0))
    for kind in BASIS_KINDS:
        basis = bases[kind]
        dev = float(np.max(np.abs(np.trace(basis.operators, axis1=1, axis2=2))))
        rows.append(ReportRow("basis-traceless", f"kind={kind}", dev, oracle=0.0))

    gm = bases[GELL_MANN]
    rows.append(ReportRow("structure-f", "kind=gell-mann;i=1;j=2;k=3", float(gm.f[0, 1, 2]), oracle=1.0))
    rows.append(
        ReportRow("structure-f", "kind=gell-mann;i=4;j=5;k=8", float(gm.f[3, 4, 7]), oracle=float(np.sqrt(3) / 2))
    )
    rows.append(
        ReportRow("structure-d", "kind=gell-mann;i=1;j=1;k=8", float(gm.d[0, 0, 7]), oracle=float(1 / np.sqrt(3)))
    )
    levi = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        levi[i, j, k] = 1.0
        levi[j, i, k] = -1.0
    rows.append(
        ReportRow("structure-f", "kind=pauli;test=levi-civita", float(np.max(np.abs(bases[PAULI].f - levi))), oracle=0.0)
    )

    ang = bases[ANGULAR_MOMENTUM]
    s2, s3 = np.sqrt(2.0), np.sqrt(3.0)
    combos = np.stack(
        [
            (gm.operators[0] + gm.operators[5]) / s2,
            (gm.operators[1] + gm.operators[6]) / s2,
            (s3 * gm.operators[7] + gm.operators[2]) / 2.0,
            (gm.operators[0] - gm.operators[5]) / s2,
            (gm.operators[1] - gm.operators[6]) / s2,
            (s3 * gm.operators[7] - gm.operators[2]) / 2.0,
            gm.operators[3],
            gm.operators[4],
        ]
    )
    rows.append(
        ReportRow("basis-combination", "angular-from-gell-mann", float(np.max(np.abs(combos - ang.operators))), oracle=0.0)
    )

    rows.append(
        ReportRow("squares-identity", "kind=angular-momentum", verify_ks_identity(ang).residual, oracle=0.0)
    )
    rows.append(
        ReportRow("squares-identity", "kind=gell-mann", verify_ks_identity(gm).residual, oracle=float(np.sqrt(6.0)))
    )

    worst = 0.0
    for row in simultaneous_eigenbasis():
        for op, val in zip(ang.operators[:3], row.squares):
            sq = op @ op
            worst = max(worst, float(np.max(np.abs(sq @ row.vector - val * row.vector))))
    rows.append(ReportRow("simultaneous-eigenbasis", "rows=3", worst, oracle=0.0))

    recon = 0.0
    for dim in (2, 3):
        basis = bases[PAULI] if dim == 2 else bases[GELL_MANN]
        for _ in range(20):
            h = linear_observable(rng.normal(size=basis.size), basis)
            vals, vecs = spectral_decompose(h)
            rebuilt = (vecs * vals) @ vecs.conj().T
            recon = max(recon, float(np.max(np.abs(rebuilt - h))))
    rows.append(ReportRow("eigen-reconstruction", "trials=40", recon, oracle=0.0))

    born_dev = 0.0
    for _ in range(20):
        h = linear_observable(rng.normal(size=8), gm)
        state = random_pure_state(3, rng)
        dist = born_distribution(h, state)
        born_dev = max(born_dev, abs(dist.mean - expectation(h, state)))
    rows.append(ReportRow("born-vs-trace", "trials=20", born_dev, oracle=0.0))

    spec_dev = 0.0
    for _ in range(200):
        beta = rng.normal(size=3)
        mag = float(np.linalg.norm(beta))
        vals, _ = spectral_decompose(linear_observable(beta, ang))
        spec_dev = max(spec_dev, float(np.max(np.abs(vals - np.array([mag, 0.0, -mag])))))
    rows.append(ReportRow("direction-spectrum", "trials=200", spec_dev, oracle=0.0))
    return rows, None


def run_sgn_averages(cfg: RunConfig, args) -> tuple[list[ReportRow], str | None]:
    rows: list[ReportRow] = []
    dist = PowerLawDistribution(cfg.n)
    grid = [round(-1.0 + 0.1 * k, 10) for k in range(21)]
    for idx, xi in enumerate(grid):
        spec = SignFunctionSpec(xi, n=cfg.n)
        est = mc_mean(spec.evaluate, dist, cfg.samples, _row_seed(cfg, idx))
        rows.append(
            ReportRow(
                "sgn-mean",
                f"n={cfg.n};xi={xi}",
                sign_mean_analytic(spec),
                mc=est.mean,
                stderr=est.stderr,
                oracle=sign_mean_quadrature(spec),
            )
        )
    pairs = ((0.8, 0.3), (0.8, -0.3), (0.5, 0.5), (-0.6, -0.9))
    for idx, (b1, b2) in enumerate(pairs):
        s1 = SignFunctionSpec(b1, n=cfg.n, include_sign_prefactor=True)
        s2 = SignFunctionSpec(b2, n=cfg.n, include_sign_prefactor=True)
        est = mc_mean(lambda xs: s1.evaluate(xs) * s2.evaluate(xs), dist, cfg.samples, _row_seed(cfg, 100 + idx))
        rows.append(
            ReportRow(
                "sgn-product-mean",
                f"n={cfg.n};xi1={b1};xi2={b2}",
                sign_product_mean_analytic(s1, s2),
                mc=est.mean,
                stderr=est.stderr,
                oracle=sign_product_mean_quadrature(s1, s2),
            )
        )
    return rows, None


def _spin_half_inputs(cfg: RunConfig, args) -> tuple[np.ndarray, QuantumState, np.ndarray]:
    direction = np.array(_parse_floats(args.beta, 3, "--beta"))
    pauli = build_basis(PAULI)
    if args.state is not None:
        state = _parse_state(args.state)
        if state.dim != 2:
            raise CliError("--state must be 2-dimensional here")
    elif args.epsilon is not None:
        bloch = np.array(_parse_floats(args.epsilon, 3, "--epsilon"))
        if np.linalg.norm(bloch) > 1.0 + 1e-10:
            raise CliError("--epsilon must have length at most 1")
        rho = 0.5 * (np.eye(2, dtype=complex) + np.einsum("k,kij->ij", bloch, pauli.operators))
        state = QuantumState.from_density(rho)
    else:
        state = QuantumState.from_pure([1.0, 0.0])
    return direction, state, bloch_vector(state, pauli)


def run_spin_half(cfg: RunConfig, args) -> tuple[list[ReportRow], str | None]:
    direction, state, bloch = _spin_half_inputs(cfg, args)
    pauli = build_basis(PAULI)
    matrix = linear_observable(direction, pauli)
    mag = float(np.linalg.norm(direction))
    flat = PowerLawDistribution(0)
    rows: list[ReportRow] = []
    if args.original:
        ground = QuantumState.from_pure([1.0, 0.0])
        mean = spin_half.bell_original_mean_analytic(direction)
        est = mc_mean(lambda xs: spin_half.bell_outcome_original(direction, xs), flat, cfg.samples, _row_seed(cfg, 0))
        rows.append(
            ReportRow("spin-half-original-mean", f"beta={args.beta}", mean, est.mean, est.stderr, expectation(matrix, ground))
        )
        rows.append(
            ReportRow(
                "spin-half-original-variance",
                f"beta={args.beta}",
                mag * mag - mean * mean,
                oracle=variance(matrix, ground),
            )
        )
        return rows, None
    stats = spin_half.hv_statistics(direction, bloch)
    est = mc_mean(lambda xs: spin_half.bell_outcome_modified(direction, bloch, xs), flat, cfg.samples, _row_seed(cfg, 1))
    params = f"beta={args.beta}"
    rows.append(ReportRow("spin-half-mean", params, stats.mean, est.mean, est.stderr, expectation(matrix, state)))
    second = expectation(matrix @ matrix, state)
    rows.append(ReportRow("spin-half-second-moment", params, mag * mag, est.second_moment, est.second_stderr, second))
    rows.append(ReportRow("spin-half-variance", params, stats.variance, oracle=variance(matrix, state)))
    return rows, None


def run_homogeneity(cfg: RunConfig, args) -> tuple[list[ReportRow], str | None]:
    direction, state, bloch = _spin_half_inputs(cfg, args)
    pauli = build_basis(PAULI)
    matrix = linear_observable(direction, pauli)
    offset = args.alpha
    if not np.isfinite(offset):
        raise CliError("--alpha must be finite")
    split = spin_half.homogeneity_split(offset, direction, bloch)
    rng = np.random.default_rng(cfg.seed & 0xFFFFFFFFFFFFFFFF)
    hidden = PowerLawDistribution(0).sample(cfg.samples, rng)
    outcomes = offset + spin_half.bell_outcome_modified(direction, bloch, hidden)
    upper = hidden >= split.split_point
    rows: list[ReportRow] = []
    params = f"alpha={offset};beta={args.beta}"
    for name, analytic, mask in (
        ("homogeneity-mean-plus", split.mean_plus, upper),
        ("homogeneity-mean-minus", split.mean_minus, ~upper),
    ):
        part = outcomes[mask]
        if part.size:
            mc = float(part.mean())
            err = float(part.std(ddof=1) / np.sqrt(part.size)) if part.size > 1 else 0.0
            rows.append(ReportRow(name, params, analytic, mc, err))
        else:
            rows.append(ReportRow(name, params, analytic))
    whole_mc = float(outcomes.mean())
    whole_err = float(outcomes.std(ddof=1) / np.sqrt(outcomes.size))
    rows.append(
        ReportRow(
            "homogeneity-whole",
            params,
            split.whole,
            whole_mc,
            whole_err,
            offset + expectation(matrix, state),
        )
    )
    recombined = split.weight_plus * split.mean_plus + split.weight_minus * split.mean_minus
    rows.append(ReportRow("homogeneity-recombined", params, recombined, oracle=split.whole))
    return rows, None


def run_spin_one(cfg: RunConfig, args) -> tuple[list[ReportRow], str | None]:
    case_id = args.case
    try:
        if args.lambdas is not None or args.probs is not None:
            if args.lambdas is None or args.probs is None:
                raise CliError("explicit mode needs both --lambdas and --probs")
            values = tuple(_parse_floats(args.lambdas, 3, "--lambdas"))
            probs = _parse_probs(args.probs)
            triple = spin_one.SpectralTriple(values, probs)
            formula = spin_one.build_formula(case_id, triple, n=cfg.n, swap=args.swap)
            oracle_mean = float(np.dot(values, probs))
            oracle_second = float(np.dot(np.square(values), probs))
            params = f"case={case_id};lambdas={args.lambdas};probs={args.probs}"
        else:
            if args.state is None:
                raise CliError("operator mode needs --beta and --state")
            basis = build_basis(args.basis)
            coeffs = np.array(_parse_floats(args.beta, None, "--beta"))
            state = _parse_state(args.state)
            formula = spin_one.beable_from_operator(coeffs, basis, state, case_id=case_id, n=cfg.n, swap=args.swap)
            matrix = linear_observable(coeffs, basis)
            oracle_mean = expectation(matrix, state)
            oracle_second = expectation(matrix @ matrix, state)
            params = f"case={case_id};basis={args.basis};beta={args.beta}"
    except spin_one.InfeasibleCaseError as exc:
        return [], f"infeasible: {exc.reason}"

    stats = spin_one.hv_statistics(formula)
    d1, d2 = formula.hidden_distributions
    est = mc_mean_pair(formula.evaluate, d1, d2, cfg.samples, _row_seed(cfg, 3))
    rows = [
        ReportRow("spin-one-mean", params, stats.mean, est.mean, est.stderr, oracle_mean),
        ReportRow("spin-one-second-moment", params, stats.second_moment, est.second_moment, est.second_stderr, oracle_second),
        ReportRow("spin-one-variance", params, stats.variance, oracle=oracle_second - oracle_mean**2),
    ]
    return rows, None


def run_ks_dispersion(cfg: RunConfig, args) -> tuple[list[ReportRow], str | None]:
    rows: list[ReportRow] = []
    if args.scan:
        table = ks.dispersion_scan(cfg.grid_step)
        for p1, p2, p3, value in table:
            rows.append(ReportRow("ks-scan", f"p1={p1:.6g};p2={p2:.6g};p3={p3:.6g}", float(value)))
        values = table[:, 3]
        rows.append(ReportRow("ks-scan-min", f"step={cfg.grid_step}", float(values.min()), oracle=0.0))
        rows.append(ReportRow("ks-scan-max", f"step={cfg.grid_step}", float(values.max()), oracle=2.0))
        return rows, None
    model = ks.KsModel(_parse_probs(args.probs))
    params = f"probs={args.probs}"
    shared = ks.SHARED_HIDDEN

    def total(xs):
        sx2, sy2, sz2 = ks.ks_square_outcomes(model, xs)
        return sx2 + sy2 + sz2

    est = mc_mean(total, shared, cfg.samples, _row_seed(cfg, 5))
    p1, p2, p3 = model.probabilities
    moment_route = 2.0 + 2.0 * (ks.ks_cross_term(p1, p2) + ks.ks_cross_term(p1, p3) + ks.ks_cross_term(p2, p3))
    rows.append(ReportRow("ks-average", params, ks.ks_average(model), est.mean, est.stderr, 2.0))
    rows.append(
        ReportRow("ks-second-moment", params, ks.ks_second_moment(model), est.second_moment, est.second_stderr, moment_route)
    )
    rows.append(ReportRow("ks-dispersion", params, ks.ks_dispersion(model), oracle=moment_route - 4.0))
    return rows, None


def run_ks_epsilon(cfg: RunConfig, args) -> tuple[list[ReportRow], str | None]:
    if not np.isfinite(args.eps):
        raise CliError("--eps must be finite")
    probs = _parse_probs(args.probs)
    model = ks.DeformedKsModel(args.eps, probs)
    stats = ks.deformed_statistics(model)
    outs = np.array(ks.deformed_outcomes(model))
    weights = np.array(model.probabilities)
    direct_mean = float(outs @ weights)
    direct_second = float(np.square(outs) @ weights)
    rng = np.random.default_rng(_row_seed(cfg, 7) & 0xFFFFFFFFFFFFFFFF)
    draws = rng.choice(outs, size=cfg.samples, p=weights)
    mc = float(draws.mean())
    err = float(draws.std(ddof=1) / np.sqrt(draws.size))
    params = f"eps={args.eps};probs={args.probs}"
    rows = [
        ReportRow("ks-epsilon-mean", params, stats.mean, mc, err, direct_mean),
        ReportRow("ks-epsilon-second-moment", params, stats.second_moment, oracle=direct_second),
        ReportRow("ks-epsilon-variance", params, stats.variance, oracle=direct_second - direct_mean**2),
    ]
    if args.sweep:
        eps_grid = np.logspace(-4, -1, 13)
        variances = []
        for eps in eps_grid:
            swept = ks.deformed_statistics(ks.DeformedKsModel(float(eps), probs))
            variances.append(swept.variance)
            rows.append(
                ReportRow(
                    "ks-epsilon-sweep",
                    f"eps={eps:.6g};probs={args.probs}",
                    swept.variance,
                    oracle=float(
                        np.square(np.array([2 + eps, 2.0, 2 - eps])) @ weights
                        - (np.array([2 + eps, 2.0, 2 - eps]) @ weights) ** 2
                    ),
                )
            )
        slope = float(np.polyfit(np.log(eps_grid), np.log(variances), 1)[0])
        rows.append(ReportRow("ks-epsilon-slope", f"probs={args.probs}", slope, oracle=2.0))
    return rows, None


def run_verify_all(cfg: RunConfig, args) -> tuple[list[ReportRow], str | None]:
    rows: list[ReportRow] = []
    rows += run_oracle_check(cfg, args)[0]

    for n in (0, 3):
        dist = PowerLawDistribution(n)
        for idx, xi in enumerate((-0.7, 0.0, 0.7)):
            spec = SignFunctionSpec(xi, n=n)
            est = mc_mean(spec.evaluate, dist, cfg.samples, _row_seed(cfg, 200 + 10 * n + idx))
            rows.append(
                ReportRow(
                    "sgn-mean",
                    f"n={n};xi={xi}",
                    sign_mean_analytic(spec),
                    est.mean,
                    est.stderr,
                    sign_mean_quadrature(spec),
                )
            )

    rng = np.random.default_rng(cfg.seed)
    pauli = build_basis(PAULI)
    state2 = random_pure_state(2, rng)
    bloch = bloch_vector(state2, pauli)
    direction = np.array([0.3, -0.4, 0.8])
    matrix = linear_observable(direction, pauli)
    stats = spin_half.hv_statistics(direction, bloch)
    est = mc_mean(
        lambda xs: spin_half.bell_outcome_modified(direction, bloch, xs),
        PowerLawDistribution(0),
        cfg.samples,
        _row_seed(cfg, 300),
    )
    rows.append(ReportRow("spin-half-mean", "beta=0.3,-0.4,0.8", stats.mean, est.mean, est.stderr, expectation(matrix, state2)))
    rows.append(ReportRow("spin-half-variance", "beta=0.3,-0.4,0.8", stats.variance, oracle=variance(matrix, state2)))
    rows.append(
        ReportRow(
            "spin-half-original-mean",
            "beta=0.3,-0.4,0.8",
            spin_half.bell_original_mean_analytic(direction),
            oracle=expectation(matrix, QuantumState.from_pure([1.0, 0.0])),
        )
    )

    split = spin_half.homogeneity_split(1.5, direction, bloch)
    rows.append(
        ReportRow(
            "homogeneity-recombined",
            "alpha=1.5;beta=0.3,-0.4,0.8",
            split.weight_plus * split.mean_plus + split.weight_minus * split.mean_minus,
            oracle=split.whole,
        )
    )

    triple = spin_one.SpectralTriple((0.0, 1.0, -1.0), (0.25, 0.5, 0.25), traceless=True)
    formula = spin_one.build_formula("III", triple)
    f_stats = spin_one.hv_statistics(formula)
    d1, d2 = formula.hidden_distributions
    est = mc_mean_pair(formula.evaluate, d1, d2, cfg.samples, _row_seed(cfg, 301))
    rows.append(
        ReportRow("spin-one-mean", "case=III;lambdas=0,1,-1;probs=0.25,0.5,0.25", f_stats.mean, est.mean, est.stderr, 0.25)
    )
    rows.append(
        ReportRow("spin-one-second-moment", "case=III;lambdas=0,1,-1;probs=0.25,0.5,0.25", f_stats.second_moment, oracle=0.75)
    )

    gm = build_basis(GELL_MANN)
    state3 = random_pure_state(3, rng)
    coeffs = rng.normal(size=8)
    op_formula = spin_one.beable_from_operator(coeffs, gm, state3, case_id="III")
    op_stats = spin_one.hv_statistics(op_formula)
    op_matrix = linear_observable(coeffs, gm)
    rows.append(ReportRow("spin-one-operator-mean", "basis=gell-mann", op_stats.mean, oracle=expectation(op_matrix, state3)))
    rows.append(
        ReportRow("spin-one-operator-variance", "basis=gell-mann", op_stats.variance, oracle=variance(op_matrix, state3))
    )

    ks_state_model = ks.ks_model_from_state(state3)
    rows.append(ReportRow("ks-average", "probs=from-state", ks.ks_average(ks_state_model), oracle=2.0))
    for probs in ((0.2, 0.5, 0.3), (0.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3)):
        model = ks.KsModel(probs)
        p1, p2, p3 = model.probabilities
        moment_route = 2.0 + 2.0 * (
            ks.ks_cross_term(p1, p2) + ks.ks_cross_term(p1, p3) + ks.ks_cross_term(p2, p3)
        )
        rows.append(
            ReportRow(
                "ks-second-moment",
                f"probs={probs[0]:.6g},{probs[1]:.6g},{probs[2]:.6g}",
                ks.ks_second_moment(model),
                oracle=moment_route,
            )
        )

    model = ks.DeformedKsModel(0.05, (0.25, 0.5, 0.25))
    stats_eps = ks.deformed_statistics(model)
    outs = np.array(ks.deformed_outcomes(model))
    weights = np.array(model.probabilities)
    rows.append(ReportRow("ks-epsilon-mean", "eps=0.05", stats_eps.mean, oracle=float(outs @ weights)))
    rows.append(
        ReportRow(
            "ks-epsilon-variance",
            "eps=0.05",
            stats_eps.variance,
            oracle=float(np.square(outs) @ weights - (outs @ weights) ** 2),
        )
    )
    return rows, None


_DISPATCH = {
    "oracle-check": run_oracle_check,
    "sgn-averages": run_sgn_averages,
    "spin-half": run_spin_half,
    "homogeneity": run_homogeneity,
    "spin-one": run_spin_one,
    "ks-dispersion": run_ks_dispersion,
    "ks-epsilon": run_ks_epsilon,
    "verify-all": run_verify_all,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hvlab", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42)
    common.add_argument("--samples", type=int, default=1_000_000)
    common.add_argument("--n", type=int, default=0, help="power-law distribution index")
    common.add_argument("--format", choices=("table", "csv", "json"), default="table")
    common.add_argument("--grid-step", type=float, default=0.01)
    common.add_argument("--tolerance-sigma", type=float, default=4.0)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("oracle-check", parents=[common])
    sub.add_parser("sgn-averages", parents=[common])

    for name in ("spin-half", "homogeneity"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--beta", required=True, help="three comma-separated components")
        p.add_argument("--state", help="pure-state amplitudes, complex allowed")
        p.add_argument("--epsilon", help="Bloch vector, three comma-separated reals")
        if name == "spin-half":
            mode = p.add_mutually_exclusive_group()
            mode.add_argument("--original", action="store_true")
            mode.add_argument("--modified", action="store_true")
        else:
            p.add_argument("--alpha", type=float, default=0.0)

    p = sub.add_parser("spin-one", parents=[common])
    p.add_argument("--case", default="III", choices=spin_one.CASE_IDS)
    p.add_argument("--swap", action="store_true")
    p.add_argument("--lambdas", help="three outcome values, repeated one first")
    p.add_argument("--probs", help="three probabilities")
    p.add_argument("--beta", help="basis coefficients for operator mode")
    p.add_argument("--state", help="pure-state amplitudes for operator mode")
    p.add_argument("--basis", default=ANGULAR_MOMENTUM, choices=BASIS_KINDS)

    p = sub.add_parser("ks-dispersion", parents=[common])
    p.add_argument("--probs", help="three zero-outcome probabilities")
    p.add_argument("--scan", action="store_true")

    p = sub.add_parser("ks-epsilon", parents=[common])
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--probs", required=True, help="p_plus,p_zero,p_minus")
    p.add_argument("--sweep", action="store_true")

    sub.add_parser("verify-all", parents=[common])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(
            command=args.command,
            seed=args.seed,
            samples=args.samples,
            n=args.n,
            output_format=args.format,
            grid_step=args.grid_step,
            tolerance_sigma=args.tolerance_sigma,
        )
        if args.command == "ks-dispersion" and not args.scan and args.probs is None:
            raise CliError("ks-dispersion needs --probs or --scan")
        rows, note = _DISPATCH[args.command](cfg, args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if note is not None:
        print(note)
    if rows:
        emit_rows(rows, cfg)
    return 0 if all(row.passed(cfg.tolerance_sigma) for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
