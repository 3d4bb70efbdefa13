"""Tiny-size self-check of the benchmark's oracles and tracer.

    python3 perfbench/selfcheck.py

Each oracle must accept an exact answer computed here by a dense solve and
reject a slightly wrong one; the reference Laplacians, histogram and
consistency must agree with the program's own on a small input; a known
failure must leave the failure ledger once it passes its recorded level or
share, and only then count as failed; and the tracer must record spans and
restore every function it replaced.  Exits 1 on the first disagreement.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import fairsmooth  # noqa: E402
from fairsmooth import evalmetrics, laplacian, smoother  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import KNOWN_FAILURES, Failure  # noqa: E402


def expect(condition, what):
    if not condition:
        sys.exit(f"selfcheck FAILED: {what}")
    print(f"ok  {what}")


def main():
    rng = np.random.default_rng(7)
    n = 30
    X = rng.uniform(size=(n, 2))
    i, j = np.triu_indices(n, 1)
    d = np.linalg.norm(X[i] - X[j], axis=1)
    keep = d <= 0.4
    i, j, d = i[keep], j[keep], d[keep]
    w = np.exp(-d * d)
    g = fairsmooth.SimilarityGraph(n=n, rows=i, cols=j, weights=w)
    W = oracles.adjacency(n, i, j, w)
    y = rng.uniform(size=n)

    for kind in ("unnormalized", "normalized_random_walk"):
        S = oracles.sym_laplacian(W, kind)
        ours = laplacian.make_laplacian(g, kind).symmetrized().toarray()
        expect(np.allclose(S.toarray(), ours, rtol=0, atol=1e-14), f"{kind}: reference sym(L) matches the program's")
        lam = oracles.effective_lambda(W, kind, 2.0)
        f = np.linalg.solve(np.eye(n) + lam * S.toarray(), y)
        expect(oracles.stationarity(S, lam, y, f) is None, f"{kind}: exact solve passes stationarity")
        expect(oracles.stationarity(S, lam, y, f + 1e-6) is not None, f"{kind}: perturbed solve fails stationarity")
        out, _ = smoother.run_smoothing(y, g, smoother.SmoothingConfig(lam=2.0, laplacian_kind=kind))
        expect(oracles.stationarity(S, lam, y, out) is None, f"{kind}: program's closed form passes stationarity")

    S = oracles.sym_laplacian(W, "unnormalized")
    P = rng.dirichlet(np.ones(3), size=n)
    eta = np.linalg.solve(np.eye(n) + S.toarray(), oracles.natural_params(P))
    logits = np.concatenate([eta, np.zeros((n, 1))], axis=1)
    Q = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    expect(oracles.kl_stationarity(S, 1.0, P, Q) is None, "kl: exact solve passes")
    expect(oracles.kl_stationarity(S, 1.0, P, P) is not None, "kl: unsmoothed input fails")
    off = Q.copy()
    off[0] *= 1.01
    expect(oracles.kl_stationarity(S, 1.0, P, off) is not None, "kl: row off the simplex fails")

    bounds = 2.0 * d
    expect(oracles.constraints_hold(np.zeros(n), i, j, bounds, 1e-8) is None, "dykstra: feasible point passes")
    bumped = np.zeros(n)
    bumped[i[0]] = bounds[0] + 1e-6
    expect(oracles.constraints_hold(bumped, i, j, bounds, 1e-8) is not None, "dykstra: violated bound fails")

    pairs = [(int(a), int(b), float(c)) for a, b, c in zip(i, j, d)]
    expect(oracles.violation_histogram(y, i, j, d, 0.5, 10) == evalmetrics.violation_histogram(y, pairs, 0.5),
           "violation histogram matches the program's")
    groups = np.arange(n) // 3
    original = np.arange(n) % 3 == 0
    grouped = evalmetrics.GroupedPredictions(outputs=y, group_of=groups, is_original=original)
    expect(oracles.prediction_consistency(y, groups, original) == evalmetrics.prediction_consistency(grouped),
           "prediction consistency matches the program's")
    expect(oracles.float_tokens_ok(["%.17g" % 0.1, "1", "0.25"]) and not oracles.float_tokens_ok(["0.1"]),
           "17-digit float format check")

    def verdicts(name, per_op):
        return [e["within_ledger"] for e in run.ledger(name, [(None, failures) for failures in per_op])]

    ceiling = KNOWN_FAILURES["large_graph_solve", "solve.kl", "stationarity"]["max_level"]
    expect(verdicts("large_graph_solve", [[Failure("solve.kl", "stationarity", "", ceiling)]]) == [True],
           "known failure at its recorded level stays within the ledger")
    expect(verdicts("large_graph_solve", [[Failure("solve.kl", "stationarity", "", 2 * ceiling)]]) == [False],
           "known failure above its recorded level leaves the ledger")
    share = KNOWN_FAILURES["global_baseline", "global_if_project", "NotConverged"]["max_share"]
    runs = [[Failure("global_if_project", "NotConverged", "")]] * 2 + [[]] * int(2 / share)
    expect(verdicts("global_baseline", runs) == [True], "known failure at its recorded share stays within the ledger")
    expect(verdicts("global_baseline", runs[:4]) == [False], "known failure above its recorded share leaves the ledger")
    expect(verdicts("global_baseline", [[Failure("global_if_project", "constraint", "")]]) == [False],
           "failure outside the ledger")

    def failed(name, per_op):
        ops = [(None, failures) for failures in per_op]
        return run.failed_outside_ledger(ops, run.ledger(name, ops))

    expect(failed("global_baseline", runs) == 0, "ops with known failures within the ledger are not failed")
    expect(failed("global_baseline", runs[:4]) == 2, "ops with a known failure above its share are failed")
    mixed = [[Failure("solve.kl", "stationarity", "", ceiling), Failure("solve.kl", "simplex", "")], []]
    expect(failed("large_graph_solve", mixed) == 1, "an op with any failure outside the ledger is failed")

    tracer = tracing.Tracer()
    before = smoother.make_laplacian
    tracer.install()
    try:
        smoother.run_smoothing(y, g, smoother.SmoothingConfig())
    finally:
        tracer.uninstall()
    tracer.flush()
    names = {span[0] for span in tracer.spans}
    expect({"smoother.run_smoothing", "laplacian.make_laplacian", "smoother.smooth_closed_form"} <= names,
           "tracer records nested spans reached through module globals")
    expect(smoother.make_laplacian is before and fairsmooth.run_smoothing is smoother.run_smoothing,
           "tracer restores every replaced function")
    metrics = tracer.layer_metrics(1)
    expect(metrics["smoother.smooth_closed_form.computed_flops"] == n**3 / 3 + 2 * n * n,
           "computed flops of the closed form")
    expect(metrics["smoother.run_smoothing.uncertified"] == 0, "traced run_smoothing counted as certified")


if __name__ == "__main__":
    main()
