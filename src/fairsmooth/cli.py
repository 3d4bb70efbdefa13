"""Command-line interface.

Subcommands: ``graph build``, ``smooth``, ``smooth inductive``,
``baseline project``, ``eval``, ``check limits``, ``aggregate``.  Every
subcommand is deterministic given its flags, input files, and seed.

Exit codes: 0 success, 1 validation or usage error, 2 numerical failure;
errors are reported as one machine-parsable line on standard error.
"""

import argparse
import contextlib
import dataclasses
import json
import sys

import numpy as np

from . import baseline as baseline_mod
from . import evalmetrics, graph, io, laplacian, metric, smoother, synthcheck
from .errors import (
    FairSmoothError,
    InvalidParameter,
    NotConverged,
    NumericalError,
    ParseError,
    RowCountMismatch,
    ValidationError,
)


class _Parser(argparse.ArgumentParser):
    """A usage error is a ParseError, so it exits 1 with one stderr line;
    subparsers are built from this class too."""

    def error(self, message):
        raise ParseError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fairsmooth",
        description="Graph-smoothing post-processing for individually fair predictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="similarity graph operations")
    graph_sub = p_graph.add_subparsers(dest="graph_command", required=True, metavar="{build}")
    p_build = graph_sub.add_parser("build", help="build a similarity graph from embeddings")
    p_build.add_argument("--embeddings", required=True, help="CSV of input embeddings")
    p_build.add_argument("--metric", required=True, help="JSON fair-metric spec")
    p_build.add_argument("--theta", type=float, default=graph.DEFAULT_THETA)
    p_build.add_argument("--tau", type=float, required=True, help="distance threshold (inf allowed)")
    p_build.add_argument("--out", required=True, help="output edge-list TSV")
    p_build.set_defaults(func=cmd_graph_build)

    p_smooth = sub.add_parser("smooth", help="smooth model outputs over a graph")
    p_smooth.add_argument("--graph", required=True, help="edge-list TSV")
    p_smooth.add_argument("--outputs", required=True, help="CSV of model outputs")
    p_smooth.add_argument("--config", help="JSON smoothing config")
    p_smooth.add_argument("--lambda", dest="lam", type=float)
    p_smooth.add_argument("--laplacian", dest="laplacian_kind", choices=laplacian.KINDS)
    p_smooth.add_argument("--mode", choices=smoother.MODES)
    p_smooth.add_argument("--epochs", type=int)
    p_smooth.add_argument("--seed", type=int)
    p_smooth.add_argument("--discrepancy", choices=smoother.DISCREPANCIES)
    p_smooth.add_argument("--tolerance", type=float)
    p_smooth.add_argument(
        "--no-nrw-lambda-scaling", dest="nrw_lambda_scaling", action="store_const", const=False
    )
    p_smooth.add_argument("--out", required=True, help="output CSV for smoothed values")
    p_smooth.add_argument("--metadata-out", help="JSON metadata record")
    p_smooth.set_defaults(func=cmd_smooth)

    p_ind = sub.add_parser(
        "smooth-inductive", help="one coordinate step for a single new point"
    )
    p_ind.add_argument("--fitted", required=True, help="CSV of already-smoothed outputs")
    p_ind.add_argument(
        "--weights", required=True, help="TSV 'index<TAB>weight' from the new point"
    )
    p_ind.add_argument("--yhat-new", required=True, help="comma-separated output of the new point")
    p_ind.add_argument("--lambda", dest="lam", type=float, required=True)
    p_ind.add_argument("--out", help="optional CSV output; printed to stdout otherwise")
    p_ind.set_defaults(func=cmd_inductive)

    p_base = sub.add_parser("baseline", help="global Lipschitz-constraint projection")
    base_sub = p_base.add_subparsers(dest="baseline_command", required=True, metavar="{project}")
    p_proj = base_sub.add_parser("project", help="project outputs onto the constraint set")
    p_proj.add_argument("--distances", required=True, help="TSV 'i<TAB>j<TAB>d' of fair distances")
    p_proj.add_argument("--outputs", required=True, help="CSV of model outputs")
    p_proj.add_argument("--lipschitz", type=float, required=True)
    p_proj.add_argument("--tol", type=float, default=baseline_mod.DEFAULT_TOL)
    p_proj.add_argument("--max-iter", type=int, default=baseline_mod.DEFAULT_MAX_ITER)
    p_proj.add_argument("--out", required=True)
    p_proj.set_defaults(func=cmd_baseline)

    p_eval = sub.add_parser("eval", help="fairness and accuracy report")
    p_eval.add_argument("--outputs", required=True)
    p_eval.add_argument("--groups", required=True, help="CSV 'row_index,group_id,is_original'")
    p_eval.add_argument("--labels", help="CSV 'row_index,label'")
    p_eval.add_argument("--distances", help="TSV of fair distances for the histogram")
    p_eval.add_argument("--lipschitz", type=float)
    p_eval.add_argument("--bins", type=int, default=10)
    p_eval.add_argument("--threshold", type=float, default=evalmetrics.DEFAULT_THRESHOLD)
    p_eval.add_argument("--out", help="report JSON path; printed to stdout otherwise")
    p_eval.set_defaults(func=cmd_eval)

    p_check = sub.add_parser("check", help="verification harnesses")
    check_sub = p_check.add_subparsers(dest="check_command", required=True, metavar="{limits}")
    p_lim = check_sub.add_parser("limits", help="empirical check of the asymptotic limits")
    p_lim.add_argument("--dimension", type=int, default=1)
    p_lim.add_argument(
        "--function",
        choices=list(synthcheck.TARGETS),
        default="cosine_product",
    )
    p_lim.add_argument("--n-grid", required=True, help="comma-separated increasing sizes")
    p_lim.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    p_lim.add_argument(
        "--sigma-exponent", type=float, default=synthcheck.DEFAULT_SIGMA_EXPONENT
    )
    p_lim.add_argument("--out", help="CSV path; printed to stdout otherwise")
    p_lim.set_defaults(func=cmd_check_limits)

    p_agg = sub.add_parser("aggregate", help="mean/std of report JSONs across runs")
    p_agg.add_argument("reports", nargs="+", help="report JSON files")
    p_agg.add_argument("--out", help="JSON path; printed to stdout otherwise")
    p_agg.set_defaults(func=cmd_aggregate)

    return parser


def _parse_list(text: str, kind):
    """Comma-separated values of ``kind``; empty items are skipped."""
    try:
        return [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ParseError(f"could not parse {kind.__name__} list {text!r}")


def cmd_graph_build(args) -> None:
    X = io.read_matrix_csv(args.embeddings)
    spec = metric.metric_spec_from_json(io.read_json(args.metric))
    g = graph.build_similarity_graph(X, spec, theta=args.theta, tau=args.tau)
    graph.write_edge_list(g, args.out)


def _smoothing_config(args) -> smoother.SmoothingConfig:
    names = [f.name for f in dataclasses.fields(smoother.SmoothingConfig)]
    values = {}
    if args.config:
        raw = io.read_json(args.config)
        if not isinstance(raw, dict):
            raise ParseError(f"{args.config}: config must be a JSON object")
        keys = {"lambda" if name == "lam" else name: name for name in names}
        for key, value in raw.items():
            if key not in keys:
                raise ParseError(f"{args.config}: unknown config field {key!r}")
            values[keys[key]] = value
    # CLI flags override config-file fields
    for name in names:
        value = getattr(args, name, None)
        if value is not None:
            values[name] = value
    return smoother.SmoothingConfig(**values)


def cmd_smooth(args) -> None:
    g = graph.read_edge_list(args.graph)
    y = io.read_matrix_csv(args.outputs)
    if y.shape[0] != g.n:
        raise RowCountMismatch(f"graph has n={g.n}, outputs have {y.shape[0]} rows")
    config = _smoothing_config(args)
    f, meta = smoother.run_smoothing(y, g, config)
    # an uncertified result is never written
    if not meta["converged"]:
        steps = "epochs; raise --epochs" if meta["solver"] == "coordinate_descent" else "iterations"
        raise NotConverged(
            f"{meta['solver']} left residual {meta['residual']:.3g} above its bound "
            f"{config.tolerance:.3g} * max(1, |y_k|) after {meta['iterations']} {steps}"
        )
    io.write_matrix_csv(args.out, f)
    if args.metadata_out:
        io.write_json(args.metadata_out, meta)


def cmd_inductive(args) -> None:
    fitted = io.read_matrix_csv(args.fitted)
    weights = np.zeros(fitted.shape[0])
    (idx, w), _ = io.read_table(args.weights, (np.int64, float), delimiter="\t", comments=True)
    io.check_row_indices(args.weights, idx, weights.size, comments=True)
    bad = np.flatnonzero(~((w >= 0) & (w < np.inf)))
    if bad.size:
        line = io.line_of_row(args.weights, int(bad[0]), comments=True)
        raise InvalidParameter(f"{args.weights}:{line}: weight must be finite and >= 0, got {w[bad[0]]}")
    weights[idx] = w
    y_new = np.array(_parse_list(args.yhat_new, float))
    if not np.all(np.isfinite(y_new)):
        raise InvalidParameter(f"--yhat-new must be finite, got {args.yhat_new!r}")
    out = smoother.inductive_update(fitted, weights, y_new, args.lam)
    out = np.atleast_1d(out)
    if args.out:
        io.write_matrix_csv(args.out, out[None, :])
    else:
        io.write_rows(sys.stdout, ",", *out[:, None])


def cmd_baseline(args) -> None:
    pairs = io.read_pairs_tsv(args.distances)
    y = io.read_matrix_csv(args.outputs)
    cons = baseline_mod.constraints_from_distances(pairs, args.lipschitz)
    f = baseline_mod.global_if_project(y, cons, tol=args.tol, max_iter=args.max_iter)
    io.write_matrix_csv(args.out, f)


def cmd_eval(args) -> None:
    outputs = io.read_matrix_csv(args.outputs)
    group_of, is_original = io.read_groups_csv(args.groups)
    grouped = evalmetrics.GroupedPredictions(
        outputs=outputs, group_of=group_of, is_original=is_original
    )
    report = {"prediction_consistency": evalmetrics.prediction_consistency(grouped, threshold=args.threshold)}
    if args.labels:
        labels = io.read_labels_csv(args.labels)
        report["accuracy"] = evalmetrics.accuracy(outputs, labels, threshold=args.threshold)
        report["balanced_accuracy"] = evalmetrics.balanced_accuracy(outputs, labels, threshold=args.threshold)
    if args.distances:
        if args.lipschitz is None:
            raise ValidationError("--distances requires --lipschitz")
        report["violation_histogram"] = evalmetrics.violation_histogram(
            outputs, io.read_pairs_tsv(args.distances), args.lipschitz, num_bins=args.bins
        )
    if args.out:
        io.write_json(args.out, report)
    else:
        print(json.dumps(report, indent=2, sort_keys=True))


def cmd_check_limits(args) -> None:
    spec = synthcheck.SyntheticSpec(
        dimension=args.dimension,
        target_function=args.function,
        sigma_exponent=args.sigma_exponent,
    )
    n_grid = _parse_list(args.n_grid, int)
    seeds = _parse_list(args.seeds, int)
    rows = synthcheck.convergence_report(spec, n_grid, seeds)
    names = ["kind", "n", "sigma", "empirical_mean", "empirical_std", "analytic", "relative_error"]
    columns = [np.array([r[name] for r in rows]) for name in names]
    with (open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(",".join(names) + "\n")
        io.write_rows(fh, ",", *columns)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def cmd_aggregate(args) -> None:
    reports = [(path, io.read_json(path)) for path in args.reports]
    for path, rep in reports:
        if not isinstance(rep, dict):
            raise ParseError(f"{path}: report must be a JSON object")
    # a key is aggregated when it holds a number in some report, and then
    # must hold one in every report that has it
    keys = sorted({k for _, rep in reports for k, v in rep.items() if _is_number(v)})
    agg = {}
    for key in keys:
        values = []
        for path, rep in reports:
            if key in rep:
                if not _is_number(rep[key]):
                    raise ParseError(f"{path}: {key!r} is not a number")
                values.append(rep[key])
        agg[key] = {
            "mean": float(np.mean(values)),
            "std": float(np.std(values)),
            "count": len(values),
        }
    if args.out:
        io.write_json(args.out, agg)
    else:
        print(json.dumps(agg, indent=2, sort_keys=True))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # allow the documented two-word form "smooth inductive"
    if argv[:2] == ["smooth", "inductive"]:
        argv = ["smooth-inductive"] + argv[2:]
    try:
        args = _build_parser().parse_args(argv)
        args.func(args)
    except SystemExit as exc:  # --help printed its text; usage errors are ParseErrors
        return exc.code
    except OSError as exc:
        detail = f"missing file {exc.filename}" if isinstance(exc, FileNotFoundError) else exc
        print(f"error: ParseError: {detail}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 1
    except FairSmoothError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, NumericalError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
