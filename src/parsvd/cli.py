"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 numerical or convergence error.
All randomness is controlled by --seed, which only the commands that draw
random inputs accept, or by a channel config's seed when the flag is not
given; the same argv and files always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import gram_svd
from .errors import ParsvdError, ValidationError
from .gram_svd import HermitianMatrix, svd_4step, tridiagonalize
from .kvfile import read_flat_kv
from .latency_model import (
    analytic_latency,
    critical_path,
    load_profile,
    total_ops,
    trace_run,
)
from .latency_model.analytic import _resolve, latency_breakdown
from .matrix_core import fro_norm
from .mimo_harness import (
    ChannelConfig,
    SweepResult,
    capacity_vs_iterations,
    rate_vs_iterations,
    sweep_latency_vs_size,
)

_ALG_ALIASES = {"dc": "4step-dc", "qr": "4step-qr"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_size(text: str) -> tuple[int, int]:
    try:
        m, _, k = text.lower().partition("x")
        dims = (int(m), int(k))
    except ValueError as exc:
        raise UsageError(f"invalid size {text!r}: expected MxK, e.g. 8x4") from exc
    if dims[0] < 1 or dims[1] < 1:
        raise UsageError(f"invalid size {text!r}: dimensions must be >= 1")
    return dims


def _int_list(flag: str, text: str) -> list[int]:
    """The integers of a comma-separated flag value; empty entries are skipped."""
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _resolve_alg(name: str) -> str:
    try:
        return _resolve(_ALG_ALIASES.get(name, name))
    except ValidationError as exc:
        raise UsageError(f"{exc}, or the short names {', '.join(_ALG_ALIASES)}") from exc


def read_matrix_text(path: str) -> np.ndarray:
    """Matrix text format: a `rows cols` header, then re/im pairs row-major."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tokens = fh.read().split()
    except OSError as exc:
        raise UsageError(f"cannot read matrix file {path!r}: {exc}") from exc
    if len(tokens) < 2:
        raise UsageError(f"{path}: missing 'rows cols' header")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise UsageError(f"{path}: malformed header {tokens[:2]!r}") from exc
    need = 2 * rows * cols
    body = tokens[2:]
    if len(body) != need:
        raise UsageError(
            f"{path}: expected {need} numbers for a {rows}x{cols} complex matrix, got {len(body)}"
        )
    try:
        vals = [float(tok) for tok in body]
    except ValueError as exc:
        raise UsageError(f"{path}: non-numeric entry: {exc}") from exc
    data = np.array(vals[0::2]) + 1j * np.array(vals[1::2])
    return data.reshape(rows, cols)


def _random_matrix(size: tuple[int, int], seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m, k = size
    return (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2.0)


def _random_hermitian(k: int, seed: int) -> HermitianMatrix:
    return gram_svd.gram(_random_matrix((k + 2, k), seed))


def _load_input(args, square_hermitian: bool) -> np.ndarray | HermitianMatrix:
    """The matrix of --input or --random; a validated HermitianMatrix when
    ``square_hermitian``, else an array."""
    if args.input is not None and args.random is not None:
        raise UsageError("--input and --random are mutually exclusive")
    if args.input is not None:
        mat = read_matrix_text(args.input)
        if square_hermitian:
            try:
                return HermitianMatrix.from_matrix(mat)
            except ParsvdError as exc:
                raise UsageError(f"--input {args.input}: {exc}") from exc
        return mat
    if args.random is None:
        raise UsageError("one of --input or --random is required")
    size = _parse_size(args.random)
    if square_hermitian:
        if size[0] != size[1]:
            raise UsageError("--random must be square (KxK) for this command")
        return _random_hermitian(size[1], args.seed)
    return _random_matrix(size, args.seed)


# ---------------------------------------------------------------------------
# output rendering


def _emit_kv(payload: dict, fmt: str):
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return
    rows = []

    def flatten(prefix, obj):
        if isinstance(obj, dict):
            for key in obj:
                flatten(f"{prefix}.{key}" if prefix else str(key), obj[key])
        elif isinstance(obj, (list, tuple)):
            rows.append((prefix, " ".join(_fmt_num(v) for v in obj)))
        else:
            rows.append((prefix, _fmt_num(obj)))

    for key in payload:
        flatten(str(key), payload[key])
    if fmt == "csv":
        sys.stdout.write("key,value\n")
        for key, val in rows:
            sys.stdout.write(f"{key},{val}\n")
    else:
        width = max((len(k) for k, _ in rows), default=0)
        for key, val in rows:
            sys.stdout.write(f"{key.ljust(width)}  {val}\n")


def _fmt_num(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_plot_data(sweep: SweepResult, path: str):
    """Write a sweep as CSV: an x column, one column per series, and a
    reference column when present. Overwrites the target file."""
    if not sweep.x:
        raise ValidationError("sweep is empty")
    names = list(sweep.series)
    header = ["x"] + names + (["reference"] if sweep.reference is not None else [])
    lines = [",".join(header)]
    for i, xv in enumerate(sweep.x):
        row = [str(xv)] + [_fmt_num(sweep.series[n][i]) for n in names]
        if sweep.reference is not None:
            row.append(_fmt_num(sweep.reference))
        lines.append(",".join(row))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ParsvdError(f"cannot write {path!r}: {exc}") from exc


def _sweep_payload(sweep: SweepResult) -> dict:
    payload = {"x": list(sweep.x)}
    for name in sweep.series:
        payload[name] = list(sweep.series[name])
    if sweep.reference is not None:
        payload["reference"] = sweep.reference
    if "trials_failed" in sweep.meta:
        payload["trials_failed"] = sweep.meta["trials_failed"]
    return payload


# ---------------------------------------------------------------------------
# subcommands


def _cmd_svd(args):
    a = _load_input(args, square_hermitian=False)
    res = svd_4step(a, args.budget, sv_threshold=args.sv_threshold)
    residual = fro_norm(a - res.reconstruct()) / max(fro_norm(a), 1e-300)
    payload = {
        "shape": list(a.shape),
        "sigma": [float(s) for s in res.sigma],
        "valid_columns": int(np.sum(res.valid)),
        "residual": residual,
        "diagnostics": asdict(res.diagnostics),
    }
    _emit_kv(payload, args.format)
    return 0


def _cmd_eig(args):
    b = _load_input(args, square_hermitian=True)
    t, q_t = tridiagonalize(b)
    eig = gram_svd.dc_eigen(t)
    vecs = q_t @ eig.q
    res = fro_norm(b.mat @ vecs - vecs * eig.lam) / max(fro_norm(b.mat), 1e-300)
    payload = {
        "dim": b.dim,
        "eigenvalues": [float(v) for v in eig.lam],
        "residual": res,
        "newton_iterations_total": eig.diagnostics.newton_iterations_total,
    }
    _emit_kv(payload, args.format)
    return 0


def _model_query(args) -> tuple[str, tuple[int, int], dict]:
    """--alg and --size resolved, and the payload head that names them."""
    alg = _resolve_alg(args.alg)
    dims = _parse_size(args.size)
    return alg, dims, {"algorithm": alg, "size": f"{dims[0]}x{dims[1]}"}


def _cmd_latency(args):
    alg, dims, payload = _model_query(args)
    profile = load_profile(args.profile)
    est = analytic_latency(alg, dims, args.iters, profile)
    payload.update(
        iterations=args.iters,
        profile=profile.name,
        ns=est.ns,
        normalized_adders=est.normalized_adders,
        critical_path_ops=asdict(est.critical_path),
        breakdown_ns=latency_breakdown(alg, dims, args.iters, profile),
    )
    _emit_kv(payload, args.format)
    return 0


def _cmd_ops(args):
    alg, dims, payload = _model_query(args)
    ops = total_ops(alg, dims, args.iters)
    payload.update(iterations=args.iters, ops=asdict(ops), total=ops.total())
    if args.profile is not None:
        profile = load_profile(args.profile)
        payload.update(lut_weighted=ops.lut_weighted(profile), profile=profile.name)
    _emit_kv(payload, args.format)
    return 0


def _cmd_trace_export(args):
    alg, dims, payload = _model_query(args)
    if alg == "gk":
        mat = _random_matrix(dims, args.seed)
    else:
        if dims[0] != dims[1]:
            raise UsageError("tridiag/4step traces need a square Hermitian input size KxK")
        mat = _random_hermitian(dims[1], args.seed).mat
    dfg = trace_run(alg, mat, iters=args.iters)
    text = dfg.export_edges()
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    profile = load_profile(args.profile)
    est = critical_path(dfg, profile)
    payload.update(nodes=len(dfg), census=asdict(dfg.census()), critical_path_ns=est.ns, out=args.out)
    _emit_kv(payload, args.format)
    return 0


def _cmd_sweep(args):
    algs = [_resolve_alg(a) for a in args.algs.split(",") if a]
    profile = load_profile(args.profile)
    ks = _int_list("--sizes", args.sizes)
    factor = 8 if args.geometry == "tall8" else 1
    sizes = [(factor * k, k) for k in ks]
    sweep = sweep_latency_vs_size(
        algs,
        sizes,
        args.mse_target,
        profile,
        trials=args.trials,
        seed=args.seed,
        sweep_cap=args.sweep_cap,
    )
    if args.out:
        emit_plot_data(sweep, args.out)
    payload = _sweep_payload(sweep)
    payload["iterations"] = sweep.meta["iterations"]
    _emit_kv(payload, args.format)
    return 0


_CHANNEL_KEYS = {"m": int, "k": int, "panels": int, "t": int, "snr_db": float, "seed": int, "trials": int}
# per command: help, its integer flags after --config, and the defaults
_MIMO_COMMANDS = {
    "mimo-dmimo": (
        "multi-panel dimension-reduction capacity",
        ("panels", "m", "k", "t"),
        {"m": 32, "k": 32, "panels": 8, "t": 16, "snr_db": 0.0, "seed": 0, "trials": 100},
    ),
    "mimo-mmimo": (
        "single-cell achievable rate",
        ("m", "k"),
        {"m": 128, "k": 16, "panels": 1, "snr_db": 0.0, "seed": 0, "trials": 100},
    ),
}


def _cmd_mimo(args):
    _, _, defaults = _MIMO_COMMANDS[args.command]
    fields = read_flat_kv(args.config, _CHANNEL_KEYS, UsageError) if args.config else {}

    def pick(name):
        # explicit flags win, then config-file entries, then the defaults;
        # a key that has no flag in this command (mimo-mmimo's panels) keeps its default
        flag = getattr(args, name, defaults[name])
        return fields.get(name, defaults[name]) if flag is None else flag

    cfg = ChannelConfig(
        m=pick("m"),
        k=pick("k"),
        panels=pick("panels"),
        snr_per_link=10.0 ** (pick("snr_db") / 10.0),
        seed=pick("seed"),
        trials=pick("trials"),
    )
    budgets = _int_list("--budgets", args.budgets)
    algs = [_resolve_alg(a) for a in args.algs.split(",") if a]
    if args.command == "mimo-dmimo":
        sweep = capacity_vs_iterations(cfg, pick("t"), budgets, algorithms=algs)
    else:
        sweep = rate_vs_iterations(cfg, budgets, algorithms=algs)
    if args.out:
        emit_plot_data(sweep, args.out)
    _emit_kv(_sweep_payload(sweep), args.format)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    p = _Parser(prog="parsvd", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, matrix_input=False, seed=True):
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=("table", "csv", "json"), default="table")
        if matrix_input:
            sp.add_argument("--input", help="matrix text file (rows cols header, re im pairs)")
            sp.add_argument("--random", metavar="MxK", help="generate a random complex matrix")

    sp = sub.add_parser("svd", help="four-step SVD of a complex matrix")
    common(sp, matrix_input=True)
    sp.add_argument("--budget", type=int, default=None, help="secular iteration cap per root")
    sp.add_argument("--sv-threshold", type=float, default=1e-10)
    sp.set_defaults(func=_cmd_svd)

    sp = sub.add_parser("eig", help="eigendecomposition of a Hermitian matrix")
    common(sp, matrix_input=True)
    sp.set_defaults(func=_cmd_eig)

    def model_query(name, text, func, profile="zynq-fp32", profile_help=None):
        sp = sub.add_parser(name, help=text)
        common(sp, seed=False)
        sp.add_argument("--alg", required=True)
        sp.add_argument("--size", required=True, metavar="MxK")
        sp.add_argument("--iters", type=int, default=4)
        sp.add_argument("--profile", default=profile, help=profile_help)
        sp.set_defaults(func=func)
        return sp

    model_query("latency", "critical-path latency model", _cmd_latency)
    model_query("ops", "expanded real-operation counts", _cmd_ops, None, "adds a LUT-weighted total")
    sp = model_query("trace-export", "emit a dataflow graph edge list", _cmd_trace_export)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("sweep", help="latency/ops versus size at an MSE target")
    common(sp)
    sp.add_argument("--algs", default="dc,qr,gk")
    sp.add_argument("--sizes", default="8,16,32,64", help="comma-separated K values")
    sp.add_argument("--geometry", choices=("square", "tall8"), default="square")
    sp.add_argument("--mse-target", type=float, default=1e-4)
    sp.add_argument("--trials", type=int, default=5)
    sp.add_argument("--sweep-cap", type=int, default=800)
    sp.add_argument("--profile", default="zynq-fp32")
    sp.add_argument("--out", default=None, help="CSV output path")
    sp.set_defaults(func=_cmd_sweep)

    for name, (text, flags, _) in _MIMO_COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        common(sp)
        sp.add_argument("--config", default=None, help="flat key-value channel config file")
        for flag in flags:
            sp.add_argument(f"--{flag}", type=int, default=None)
        sp.add_argument("--snr-db", type=float, default=None, dest="snr_db")
        sp.add_argument("--trials", type=int, default=None)
        sp.add_argument("--budgets", default="1,2,4,8")
        sp.add_argument("--algs", default="dc,qr,gk")
        sp.add_argument("--out", default=None)
        # an unset --seed lets a config file's seed apply
        sp.set_defaults(func=_cmd_mimo, seed=None)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except ParsvdError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
