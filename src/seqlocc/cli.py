"""Command-line workbench.

Subcommands: classify, theta, discriminate, verify, synth. Matrix operands
are JSON files (or "-" for standard input); results print to standard
output unless --out redirects them. Exit codes: 0 ok, 2 input error,
3 indistinguishable pair, 4 construction failure.

main(argv) runs one subcommand in process and returns its exit code; the
parser is built at the first call only, not at import. verify rejects
operands split otherwise than the scheme, and a budget that is negative or
not finite (exit 2).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import io as sio
from .arcs import arc_of_phases, eigenphase_rows, queries_for_arc
from .config import DISTINCT_TOL, RunConfig
from .engine import _overlap_report, discriminate
from .errors import (
    CaseFailure,
    GeneratorPrimitive,
    Indistinguishable,
    SeqloccError,
    SynthesisFailed,
)
from .linalg import dagger, eig_unitary, mat, phase_distance
from .structure import classify_primitive, entangling_witness
from .synthesis import synthesize

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INDISTINGUISHABLE = 3
EXIT_CONSTRUCTION = 4


def _read_matrix(path: str, tol: float):
    if path == "-":
        return sio.loads_matrix(sys.stdin.read(), tol)
    return sio.load_matrix_file(path, tol)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# RunConfig field -> flag; each subcommand takes only the fields it reads
FLAGS = {
    "unitarity_tol": "--tol-unitarity",
    "overlap_tol": "--tol-overlap",
    "epsilon": "--tol-epsilon",
    "seed": "--seed",
    "restarts": "--restarts",
    "k_max": "--k-max",
}


def _config_from_args(args) -> RunConfig:
    return RunConfig(**{name: value for name, value in vars(args).items() if name in FLAGS})


def _add_options(parser: argparse.ArgumentParser, *names: str):
    cfg = RunConfig()
    for name in names:
        default = getattr(cfg, name)
        parser.add_argument(FLAGS[name], dest=name, type=type(default), default=default)
    parser.add_argument("--out", default=None, help="write the result here instead of stdout")


def cmd_classify(args) -> int:
    cfg = _config_from_args(args)
    U = _read_matrix(args.matrix, cfg.unitarity_tol)
    form = classify_primitive(U)
    lines = [f"kind: {form.kind}", f"residual: {form.residual:.3e}"]
    coeffs = ", ".join(f"{c:.12g}" for c in form.schmidt_coefficients)
    lines.append(f"schmidt_coefficients: [{coeffs}]")
    if form.kind != "Imprimitive":
        for name in ("factor_a", "factor_b"):
            lines.append(f"{name}:")
            lines.extend("  " + "  ".join(f"{z.real:+.12g}{z.imag:+.12g}j" for z in row)
                         for row in getattr(form, name))
    else:
        lines.append(f"witness_second_coefficient: {entangling_witness(U)[0]:.6g}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_theta(args) -> int:
    cfg = _config_from_args(args)
    U = _read_matrix(args.matrix, cfg.unitarity_tol)
    if args.matrix2 is not None:
        V = _read_matrix(args.matrix2, cfg.unitarity_tol)
        if (U.d_a, U.d_b) != (V.d_a, V.d_b):
            raise SeqloccError(
                f"dimension mismatch: ({U.d_a}, {U.d_b}) vs ({V.d_a}, {V.d_b})")
        W = dagger(U) @ mat(V)
        distinct = phase_distance(U.matrix, V.matrix) > DISTINCT_TOL
    else:
        W = U.matrix
        distinct = True
    dec = eig_unitary(W)
    info = arc_of_phases(dec.phases)
    n = queries_for_arc(info.theta)
    lines = [
        f"theta: {info.theta!r}",
        f"arc_start: {info.start_phase!r}",
        f"arc_end: {info.end_phase!r}",
        f"single_query_distinguishable: {n == 1}",
    ]
    lines.append(f"parallel_query_count: {n}" if distinct and n < math.inf
                 else "parallel_query_count: inf (operations phase-equivalent)")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(sio.eigenphase_csv(eigenphase_rows(dec)))
        lines.append(f"eigenphases_csv: {args.csv}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_discriminate(args) -> int:
    cfg = _config_from_args(args)
    U = _read_matrix(args.matrix_u, cfg.unitarity_tol)
    V = _read_matrix(args.matrix_v, cfg.unitarity_tol)
    scheme, report = discriminate(U, V, cfg)
    _emit(sio.dumps_scheme(scheme, report) + "\n", args.out)
    summary = (f"case_trace: {'/'.join(scheme.case_trace)}\n"
               f"query_count: {report.query_count}\n"
               f"overlap: {report.overlap:.6e}\n"
               f"budget: {scheme.budget:.6e}\n"
               f"verified: {'pass' if report.passed else 'FAIL'}")
    print(summary, file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_CONSTRUCTION


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    scheme = sio.load_scheme_file(args.scheme, cfg.unitarity_tol)
    U = _read_matrix(args.matrix_u, cfg.unitarity_tol)
    V = _read_matrix(args.matrix_v, cfg.unitarity_tol)
    # load_scheme_file has already validated the scheme at cfg.unitarity_tol
    report = _overlap_report(scheme, U, V)
    lines = [
        f"overlap: {report.overlap:.6e}",
        f"budget: {scheme.budget:.6e}",
        f"query_count: {report.query_count}",
        f"verified: {'pass' if report.passed else 'FAIL'}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if report.passed else EXIT_CONSTRUCTION


def cmd_synth(args) -> int:
    cfg = _config_from_args(args)
    target = _read_matrix(args.target, cfg.unitarity_tol)
    generator = _read_matrix(args.generator, cfg.unitarity_tol)
    result = synthesize(target, generator, cfg)
    _emit(sio.dumps_template(result.template) + "\n", args.out)
    print(f"query_count: {result.template.query_count}\ndelta: {result.delta:.6e}",
          file=sys.stderr)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every main call, so
    callers must not mutate it; each cmd_* handler is bound at that build."""
    parser = argparse.ArgumentParser(
        prog="seqlocc",
        description="Construct and verify sequential LOCC discrimination "
                    "schemes for bipartite unitary operations (no inverses "
                    "of the unknown operation are ever applied).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="primitivity classification of one operator")
    p.add_argument("matrix")
    _add_options(p, "unitarity_tol")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("theta", help="smallest eigenphase arc (of W, or of U^dag V)")
    p.add_argument("matrix")
    p.add_argument("matrix2", nargs="?", default=None)
    p.add_argument("--csv", default=None, help="write eigenphase rows here")
    _add_options(p, "unitarity_tol")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("discriminate", help="build a scheme for a pair of operators")
    p.add_argument("matrix_u")
    p.add_argument("matrix_v")
    _add_options(p, *FLAGS)
    p.set_defaults(func=cmd_discriminate)

    p = sub.add_parser("verify", help="re-verify a scheme file against a pair")
    p.add_argument("scheme")
    p.add_argument("matrix_u")
    p.add_argument("matrix_v")
    _add_options(p, "unitarity_tol")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("synth", help="compile a template for a target from a generator")
    p.add_argument("target")
    p.add_argument("generator")
    _add_options(p, "unitarity_tol", "epsilon", "seed", "restarts", "k_max")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Indistinguishable as exc:
        print(f"indistinguishable: {exc}", file=sys.stderr)
        return EXIT_INDISTINGUISHABLE
    except (SynthesisFailed, GeneratorPrimitive, CaseFailure) as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except (SeqloccError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
