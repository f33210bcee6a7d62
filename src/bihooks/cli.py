"""Command-line interface.

Exact-arithmetic subcommands mirror the library: ``structure`` and
``decomposable`` for module predictions, ``llt`` for the canonical-basis
matrix, ``qdim`` for graded dimensions, the label-map commands
``mullineux``/``induce``/``braces``, the two-column arithmetic commands
``decompnum``/``henke``/``summands``/``factors``, and ``verify`` to run a
cross-check suite (exit status 0 iff no failures).
"""

import argparse
import csv
import json
import sys

from . import crystal, fock, render, schur, structure, verify
from .padic import check_prime_or_zero
from .partitions import format_bipartition, format_partition, parse_bipartition
from .tableaux import graded_dimension, word_graded_dimension


def _int_list(text: str) -> list[int]:
    if not text.replace(",", "").strip():
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bihooks",
        description="Exact combinatorics of Specht modules indexed by bihooks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("structure", help="predict the module structure")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--transpose", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("decomposable", help="decomposability verdict only")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, required=True)

    p = sub.add_parser("llt", help="canonical-basis matrix at n boxes")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rows", choices=("all", "bihooks"), default="all")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--no-cache", action="store_true")

    p = sub.add_parser("qdim", help="graded dimension of a Specht module")
    p.add_argument("--shape", required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--word", default=None,
                   help="comma-separated residues; restrict to this word space")

    p = sub.add_parser("mullineux", help="Mullineux image of a regular bipartition")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--shape", required=True)

    p = sub.add_parser("induce", help="induction label map")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--negate", action="store_true")
    p.add_argument("--shape", required=True)

    p = sub.add_parser("braces", help="rowwise braces expansion")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--shape", required=True)

    p = sub.add_parser("decompnum", help="two-column decomposition number")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--p", type=int, required=True)

    p = sub.add_parser("henke", help="Young-module summands of a two-row permutation module")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, default=None)

    p = sub.add_parser("summands", help="number of indecomposable summands")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--p", type=int, required=True)

    p = sub.add_parser("factors", help="composition-factor multiset")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="csv")

    p = sub.add_parser("verify", help="run a cross-check suite")
    p.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--max-kj", type=int, default=None)
    p.add_argument("--e", default=None, help="comma-separated list")
    p.add_argument("--primes", default=None, help="comma-separated list")
    p.add_argument("--cache-dir", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "structure":
            verdict = structure.predict(args.k, args.j, args.e, args.p,
                                        a=args.a, b=args.b,
                                        transpose=args.transpose)
            if args.format == "json":
                json.dump(render.verdict_obj(verdict), out, indent=1)
                out.write("\n")
            else:
                out.write(render.verdict_text(verdict) + "\n")
        elif args.command == "decomposable":
            check_prime_or_zero(args.p)
            out.write(structure.decomposability(args.k, args.j, args.p) + "\n")
        elif args.command == "llt":
            matrix = fock.canonical_basis(args.n, args.e,
                                          cache_dir=args.cache_dir,
                                          use_cache=not args.no_cache)
            if args.format == "json":
                out.writelines(render.matrix_json(matrix, rows=args.rows))
                out.write("\n")
            else:
                out.writelines(render.matrix_csv(matrix, rows=args.rows))
        elif args.command == "qdim":
            shape = parse_bipartition(args.shape)
            if args.word is None:
                out.write(str(graded_dimension(shape, args.e)) + "\n")
            else:
                word = _int_list(args.word)
                out.write(str(word_graded_dimension(shape, word, args.e)) + "\n")
        elif args.command == "mullineux":
            shape = parse_bipartition(args.shape)
            out.write(format_bipartition(crystal.mullineux(shape, args.e)) + "\n")
        elif args.command == "induce":
            shape = parse_bipartition(args.shape)
            image = crystal.induce(shape, args.a, args.b, args.e,
                                   negate=args.negate)
            out.write(format_bipartition(image) + "\n")
        elif args.command == "braces":
            shape = parse_bipartition(args.shape)
            out.write(format_bipartition(crystal.braces(shape, args.e)) + "\n")
        elif args.command == "decompnum":
            out.write(str(schur.decomp_number(args.m, args.j, args.n, args.p)) + "\n")
        elif args.command == "henke":
            ms = [args.m] if args.m is not None else range(args.j + 1)
            for m in ms:
                flag = schur.henke_summand(args.n, args.j, m, args.p)
                out.write(f"{args.n - m},{m}: {'yes' if flag else 'no'}\n")
        elif args.command == "summands":
            out.write(str(schur.num_summands(args.k, args.j, args.p)) + "\n")
        elif args.command == "factors":
            counts = schur.composition_multiset(args.k, args.j, args.p)
            items = [(format_partition(mu), mult)
                     for mu, mult in sorted(counts.items(), reverse=True)]
            if args.format == "json":
                json.dump([{"factor": mu, "multiplicity": mult}
                           for mu, mult in items], out)
                out.write("\n")
            else:
                csv.writer(out, lineterminator="\n").writerows(
                    [("factor", "multiplicity")] + items)
        elif args.command == "verify":
            report = verify.run_suite(
                args.suite, max_n=args.max_n, max_kj=args.max_kj,
                es=tuple(_int_list(args.e)) if args.e is not None else None,
                primes=tuple(_int_list(args.primes)) if args.primes is not None else None,
                cache_dir=args.cache_dir)
            out.write(report.summary() + "\n")
            for failure in report.failures:
                out.write(f"  FAIL: {failure}\n")
            return 0 if report.ok else 1
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
