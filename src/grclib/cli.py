"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 verification mismatch, 3 dimension
cap exceeded.  All randomized commands require an explicit seed, and with
--threads 1 their output is byte-reproducible.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bounds import BoundReport
from .codes import LinearCode, _field_of_order
from .codetable import EntryReport, hex_encode, load_table, search_qc_type2, verify_table
from .decoding import AwgnBpskHard, Bsc, SimConfig, SimResult, fer_simulate
from .grc import (
    GrcCode,
    as_blocked,
    distance_profile,
    from_qc_generators,
    grc_from_text,
    grc_to_text,
    type1_regular,
    type2,
)
from .kernels import DimensionCapError
from .perms import Permutation
from .poly import Poly, companion_matrix
from .presets import (
    golay_classical_repetition,
    golay_type1_shift,
    golay_type2_mixed,
)
from .verification import bound_suite, demo_notes


class UsageError(Exception):
    pass


def _load_any(path: str, m_flag: int | None) -> GrcCode:
    text = Path(path).read_text()
    if "variant" in text:
        return grc_from_text(text)
    code, m = LinearCode.from_text(text)
    m = m_flag or m
    if m is None:
        raise UsageError("plain code file has no block count; pass --m")
    return as_blocked(code, m)


def _parse_channel(spec: str) -> Bsc | AwgnBpskHard:
    parts = spec.split()
    if len(parts) != 2:
        raise UsageError("channel must be 'bsc P' or 'awgn SNR_DB'")
    kind, value = parts[0].lower(), float(parts[1])
    if kind == "bsc":
        return Bsc(value)
    if kind == "awgn":
        return AwgnBpskHard(value)
    raise UsageError(f"unknown channel kind {kind!r}")


def _parse_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"bad config line: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _base_code(args: argparse.Namespace) -> LinearCode:
    if args.base:
        code, _ = LinearCode.from_text(Path(args.base).read_text())
        return code
    if args.cyclic_gen:
        if args.n is None:
            raise UsageError("--cyclic-gen needs --n")
        field = _field_of_order(args.q)
        return LinearCode.cyclic(field, args.n, Poly.parse(field, args.cyclic_gen))
    raise UsageError("pass --base FILE or --cyclic-gen POLY")


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.kind == "qc":
        if args.n is None or not args.gens:
            raise UsageError("qc construction needs --n and --gens")
        field = _field_of_order(args.q)
        gens = [Poly.parse(field, s) for s in args.gens.split(";")]
        grc = from_qc_generators(args.n, gens)
    else:
        base = _base_code(args)
        if args.m is None:
            raise UsageError("--m is required for type1/type2")
        if args.kind == "type1":
            if args.sigma == "cyclic":
                sigma = Permutation.cyclic_shift(base.n)
            elif args.sigma == "extended":
                sigma = Permutation.extended_shift(base.n - 1)
            elif args.sigma:
                sigma = Permutation(tuple(int(x) for x in args.sigma.split(",")))
            else:
                raise UsageError("type1 needs --sigma")
            grc = type1_regular(base, sigma, args.m)
        else:
            if not args.charpoly:
                raise UsageError("type2 needs --charpoly")
            b = companion_matrix(Poly.parse(base.field, args.charpoly))
            grc = type2(base, b, args.m)
    out = grc_to_text(grc)
    if args.out:
        Path(args.out).write_text(out)
        print(f"wrote {args.out}: {grc!r}")
    else:
        sys.stdout.write(out)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    grc = _load_any(args.code, args.m)
    prof = distance_profile(grc, cap=args.cap)
    print(f"{grc!r}")
    print(str(prof))
    if args.subsets:
        print("T,block_distance,hamming_distance")
        for t, b, h in prof.per_subset:
            print(f"{'|'.join(map(str, t))},{b},{h}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    grc = _load_any(args.code, args.m)
    prof = distance_profile(grc, cap=args.cap)
    reports = bound_suite(grc, prof, cap=args.cap)
    print(BoundReport.CSV_HEADER)
    violated = False
    for rep in reports:
        print(rep.csv_row())
        violated |= rep.verdict == "violated"
    return 2 if violated else 0


def _cmd_verify_table(args: argparse.Namespace) -> int:
    entries = load_table(args.file)
    if args.rows:
        wanted = {int(x) for x in args.rows.split(",")}
        entries = [e for e in entries if e.no in wanted]
    cap = None if args.long_run else args.cap
    reports = verify_table(entries, cap=cap, threads=args.threads)
    print(EntryReport.CSV_HEADER)
    bad = False
    for rep in reports:
        print(rep.csv_row())
        if rep.status in ("mismatch", "undecodable"):
            bad = True
            for line in rep.attempted:
                print(f"#   attempted: {line}")
    counts = {s: sum(1 for r in reports if r.status == s) for s in
              ("verified", "mismatch", "undecodable", "skipped")}
    print(f"# summary: {counts}")
    return 2 if bad else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfgmap = _parse_config(args.config)
    for req in ("code", "channel", "frames", "seed", "max_depth"):
        if req not in cfgmap:
            raise UsageError(f"config is missing '{req}'")
    frames = int(cfgmap["frames"])
    if frames < 1:
        raise UsageError("frames must be >= 1")
    grc = _load_any(cfgmap["code"], None)
    crc = None
    verifier = cfgmap.get("verifier", "genie").split(None, 1)
    if len(verifier) == 2 and verifier[0] == "crc":
        crc = Poly.parse(grc.field, verifier[1])
    elif verifier != ["genie"]:
        raise UsageError("verifier must be 'genie' or 'crc POLY'")
    combining = cfgmap.get("combining", "on")
    if combining not in ("on", "off"):
        raise UsageError("combining must be 'on' or 'off'")
    cfg = SimConfig(
        grc=grc,
        channel=_parse_channel(cfgmap["channel"]),
        frames=frames,
        seed=int(cfgmap["seed"]),
        max_depth=int(cfgmap["max_depth"]),
        scheme=cfgmap.get("scheme", "multiround"),
        combining=combining == "on",
        crc=crc,
        threads=args.threads,
        code_id=cfgmap.get("code_id", Path(cfgmap["code"]).stem),
    )
    result = fer_simulate(cfg)
    _write_sim_csv([result], args.out)
    return 0


def _write_sim_csv(results: list[SimResult], out: str | None) -> None:
    lines = [SimResult.CSV_HEADER]
    for res in results:
        lines.extend(res.csv_rows())
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    sys.stdout.write(text)


def _cmd_search(args: argparse.Namespace) -> int:
    cands = search_qc_type2(
        args.n, args.k, args.budget, args.seed, m=args.m, cap=args.cap
    )
    print("n,k,g_hex,cofactor_hexes,sbdh,shdh")
    for c in cands:
        sb = "|".join(map(str, c.sbdh))
        sh = "|".join(map(str, c.shdh))
        cof = ";".join(hex_encode(f) for f in c.cofactors)
        print(f"{c.n},{args.k},{hex_encode(c.g)},{cof},{sb},{sh}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    print("== constructions ==")
    c1 = golay_type1_shift(4)
    c2 = golay_type2_mixed()
    rep = golay_classical_repetition(4)
    p1 = distance_profile(c1)
    p2 = distance_profile(c2)
    print(f"type1 shift {c1!r}: {p1}")
    print(f"type2 mixed {c2!r}: {p2}")
    print(f"classical repetition {rep!r}: full Hamming distance {4 * 7}")
    print(f"b-symbol view: 4-symbol distance {p1.sbdh[3]}")
    print(f"ir-linear comparator: [92,12,{p2.shdh[3]}] (the type2 code under prefix decoding)")

    print("== bounds ==")
    print(BoundReport.CSV_HEADER)
    for grc, prof in ((c1, p1), (c2, p2)):
        for repb in bound_suite(grc, prof):
            print(repb.csv_row())

    print("== notes ==")
    for note in demo_notes():
        print(f"note,{note.topic},{note.text}")

    print("== fer comparison ==")
    channel = AwgnBpskHard(args.snr_db)
    print(f"channel: awgn {args.snr_db} dB -> induced crossover {channel.crossover:.4f}")
    runs = [
        ("type1-shift", c1, "multiround"),
        ("type2-mixed", c2, "multiround"),
        ("classical-repetition", rep, "repetition"),
        ("bsymbol", c1, "bsymbol"),
        ("ir-linear", c2, "ir"),
    ]
    results = []
    for code_id, grc, scheme in runs:
        cfg = SimConfig(
            grc=grc,
            channel=channel,
            frames=args.frames,
            seed=args.seed,
            max_depth=4,
            scheme=scheme,
            threads=args.threads,
            code_id=code_id,
        )
        res = fer_simulate(cfg)
        results.append(res)
        fers = " ".join(f"D{s.depth}={s.fer:.4f}" for s in res.per_depth)
        print(f"{code_id}: {fers}  ({res.elapsed:.1f}s)")
    _write_sim_csv(results, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="grc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a code and write its file")
    c.add_argument("--kind", choices=("type1", "type2", "qc"), required=True)
    c.add_argument("--q", type=int, default=2)
    c.add_argument("--n", type=int)
    c.add_argument("--base", help="base code file")
    c.add_argument("--cyclic-gen", help="base cyclic generator polynomial")
    c.add_argument("--sigma", help="'cyclic', 'extended', or comma-separated images")
    c.add_argument("--charpoly", help="characteristic polynomial for the type2 transform")
    c.add_argument("--m", type=int)
    c.add_argument("--gens", help="semicolon-separated generator polynomials (qc)")
    c.add_argument("--out")
    c.set_defaults(func=_cmd_construct)

    pr = sub.add_parser("profile", help="print SBDH/SHDH and per-subset distances")
    pr.add_argument("--code", required=True)
    pr.add_argument("--m", type=int)
    pr.add_argument("--cap", type=int, default=None)
    pr.add_argument("--subsets", action="store_true")
    pr.set_defaults(func=_cmd_profile)

    b = sub.add_parser("bounds", help="print every applicable bound report")
    b.add_argument("--code", required=True)
    b.add_argument("--m", type=int)
    b.add_argument("--cap", type=int, default=None)
    b.set_defaults(func=_cmd_bounds)

    v = sub.add_parser("verify-table", help="verify the bundled code table")
    v.add_argument("--file", default=None, help="table CSV (default: bundled)")
    v.add_argument("--cap", type=int, default=26)
    v.add_argument("--long-run", action="store_true", help="ignore the cap")
    v.add_argument("--threads", type=int, default=1)
    v.add_argument("--rows", help="comma-separated row numbers to verify")
    v.set_defaults(func=_cmd_verify_table)

    s = sub.add_parser("simulate", help="run a FER simulation from a config file")
    s.add_argument("--config", required=True)
    s.add_argument("--out")
    s.add_argument("--threads", type=int, default=1)
    s.set_defaults(func=_cmd_simulate)

    se = sub.add_parser("search", help="seeded search for two-block QC codes")
    se.add_argument("--n", type=int, required=True)
    se.add_argument("--k", type=int, required=True)
    se.add_argument("--budget", type=int, required=True)
    se.add_argument("--seed", type=int, required=True)
    se.add_argument("--m", type=int, default=2)
    se.add_argument("--cap", type=int, default=None)
    se.set_defaults(func=_cmd_search)

    d = sub.add_parser("demo-example1", help="worked Golay demonstration end to end")
    d.add_argument("--frames", type=int, default=2000)
    d.add_argument("--seed", type=int, default=1)
    d.add_argument("--snr-db", type=float, default=-5.0)
    d.add_argument("--threads", type=int, default=1)
    d.add_argument("--out")
    d.set_defaults(func=_cmd_demo)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DimensionCapError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
