"""Catalog of two-block quasi-cyclic Type-II codes: hex codec, verification,
and seeded search for new entries.

Generator polynomials are stored as hex nibble strings: the ascending
coefficient vector (c_0, ..., c_D) is left-padded with 0-3 zeros to a
multiple of four bits and read MSB-first per nibble, so x^5+x^4+x^3+x+1 =
(1,1,0,1,1,1) pads to (0,0,1,1,0,1,1,1) and prints as "37".

Decoding is ambiguous when the printed bits begin with zeros: stripping r
of them multiplies the polynomial by x^-r, which preserves the dimension,
the per-block distances and the joint Hamming distance but moves the blocks
relative to each other and so can change the joint block distance.  The
verifier therefore searches the small space of consistent interpretations
and reports the one reproducing the listed values, or flags the row as
undecodable as printed.
"""

from __future__ import annotations

import csv
import importlib.resources as resources
import random
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import kernels
from .fields import Field, field_create
from .grc import GrcCode, distance_profile, from_qc_generators
from .poly import Poly, factor_xn_minus_1, poly_gcd, poly_gcd_many

__all__ = [
    "CodeTableEntry",
    "load_table",
    "hex_decode",
    "hex_decode_candidates",
    "hex_encode",
    "verify_entry",
    "EntryReport",
    "verify_table",
    "search_qc_type2",
    "SearchCandidate",
]

VERIFY_CAP = 26
_COLUMNS = ("no", "n", "k", "g1_hex", "g2_hex", "d1", "d2", "ud2")


@dataclass(frozen=True)
class CodeTableEntry:
    no: int
    n: int
    k: int
    g1_hex: str
    g2_hex: str
    d1: int
    d2: int
    ud2: int

    m: int = 2


def load_table(path: str | None = None) -> list[CodeTableEntry]:
    """Load the bundled table (or a CSV file with the same columns)."""
    if path is None:
        src = resources.files("grclib").joinpath("data/table2.csv")
        text = src.read_text()
    else:
        with open(path) as f:
            text = f.read()
    reader = csv.DictReader(text.splitlines())
    missing = [c for c in _COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"table CSV has no column {', '.join(missing)}")
    out = []
    for rec in reader:
        if any(rec[c] is None for c in _COLUMNS):
            raise ValueError(f"table CSV line {reader.line_num} has too few fields")
        out.append(
            CodeTableEntry(
                no=int(rec["no"]),
                n=int(rec["n"]),
                k=int(rec["k"]),
                g1_hex=rec["g1_hex"].strip().upper(),
                g2_hex=rec["g2_hex"].strip().upper(),
                d1=int(rec["d1"]),
                d2=int(rec["d2"]),
                ud2=int(rec["ud2"]),
            )
        )
    return out


# ---------------------------------------------------------------------------
# hex codec


def _nibbles_to_bits(nibbles: str) -> list[int]:
    nibbles = nibbles.replace(",", "").replace(" ", "").upper()
    if not nibbles or any(c not in "0123456789ABCDEF" for c in nibbles):
        raise ValueError(f"invalid hex nibbles: {nibbles!r}")
    bits = []
    for c in nibbles:
        v = int(c, 16)
        bits.extend(((v >> 3) & 1, (v >> 2) & 1, (v >> 1) & 1, v & 1))
    return bits


def hex_decode_candidates(nibbles: str, field: Field | None = None) -> list[tuple[int, Poly]]:
    """All (pad, poly) readings: pad leading zeros stripped, pad in [0, 3].

    Candidates are x-shifts of one another; larger pad means lower degree.
    """
    field = field or field_create(2)
    bits = _nibbles_to_bits(nibbles)
    out = []
    for pad in range(4):
        if pad > 0 and (pad > len(bits) or bits[pad - 1] != 0):
            break
        coeffs = bits[pad:]
        p = Poly.from_coeffs(field, coeffs)
        if not p.is_zero():
            out.append((pad, p))
    return out


def hex_decode(
    nibbles: str,
    n: int | None = None,
    *,
    field: Field | None = None,
    degree: int | None = None,
    expected_k: int | None = None,
) -> Poly:
    """Decode one polynomial, disambiguating the pad by degree or by the
    dimension n - deg(gcd(p, x^n - 1)) of its cyclic code."""
    field = field or field_create(2)
    cands = hex_decode_candidates(nibbles, field)
    if not cands:
        raise ValueError("nibbles decode to the zero polynomial")
    if degree is not None:
        cands = [(r, p) for r, p in cands if p.degree == degree]
    if expected_k is not None:
        if n is None:
            raise ValueError("expected_k needs the length n")
        xn1 = Poly.xn_minus_1(field, n)
        cands = [
            (r, p) for r, p in cands if n - poly_gcd(p % xn1, xn1).degree == expected_k
        ]
    if not cands:
        raise ValueError("no interpretation matches the given constraints")
    if degree is None and len({p.degree for _, p in cands}) > 1:
        raise ValueError(
            "ambiguous padding; pass degree= or expected_k= to disambiguate"
        )
    return cands[0][1]


def hex_encode(poly: Poly) -> str:
    """Ascending coefficients, left-padded to a nibble boundary, MSB-first."""
    if poly.is_zero():
        return "0"
    if any(c not in (0, 1) for c in poly.coeffs):
        raise ValueError("hex encoding is defined for binary polynomials")
    bits = list(poly.coeffs)
    pad = (-len(bits)) % 4
    bits = [0] * pad + bits
    out = []
    for i in range(0, len(bits), 4):
        v = bits[i] << 3 | bits[i + 1] << 2 | bits[i + 2] << 1 | bits[i + 3]
        out.append("0123456789ABCDEF"[v])
    return "".join(out)


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class EntryReport:
    """Verdict on one catalog row.

    ``attempted`` holds one line per hex interpretation tried, in order,
    ``"<tag> pads <p1>/<p2>: <values>"``.  Values are exact distances,
    ``d1=15 d2=23 ud2=31``, when the interpretation was swept in full.  An
    interpretation whose sweep stopped at a codeword below a listed distance
    names that witness instead, as an upper bound and the listed value:
    ``d2<=13 (listed 14)``, with several joined by ``", "``.  Only a
    verified row keeps such lines; on a mismatch or undecodable row every
    line is exact.
    """

    entry: CodeTableEntry
    status: str  # verified | mismatch | undecodable | skipped
    computed_d1: int | None = None
    computed_d2: int | None = None
    computed_ud2: int | None = None
    chosen_pads: tuple[int, int] | None = None
    attempted: tuple[str, ...] = ()
    note: str = ""
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "verified"

    def csv_row(self) -> str:
        pads = f"{self.chosen_pads[0]}/{self.chosen_pads[1]}" if self.chosen_pads else ""
        return ",".join(
            str(x)
            for x in (
                self.entry.no,
                self.entry.n,
                self.entry.k,
                self.status,
                self.entry.d1,
                self.computed_d1 if self.computed_d1 is not None else "",
                self.entry.d2,
                self.computed_d2 if self.computed_d2 is not None else "",
                self.entry.ud2,
                self.computed_ud2 if self.computed_ud2 is not None else "",
                pads,
                self.note.replace(",", ";"),
                f"{self.elapsed:.2f}",
            )
        )

    CSV_HEADER = (
        "no,n,k,status,d1_listed,d1_computed,d2_listed,d2_computed,"
        "ud2_listed,ud2_computed,pads,note,elapsed_s"
    )


def _alignments(c1: list[tuple[int, Poly]], c2: list[tuple[int, Poly]]):
    """Pad choices up to a global cyclic factor.

    Only the relative shift between the two readings changes the code, so
    we enumerate one representative pair per shift, nearest-to-zero first.
    """
    max1 = max(r for r, _ in c1)
    max2 = max(r for r, _ in c2)
    base1 = next(p for r, p in c1 if r == max1)
    base2 = next(p for r, p in c2 if r == max2)
    shifts = sorted(range(-max2, max1 + 1), key=lambda a: (abs(a), -a))
    for a in shifts:
        p1 = base1.shift(max(a, 0))
        p2 = base2.shift(max(-a, 0))
        pads = (max1 - max(a, 0), max2 - max(-a, 0))
        yield pads, p1, p2


def _interpretations(entry: CodeTableEntry, field: Field):
    """Candidate generator pairs consistent with the listed dimension.

    Two printing conventions appear in the wild and both are searched:
    'joint' reads each string as a full block generator f_i(x) g(x);
    'cof2'/'cof1' read one string as the bare cofactor f_i(x), to be
    multiplied by the g(x) recovered from the other block.
    """
    xn1 = Poly.xn_minus_1(field, entry.n)
    c1 = hex_decode_candidates(entry.g1_hex, field)
    c2 = hex_decode_candidates(entry.g2_hex, field)
    seen: set[tuple] = set()
    for pads, p1, p2 in _alignments(c1, c2):
        p1r, p2r = p1 % xn1, p2 % xn1
        if p1r.is_zero() or p2r.is_zero():
            continue
        cands: list[tuple[str, Poly, Poly]] = []
        if entry.n - poly_gcd_many([p1r, p2r, xn1]).degree == entry.k:
            cands.append(("joint", p1r, p2r))
        g1 = poly_gcd(p1r, xn1)
        if entry.n - g1.degree == entry.k:
            cands.append(("cof2", p1r, (p2 * g1) % xn1))
        g2 = poly_gcd(p2r, xn1)
        if entry.n - g2.degree == entry.k:
            cands.append(("cof1", (p1 * g2) % xn1, p2r))
        for tag, a, b in cands:
            key = (a.coeffs, b.coeffs)
            if key not in seen:
                seen.add(key)
                yield tag, pads, a, b


def _triple(
    grc: GrcCode, cap: int | None, listed: tuple[int, int, int] | None = None
) -> tuple[int, int, int]:
    """(d1, d2, ud2) of a two-block code.  Given the ``listed`` triple, the
    sweep stops at the first codeword below a listed value, so a triple with
    some value below ``listed`` is an upper bound; any other is exact."""
    floor = None
    if listed is not None:
        d1, d2, ud2 = listed
        floor = ([0, d1, d1, d2], [0, d1, d1, ud2])
    bm, hm = kernels.subset_minima(grc.field, grc.gen.rows(), grc.m, cap=cap, floor=floor)
    return min(int(bm[1]), int(bm[2])), int(bm[3]), int(hm[3])


def _witnesses(triple: tuple[int, int, int], listed: tuple[int, int, int]) -> list[str]:
    """The values of a floored ``_triple`` below their listed ones, as
    bounds; the sweep ran to the end, and ``triple`` is exact, iff none."""
    return [
        f"{name}<={v} (listed {want})"
        for name, v, want in zip(("d1", "d2", "ud2"), triple, listed)
        if v < want
    ]


def _attempt_line(tag: str, pads: tuple[int, int], triple, witnesses=()) -> str:
    values = ", ".join(witnesses) or "d1={} d2={} ud2={}".format(*triple)
    return f"{tag} pads {pads[0]}/{pads[1]}: {values}"


def verify_entry(
    entry: CodeTableEntry, *, cap: int | None = VERIFY_CAP
) -> EntryReport:
    """Rebuild the entry's code from the hex pair and compare all three
    listed distances, searching consistent hex interpretations.

    An interpretation's sweep stops at its first codeword below a listed
    distance.  If no interpretation verifies, those stopped early are swept
    again in full, so a mismatch reports exact distances.
    """
    t0 = time.monotonic()
    field = field_create(2)
    if cap is not None and entry.k > cap:
        return EntryReport(entry, "skipped", note=f"dimension above cap {cap}")
    try:
        candidates = list(_interpretations(entry, field))
    except ValueError as exc:
        return EntryReport(entry, "undecodable", note=str(exc))
    if not candidates:
        return EntryReport(
            entry,
            "undecodable",
            note="no interpretation matches the listed dimension",
            elapsed=time.monotonic() - t0,
        )
    listed = (entry.d1, entry.d2, entry.ud2)
    attempted: list[str] = []
    tried = []
    for tag, pads, a, b in candidates:
        grc = from_qc_generators(entry.n, [a, b])
        triple = _triple(grc, cap, listed)
        witnesses = _witnesses(triple, listed)
        attempted.append(_attempt_line(tag, pads, triple, witnesses))
        if triple == listed:
            d1, d2, ud2 = triple
            return EntryReport(
                entry,
                "verified",
                computed_d1=d1,
                computed_d2=d2,
                computed_ud2=ud2,
                chosen_pads=pads,
                attempted=tuple(attempted),
                note=tag,
                elapsed=time.monotonic() - t0,
            )
        tried.append((tag, pads, grc, None if witnesses else triple))
    attempted = []
    closest: tuple[int, int, int] | None = None
    for tag, pads, grc, triple in tried:
        triple = triple or _triple(grc, cap)  # bounds are swept again, in full
        attempted.append(_attempt_line(tag, pads, triple))
        if closest is None or triple[0] == entry.d1:
            closest = triple
    d1, d2, ud2 = closest
    status = "mismatch" if d1 == entry.d1 else "undecodable"
    return EntryReport(
        entry,
        status,
        computed_d1=d1,
        computed_d2=d2,
        computed_ud2=ud2,
        attempted=tuple(attempted),
        note="listed (d1,d2,ud2) not reproduced by any interpretation",
        elapsed=time.monotonic() - t0,
    )


def verify_table(
    entries: Iterable[CodeTableEntry],
    *,
    cap: int | None = VERIFY_CAP,
    threads: int = 1,
) -> list[EntryReport]:
    entries = list(entries)
    if threads <= 1:
        return [verify_entry(e, cap=cap) for e in entries]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        reports = list(pool.map(lambda e: verify_entry(e, cap=cap), entries))
    return reports


# ---------------------------------------------------------------------------
# search


@dataclass(frozen=True)
class SearchCandidate:
    n: int
    g: Poly
    cofactors: tuple[Poly, ...]
    sbdh: tuple[int, ...]
    shdh: tuple[int, ...]

    @property
    def score(self) -> tuple[int, ...]:
        return self.sbdh + self.shdh


def _degree_subsets(degrees: Sequence[int], target: int) -> list[tuple[int, ...]]:
    """Index subsets of the factor list whose degrees sum to target."""
    out: list[tuple[int, ...]] = []

    def rec(i: int, remaining: int, chosen: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(chosen)
            return
        if i == len(degrees) or remaining < 0:
            return
        rec(i + 1, remaining - degrees[i], chosen + (i,))
        rec(i + 1, remaining, chosen)

    rec(0, target, ())
    return out


def _random_poly(rng: random.Random, field: Field, degree: int) -> Poly:
    coeffs = [rng.randrange(field.q) for _ in range(degree)] + [
        rng.randrange(1, field.q)
    ]
    return Poly.from_coeffs(field, coeffs)


def search_qc_type2(
    n: int,
    target_k: int,
    budget: int,
    seed: int,
    *,
    m: int = 2,
    field: Field | None = None,
    cap: int | None = None,
) -> list[SearchCandidate]:
    """Seeded random search over cofactor tuples meeting the QC Type-II
    preconditions; returns the Pareto-optimal profiles found."""
    field = field or field_create(2)
    xn1 = Poly.xn_minus_1(field, n)
    factors = [f for f, mult in factor_xn_minus_1(n, field) for _ in range(mult)]
    subsets = _degree_subsets([f.degree for f in factors], n - target_k)
    if not subsets:
        raise ValueError(f"no divisor of x^{n}-1 has degree {n - target_k}")
    g_choices = []
    seen = set()
    for idxs in subsets:
        g = Poly.one(field)
        for i in idxs:
            g = g * factors[i]
        if g.coeffs not in seen:
            seen.add(g.coeffs)
            g_choices.append(g.monic())
    g_choices.sort(key=lambda p: p.coeffs)

    rng = random.Random(seed)
    pareto: list[SearchCandidate] = []
    tried = 0
    while tried < budget:
        g = g_choices[tried % len(g_choices)]
        h = xn1 // g
        # strictly increasing degrees, each cofactor a unit mod h
        degs = sorted(rng.sample(range(n - 1), m))
        cofs = []
        for d in degs:
            f = _random_poly(rng, field, d)
            if poly_gcd(f, h).degree != 0:
                break
            cofs.append(f)
        tried += 1
        if len(cofs) != m:
            continue
        if poly_gcd_many(cofs + [xn1]).degree != 0:
            continue
        grc = from_qc_generators(n, [(f * g) % xn1 for f in cofs])
        if grc.k != target_k:
            continue
        try:
            prof = distance_profile(grc, cap=cap)
        except kernels.DimensionCapError:
            raise
        cand = SearchCandidate(n, g, tuple(cofs), prof.sbdh, prof.shdh)
        dominated = False
        for other in pareto:
            if _dominates(other.score, cand.score):
                dominated = True
                break
        if not dominated:
            pareto = [o for o in pareto if not _dominates(cand.score, o.score)]
            pareto.append(cand)
    pareto.sort(key=lambda c: c.score, reverse=True)
    return pareto


def _dominates(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x >= y for x, y in zip(a, b)) and a != b
