"""Reference forms of what the package computes with tables and arrays,
worked out one value or one element at a time, for the tests to compare
against, and the CyclotomicNumber forms of class functions (built from
values, read back as values).  No check of `verify` runs them, so they live
with the tests.  The cache entry format is also written out here on its own,
with the faults that its reader must refuse.
"""

import json
import zlib
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from redchar.chartable import ClassFunction, _packed_context, restriction_gather
from redchar.cyclotomic import CyclotomicNumber, euler_phi, power_matrix, zeta
from redchar.dl import SemisimpleClassLabel, lusztig_series
from redchar.groups import _orbit_minima


def galois(x: CyclotomicNumber, k: int) -> CyclotomicNumber:
    """x under zeta_e -> zeta_e^k, term by term, for k coprime to the conductor e."""
    e = x.conductor
    if gcd(k, e) != 1:
        raise ValueError(f"exponent {k} is not coprime to conductor {e}")
    terms = (c * zeta(e, i * k) for i, c in enumerate(x.num) if c)
    return sum(terms, CyclotomicNumber.zero()) * Fraction(1, x.den)


def conjugate(x: CyclotomicNumber) -> CyclotomicNumber:
    """The complex conjugate: zeta_e -> zeta_e^-1."""
    return galois(x, -1)


def bmm(tab, a, b):
    """Batched matrix multiply of code arrays with shapes (..., n, n), entry
    by entry through the field's multiplication and addition tables."""
    n = a.shape[-1]
    acc = None
    for j in range(n):
        term = tab.mul[a[..., :, j][..., :, None], b[..., j, :][..., None, :]]
        acc = term if acc is None else tab.add[acc, term]
    return acc


def mul_idx(group, i: int, j: int) -> int:
    """The index of the product of elements i and j, from their matrices."""
    prod = bmm(group.tables, group.matrices(i)[None], group.matrices(j)[None])
    return int(group.lookup(prod)[0])


def element_order(group, i: int) -> int:
    """The order of element i, by repeated multiplication."""
    out, m = i, 1
    while out != group.identity_idx:
        out = mul_idx(group, out, i)
        m += 1
    return m


def generates(group, gens) -> bool:
    """Whether the elements `gens` generate the group: the orbits of the
    right multiplications x -> x g are the cosets x H of the subgroup H they
    generate, so one orbit means H = G."""
    rights = [group.right_mul(group.matrices(g)) for g in gens]
    return not _orbit_minima(rights, group.order).any()


def borel_indices(group) -> np.ndarray:
    """The indices of the upper triangular elements, read off their matrices."""
    below = np.tril(np.ones((group.n, group.n), dtype=bool), -1)
    return np.flatnonzero(~group.matrices(np.arange(group.order))[:, below].any(axis=1))


def is_central(label: SemisimpleClassLabel) -> bool:
    """Whether the label is one eigenvalue in F_q^x, a central class."""
    return len(label.orbits) == 1 and label.orbits[0][0][0] == 1


def unipotent_series(ctx):
    """The Lusztig series of the identity: eigenvalue 1 with multiplicity n."""
    ident = SemisimpleClassLabel(ctx.q, ((ctx.tower.orbit_key(1, 0), ctx.n),))
    return next(s for s in lusztig_series(ctx) if s.label == ident)


@lru_cache(maxsize=None)
def descent(e: int, c: int) -> np.ndarray:
    """The (phi(e), phi(c)) matrix taking coordinates over zeta_e of an
    element of Q(zeta_c), c | e, to its coordinates over zeta_c.

    With e = e0 t, t the part of e prime to c, and u t + v e0 = 1:
    zeta_e^k = zeta_e0^(k u) zeta_t^(k v), the products zeta_e0^a zeta_t^b
    are a basis in which Q(zeta_e0) has only b = 0 terms, and zeta_c^i
    is zeta_e0^(i e0 / c) in the power basis of zeta_e0 (same primes).
    """
    e0 = gcd(e, c ** e.bit_length())
    t = e // e0
    u = pow(t, -1, e0)
    k = np.arange(euler_phi(e))
    low = power_matrix(e0)[k * u % e0][:, :: e0 // c]
    high = power_matrix(t)[k * ((1 - u * t) // e0) % t, 0]
    out = low * high[:, None]
    out.flags.writeable = False
    return out


def coordinates(v: CyclotomicNumber, m: int) -> list[int]:
    """v's numerator over the power basis of zeta_m; a ValueError when v does
    not lie in Q(zeta_m)."""
    if m % v.conductor == 0:
        return list(v.lift(m).num)
    big = lcm(m, v.conductor)
    num = (np.array([v.lift(big).num], dtype=object) @ descent(big, m))[0].tolist()
    if CyclotomicNumber(m, num, v.den) != v:
        raise ValueError(f"the value {v} does not lie in Q(zeta_{m})")
    return num


def class_function(group, values) -> ClassFunction:
    """The class function with these values (CyclotomicNumbers or
    rationals), one per class; the value at a class of order m must lie in
    Q(zeta_m) (ValueError)."""
    ctx = _packed_context(group)
    if len(values) != ctx.n_classes:
        raise ValueError("one value per conjugacy class required")
    values = [v if isinstance(v, CyclotomicNumber) else CyclotomicNumber.from_rational(v) for v in values]
    den = lcm(*(v.den for v in values))
    orders = ctx.class_orders.tolist()
    flat = [
        c * (den // values[k].den)
        for k in ctx.flat_classes.tolist()
        for c in coordinates(values[k], orders[k])
    ]
    return ClassFunction(group, np.array(flat, dtype=object), den)


def values(f: ClassFunction) -> list[CyclotomicNumber]:
    """f's value at each class, a CyclotomicNumber at the class's order."""
    ctx = _packed_context(f.group)
    flat = f.flat.tolist()
    return [
        CyclotomicNumber(m, flat[a : a + n], f.den)
        for m, a, n in zip(ctx.class_orders.tolist(), ctx.row_start.tolist(), ctx.row_len.tolist())
    ]


def restrict_between_groups(f: ClassFunction, subgroup) -> ClassFunction:
    """Restriction of one class function to a subgroup (same field)."""
    return ClassFunction(subgroup, f.flat[restriction_gather(subgroup, f.group)], f.den)


def table_json(table) -> dict:
    """The JSON form in which the cache once stored a table (the flat rows as
    lists of ints), kept so that the recorded table digests stay comparable."""
    data = table.group.conjugacy()
    return {
        "group": str(table.group.spec),
        "exponent": data.exponent,
        "ell": table.modular.ell,
        "zeta_mod": table.modular.zeta_mod,
        "class_sizes": [int(s) for s in data.sizes],
        "class_orders": list(data.orders),
        "degrees": table.degrees,
        "rows": table.rows.tolist(),
    }


# ---------------------------------------------------------------------------
# cache entries: a header line, a raw block and the CRC-32 of the two
# ---------------------------------------------------------------------------


def entry_parts(raw: bytes) -> tuple[dict, bytes]:
    """The header and the block bytes of a cache entry, its CRC dropped."""
    end = raw.index(b"\n")
    return json.loads(raw[:end]), raw[end + 1 : -4]


def entry_bytes(header: dict, block: bytes, separators=(",", ":")) -> bytes:
    """The cache entry of this header and block, with their CRC-32."""
    body = json.dumps(header, sort_keys=True, separators=separators).encode() + b"\n" + block
    return body + zlib.crc32(body).to_bytes(4, "little")


def _edited(edit):
    """A fault that edits the header and the block and recomputes the CRC."""

    def fault(raw: bytes) -> bytes:
        header, block = entry_parts(raw)
        return entry_bytes(*edit(header, block))

    return fault


def _field(key, change):
    def edit(header, block):
        header[key] = change(header[key])
        return header, block

    return _edited(edit)


def _stored_as(dtype):
    """The block's values stored in another type, with a matching length."""

    def edit(header, block):
        values = np.frombuffer(block, header["dtype"])
        header["dtype"] = np.dtype(dtype).str
        return header, values.astype(dtype).tobytes()

    return _edited(edit)


def _reshaped(rows: int, cols: int):
    """The block cut or zero-padded by rows and columns, its shape to match."""

    def edit(header, block):
        r, c = header["shape"]
        old = np.frombuffer(block, header["dtype"]).reshape(r, c)
        new = np.zeros((r + rows, c + cols), old.dtype)
        new[: min(r, r + rows), : min(c, c + cols)] = old[: r + rows, : c + cols]
        header["shape"] = list(new.shape)
        return header, new.tobytes()

    return _edited(edit)


def _flipped(raw: bytes) -> bytes:
    """One byte in the middle of the block flipped, the CRC left as it was."""
    i = (raw.index(b"\n") + len(raw)) // 2
    return raw[:i] + bytes([raw[i] ^ 0x40]) + raw[i + 1 :]


def _second_changed(change):
    return lambda values: values[:1] + [change(values[1])] + values[2:]


# fault id -> (entry bytes -> corrupt entry bytes, what the refusal says)
ENTRY_FAULTS = {
    "truncated-block": (_edited(lambda h, b: (h, b[:-1])), "length disagrees"),
    "extra-byte": (_edited(lambda h, b: (h, b + b"\0")), "length disagrees"),
    "flipped-byte": (_flipped, "CRC-32"),
    "float": (_stored_as(np.float64), "unknown block dtype"),
    "bool": (_stored_as(np.bool_), "unknown block dtype"),
    "unsigned": (_stored_as(np.uint64), "unknown block dtype"),
    "long-row": (_reshaped(0, 1), "table layout"),
    "short-row": (_reshaped(0, -1), "table layout"),
    "missing-row": (_reshaped(-1, 0), "table layout"),
    "nested-entry": (_field("shape", lambda s: [s[0], [s[1]]]), "not two sizes"),
    "nested-row": (_field("shape", lambda s: [s]), "not two sizes"),
    "other-group": (_field("key", lambda k: {**k, "spec": "GL2(4)"}), "not this entry's"),
    "other-version": (_field("key", lambda k: {**k, "version": "2"}), "not this entry's"),
    "class-orders": (_field("class_orders", _second_changed(lambda m: m + 1)), "class_orders"),
    "class-sizes": (_field("class_sizes", _second_changed(lambda s: s + 1)), "class_sizes"),
    "float-prime": (_field("ell", float), "ell"),
    "above-int64": (_field("ell", lambda ell: ell + (1 << 63)), "ell"),
    "below-int64": (_field("class_sizes", _second_changed(lambda s: s - (1 << 63) - 1)), "class_sizes"),
    "string": (_field("ell", str), "ell"),
    "float-equal-to-an-int": (_field("degrees", lambda d: [float(d[0])] + d[1:]), "degrees"),
    "degrees": (_field("degrees", _second_changed(lambda d: d + 1)), "degrees"),
}
