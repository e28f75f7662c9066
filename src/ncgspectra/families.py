"""The four group families, one record each: presentation, claimed graph, closed forms.

A `Family` record holds everything stated about one family: its parameter
bounds and label, its presentation, the claimed multipartition of its
non-commuting graph, the closed-form spectra of each `MatrixKind` (D, D^L
and D^Q), and the stated integrality conditions.  No other module branches
on the family.

Each group is presented by two generators a, b and every element has a unique
normal form a^i b^j with 0 <= i < oa, 0 <= j < ob.  A family states its
presentation as four numbers, `Presentation(oa, ob, s, r)`: a^oa = 1,
b^ob = a^s and b a = a^r b.  One product rule, `groups.normal_form_rule`,
reads every group from them:

* generalized quaternion Q_4n:  (2n, 2, n, -1): a^(2n) = 1, b^2 = a^n,
  b a = a^-1 b
* quasidihedral QD_2^n:         (2^(n-1), 2, 0, 2^(n-2)-1):
  a^(2^(n-1)) = b^2 = 1, b a b^-1 = a^(2^(n-2)-1)
* U_6n:                         (3, 2n, 0, -1): a^3 = b^(2n) = 1,
  b a b^-1 = a^-1; the paper's A^(2n) = B^3 = 1, A^-1 B A = B^-1 with the
  generators exchanged, through A^i B^j -> a^((-1)^i j mod 3) b^i
* metacyclic M_2mn:             (m, 2n, 0, -1): a^m = b^(2n) = 1,
  b a b^-1 = a^-1

The closed forms are transcribed exactly as stated, including forms suspected
of being misprints; the verifier, not this module, arbitrates each claim
against the characteristic-polynomial oracle.  Conjugate surd eigenvalue
pairs are raw `QuadraticEig` entries; `closedform.make_spectrum` normalizes
them.  The stated integrality conditions (`distance_core`, `t_quadratic`) are
separate claims, never derived from the closed forms, so that the integrality
search can find where the two disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Union

from .exactalg import QuadraticEig


class InvalidParameters(ValueError):
    """Group family parameters violate their bounds."""


class GroupElement(NamedTuple):
    a_exp: int
    b_exp: int

    def __repr__(self) -> str:
        return f"a{self.a_exp}b{self.b_exp}"


class MatrixKind(str, Enum):
    DISTANCE = "d"
    DISTANCE_LAPLACIAN = "dl"
    DISTANCE_SIGNLESS_LAPLACIAN = "dq"

    def __str__(self) -> str:
        return self.value


ALL_KINDS = (
    MatrixKind.DISTANCE,
    MatrixKind.DISTANCE_LAPLACIAN,
    MatrixKind.DISTANCE_SIGNLESS_LAPLACIAN,
)
D, DL, DQ = ALL_KINDS


EigDesc = Union[int, QuadraticEig]
RawSpectrum = list[tuple[EigDesc, int]]


class Presentation(NamedTuple):
    """a^oa = 1, b^ob = a^s and b a = a^r b, with normal forms a^i b^j.

    The product rule needs oa, ob >= 1, r^2 = 1 (mod oa), ob even unless
    r = 1, and s (r - 1) = 0 (mod oa), so that a^s is central.  r and s are
    read mod oa; `groups.normal_form_rule` raises ValueError naming the
    first of these that a tuple breaks.
    """

    oa: int
    ob: int
    s: int
    r: int


class Family(NamedTuple):
    """Everything stated about one family; each callable takes (n, m).

    `presentation` gives the group; `groups.FiniteGroup` reads its product
    rule, commutation masks and centre from it.
    `parts` gives the claimed non-commuting graph K_{b, s x k} as (b, s, k):
    one part of size b >= s and k parts of size s.  `closed_forms` maps each
    matrix kind to its raw closed-form spectrum.  `t_quadratic` is the
    quadratic satisfied by the scale t of the D^Q exceptional pair, or None
    where D^Q is stated to be integral for all parameters.  `distance_core`
    is the integer whose being a perfect square is the stated condition for
    an integral D spectrum.
    """

    min_n: int
    min_m: int | None  # None: the family takes no parameter m
    label: Callable[[int, int | None], str]
    presentation: Callable[[int, int | None], Presentation]
    parts: Callable[[int, int | None], tuple[int, int, int]]
    closed_forms: dict[MatrixKind, Callable[[int, int | None], RawSpectrum]]
    t_quadratic: Callable[[int, int | None], tuple[int, int, int] | None]
    distance_core: Callable[[int, int | None], int]


@dataclass(frozen=True)
class GroupSpec:
    """A family tag plus its parameters.  Prefer the named constructors."""

    family: str
    n: int
    m: int | None = None

    def __post_init__(self) -> None:
        f = self.family
        record = FAMILY_RECORDS.get(f)
        if record is None:
            raise InvalidParameters(f"unknown family {f!r}, expected one of {FAMILIES}")
        if record.min_m is None:
            if self.m is not None:
                raise InvalidParameters(f"family {f!r} takes no parameter m")
        elif self.m is None or self.m < record.min_m:
            raise InvalidParameters(f"{f} requires m >= {record.min_m}, got m={self.m}")
        if self.n < record.min_n:
            raise InvalidParameters(f"{f} requires n >= {record.min_n}, got n={self.n}")

    @staticmethod
    def q4n(n: int) -> "GroupSpec":
        return GroupSpec("q4n", n)

    @staticmethod
    def qd(n: int) -> "GroupSpec":
        return GroupSpec("qd", n)

    @staticmethod
    def u6n(n: int) -> "GroupSpec":
        return GroupSpec("u6n", n)

    @staticmethod
    def metacyclic(m: int, n: int) -> "GroupSpec":
        return GroupSpec("metacyclic", n, m)

    @property
    def record(self) -> Family:
        return FAMILY_RECORDS[self.family]

    def presentation(self) -> Presentation:
        return self.record.presentation(self.n, self.m)

    @property
    def order(self) -> int:
        p = self.presentation()
        return p.oa * p.ob

    def label(self) -> str:
        return self.record.label(self.n, self.m)

    def params(self) -> dict[str, int]:
        if self.m is None:
            return {"n": self.n}
        return {"m": self.m, "n": self.n}


def scaled_root_pair(
    tquad: tuple[int, int, int], scale: int, offset: int
) -> QuadraticEig:
    """Monic quadratic satisfied by scale*t + offset where qa*t^2 + qb*t + qc = 0.

    Eliminates t exactly: u = scale*t satisfies u^2 + b*u + c = 0 with
    b = qb*(scale/qa) and c = qc*(scale/qa)*scale.  Requires qa to divide
    scale, which holds for every family, and raises ArithmeticError otherwise
    (ZeroDivisionError for qa = 0).
    """
    qa, qb, qc = tquad
    k, rem = divmod(scale, qa)
    if rem:
        raise ArithmeticError(f"t's leading coefficient {qa} does not divide {scale}")
    b = qb * k
    c = qc * k * scale
    return QuadraticEig(2 * offset - b, offset * offset - b * offset + c)


# ------------------------------------------------------------------ Q_4n
# Graph K_{2n-2, 2 x n} of order 4n-2.  The D^Q exceptional eigenvalues are
# (2n-2)t + (6n-2) for the two roots t of (2n-2)x^2 + (10-4n)x - 2n = 0.

def _q4n_t(n: int, m: None) -> tuple[int, int, int]:
    return (2 * n - 2, 10 - 4 * n, -2 * n)


def _q4n_dq_with_offset(n: int, offset: int) -> RawSpectrum:
    return [
        (4 * n - 4, n),
        (6 * n - 8, 2 * n - 3),
        (4 * n - 2, n - 1),
        (scaled_root_pair(_q4n_t(n, None), 2 * n - 2, offset), 1),
    ]


Q4N_FAMILY = Family(
    min_n=2,
    min_m=None,
    label=lambda n, m: f"Q_{4 * n}",
    presentation=lambda n, m: Presentation(2 * n, 2, n, -1),
    parts=lambda n, m: (2 * n - 2, 2, n),
    closed_forms={
        D: lambda n, m: [
            (-2, 3 * n - 3),
            (0, n - 1),
            (QuadraticEig(6 * (n - 1), 4 * n * (n - 2)), 1),
        ],
        DL: lambda n, m: [(0, 1), (4 * n - 2, n), (4 * n, n), (6 * n - 4, 2 * n - 3)],
        DQ: lambda n, m: _q4n_dq_with_offset(n, 6 * n - 2),
    },
    t_quadratic=_q4n_t,
    distance_core=lambda n, m: 5 * n * n - 10 * n + 9,
)


# ---------------------------------------------------------------- QD_2^n
# Graph K_{2^(n-1)-2, 2 x 2^(n-2)}: the graph of Q_4n at n = q = 2^(n-2).
# Every stated form and condition equals the Q_4n one at n = q, except the
# D^Q offset, taken as printed: 3*(2^(n-1)-2) = 6q-6 where Q_4n has 6q-2.
# The verifier arbitrates that constant.

def _at_quarter(q4n_form: Callable) -> Callable:
    """The Q_4n form evaluated at n = 2^(n-2), as a QD_2^n form."""
    return lambda n, m: q4n_form(2 ** (n - 2), m)


QD_FAMILY = Family(
    min_n=4,
    min_m=None,
    label=lambda n, m: f"QD_{2 ** n}",
    presentation=lambda n, m: Presentation(2 ** (n - 1), 2, 0, 2 ** (n - 2) - 1),
    parts=_at_quarter(Q4N_FAMILY.parts),
    closed_forms={
        D: _at_quarter(Q4N_FAMILY.closed_forms[D]),
        DL: _at_quarter(Q4N_FAMILY.closed_forms[DL]),
        DQ: lambda n, m: _q4n_dq_with_offset(2 ** (n - 2), 3 * (2 ** (n - 1) - 2)),
    },
    t_quadratic=_at_quarter(_q4n_t),
    distance_core=_at_quarter(Q4N_FAMILY.distance_core),
)


# ------------------------------------------------------------------ U_6n
# Graph K_{2n, n, n, n} of order 5n; D^Q is stated integral for all n.  The
# group is M_2mn at m = 3, and so are its stated forms.

U6N_FAMILY = Family(
    min_n=1,
    min_m=None,
    label=lambda n, m: f"U_{6 * n}",
    presentation=lambda n, m: Presentation(3, 2 * n, 0, -1),
    parts=lambda n, m: (2 * n, n, 3),
    closed_forms={
        D: lambda n, m: [
            (-2, 5 * n - 4),
            (n - 2, 2),
            (QuadraticEig(8 * n - 4, (4 * n - 2) ** 2 - 6 * n * n), 1),
        ],
        DL: lambda n, m: [(0, 1), (5 * n, 3), (6 * n, 3 * (n - 1)), (7 * n, 2 * n - 1)],
        DQ: lambda n, m: [
            (6 * n - 4, 3 * (n - 1)),
            (7 * n - 4, 2 * n + 1),
            (8 * n - 4, 1),
            (13 * n - 4, 1),
        ],
    },
    t_quadratic=lambda n, m: None,
    distance_core=lambda n, m: 6 * n * n,
)


# ----------------------------------------------------------------- M_2mn
# Graph K_{(m-1)n, n x m} for odd m and K_{(m-2)n, 2n x m/2} for even m; the
# even-m graph is the odd-m one at (n, m) = (2n, m/2), and so are the stated
# even-m D and D^L forms, which are evaluated there.  For D^Q the even case
# further splits at m = 4, where all parts coincide in size and D^Q is
# stated integral for all n.  The quadratics defining the D^Q exceptional
# eigenvalues are read with middle terms (2m-5)x and 2(m-5)x respectively;
# the verifier arbitrates those readings.

def _even_m_at_odd(odd_m_form: Callable) -> Callable:
    """An odd-m M_2mn form, evaluated at (2n, m/2) when m is even."""
    return lambda n, m: odd_m_form(n, m) if m % 2 else odd_m_form(2 * n, m // 2)


def _metacyclic_t(n: int, m: int) -> tuple[int, int, int] | None:
    if m % 2:
        return (m - 1, -(2 * m - 5), -m)
    if m > 4:
        return (m - 2, -2 * (m - 5), -m)
    return None


def _metacyclic_d(n: int, m: int) -> RawSpectrum:
    s = 3 * m * n - n - 4
    num = s * s - n * n * (5 * m * m - 10 * m + 9)
    if num % 4:
        raise ArithmeticError("distance pair product is not integral")
    return [
        (-2, 2 * m * n - (m + n) - 1),
        (n - 2, m - 1),
        (QuadraticEig(s, num // 4), 1),
    ]


def _metacyclic_dl(n: int, m: int) -> RawSpectrum:
    return [
        (0, 1),
        (n * (2 * m - 1), m),
        (2 * m * n, m * (n - 1)),
        ((3 * m - 2) * n, (m - 1) * n - 1),
    ]


def _metacyclic_dq(n: int, m: int) -> RawSpectrum:
    tquad = _metacyclic_t(n, m)
    if m % 2:
        return [
            (2 * m * n - 4, m * (n - 1)),
            ((2 * m + 1) * n - 4, m - 1),
            ((3 * m - 2) * n - 4, (m - 1) * n - 1),
            (scaled_root_pair(tquad, n * (m - 1), 3 * m * n + n - 4), 1),
        ]
    if tquad is None:
        return [(8 * n - 4, 3 * (2 * n - 1)), (10 * n - 4, 2), (16 * n - 4, 1)]
    half = m // 2
    return [
        (3 * m * n - 4 * n - 4, (m - 2) * n - 1),
        (4 * m * n - 4 * n - 4, (2 * n - 1) * half),
        (2 * m * n - 4, half - 1),
        (scaled_root_pair(tquad, n * (m - 2), 3 * m * n + 2 * n - 4), 1),
    ]


def _metacyclic_core(n: int, m: int) -> int:
    if m % 2:
        return 5 * m * m - 10 * m + 9
    return 5 * m * m - 20 * m + 36


METACYCLIC_FAMILY = Family(
    min_n=1,
    min_m=3,
    label=lambda n, m: f"M_{2 * m * n}",
    presentation=lambda n, m: Presentation(m, 2 * n, 0, -1),
    parts=_even_m_at_odd(lambda n, m: ((m - 1) * n, n, m)),
    closed_forms={
        D: _even_m_at_odd(_metacyclic_d),
        DL: _even_m_at_odd(_metacyclic_dl),
        DQ: _metacyclic_dq,
    },
    t_quadratic=_metacyclic_t,
    distance_core=_metacyclic_core,
)


FAMILY_RECORDS = {
    "q4n": Q4N_FAMILY,
    "qd": QD_FAMILY,
    "u6n": U6N_FAMILY,
    "metacyclic": METACYCLIC_FAMILY,
}
FAMILIES = tuple(FAMILY_RECORDS)
