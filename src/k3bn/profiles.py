"""Decomposition profiles: the numeric case analysis on squares and pairwise products.

A profile records the squares of the parts of an n-part decomposition
H = D_1 + ... + D_n and their pairwise products, and nothing of the lattice.
At this level a certificate is a partial-sum sketch: a split of the index
set whose chi-level or h^0-level lower bounds multiply to more than the
genus.  Sketches are verified on construction, never trusted.

``_first_partition_certificate`` is the split search that
``bn.classify_multi_decomposition`` runs.  The module needs only ``errors``
and the standard library, and only ``classify`` loads it.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .errors import Frozen, InputError, is_int


class DecompositionProfile(Frozen):
    """Numeric shadow of a decomposition H = D_1 + ... + D_n.

    ``sq[i]`` is the (even) square of the i-th part and ``x[i][j]`` the
    pairwise product for i != j; the diagonal of ``x`` is zero.  The square
    of H and the genus are derived, never stored.  Construction raises one
    InputError listing every violation.
    """

    __slots__ = ("sq", "x")

    def __init__(self, sq: tuple[int, ...], x: tuple[tuple[int, ...], ...]) -> None:
        self._init(sq, x)

    def __post_init__(self) -> None:
        sq = tuple(self.sq)
        x = tuple(tuple(row) for row in self.x)
        n = len(sq)
        bad = ["a decomposition profile needs at least two parts"] if n < 2 else []
        for i, s in enumerate(sq):
            if not is_int(s):
                bad.append(f"sq[{i}] is not an integer")
            elif s % 2 != 0:
                bad.append(f"sq[{i}] = {s} is odd; squares in an even lattice are even")
        if len(x) != n or any(len(row) != n for row in x):
            bad.append(f"x must be an {n}x{n} matrix")
        else:
            for i in range(n):
                bad += [f"x[{i}][{j}] is not an integer" for j in range(n) if not is_int(x[i][j])]
                if x[i][i] != 0:
                    bad.append(f"x[{i}][{i}] must be zero")
                bad += [f"x is not symmetric at ({i}, {j})" for j in range(i + 1, n) if x[i][j] != x[j][i]]
        if bad:
            raise InputError(*bad)
        object.__setattr__(self, "sq", sq)
        object.__setattr__(self, "x", x)

    @classmethod
    def from_upper(cls, sq: Sequence[int], upper: Sequence[int]) -> "DecompositionProfile":
        """Build from the upper triangle listed row-major: x01, x02, ..., x12, ..."""
        n = len(sq)
        expected = n * (n - 1) // 2
        if len(upper) != expected:
            raise InputError(f"expected {expected} upper-triangle entries, got {len(upper)}")
        mat = [[0] * n for _ in range(n)]
        it = iter(upper)
        for i in range(n):
            for j in range(i + 1, n):
                v = next(it)
                mat[i][j] = mat[j][i] = v
        return cls(tuple(sq), tuple(tuple(row) for row in mat))

    @property
    def n(self) -> int:
        return len(self.sq)

    @property
    def h_square(self) -> int:
        n = self.n
        return sum(self.sq) + 2 * sum(self.x[i][j] for i in range(n) for j in range(i + 1, n))

    @property
    def genus(self) -> int:
        return self.h_square // 2 + 1

    def group_square(self, members: Sequence[int]) -> int:
        ms = tuple(members)
        total = sum(self.sq[i] for i in ms)
        for a in range(len(ms)):
            for b in range(a + 1, len(ms)):
                total += 2 * self.x[ms[a]][ms[b]]
        return total

    def group_chi(self, members: Sequence[int]) -> int:
        return self.group_square(members) // 2 + 2

    def group_h0_floor(self, members: Sequence[int]) -> int:
        """Sound h^0 lower bound for the partial sum: max(chi, 1).

        A sum of effective nonzero classes is effective and nonzero, so its
        h^0 is at least 1 and at least its chi.
        """
        return max(self.group_chi(members), 1)

    def splits(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        """All unordered splits into two nonempty groups; part 0 stays left.

        Lazily, smallest left group first, then in lexicographic order.
        """
        n = self.n
        for k in range(n - 1):
            for chosen in itertools.combinations(range(1, n), k):
                yield (0, *chosen), tuple(i for i in range(1, n) if i not in chosen)


class CertificateSketch(Frozen):
    """Profile-level certificate: a split whose chi-level bounds beat the genus."""

    __slots__ = ("lb1", "lb2", "genus", "split", "group", "complement", "detail")

    def __init__(
        self,
        lb1: int,
        lb2: int,
        genus: int,
        split: str,
        group: tuple[int, ...] | None = None,
        complement: tuple[int, ...] | None = None,
        detail: str = "",
    ) -> None:
        self._init(lb1, lb2, genus, split, group, complement, detail)

    def __post_init__(self) -> None:
        if self.lb1 * self.lb2 <= self.genus:
            raise InputError(
                f"not a certificate: {self.lb1} * {self.lb2} <= genus {self.genus}"
            )

    def to_dict(self) -> dict:
        out = {
            "lb1": self.lb1,
            "lb2": self.lb2,
            "genus": self.genus,
            "split": self.split,
            "detail": self.detail,
        }
        if self.group is not None:
            out["group"] = list(self.group)
            out["complement"] = list(self.complement or ())
        return out


class NotBNGeneral(Frozen):
    """The profile matches a case that rules out Brill-Noether generality."""

    __slots__ = ("case_id", "certificate", "note")

    def __init__(self, case_id: str, certificate: CertificateSketch | None, note: str | None = None) -> None:
        self._init(case_id, certificate, note)


class ExceptionalProfile(Frozen):
    """The profile matches none of the cases; only these shapes survive."""

    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        object.__setattr__(self, "label", label)


LABEL_N3_ISOTROPIC_PAIR = "n=3: D2^2 = D3^2 = 0"
LABEL_N3_LOW = "n=3: D1^2 in {2,4,6}, D2^2 = 2, D3^2 = 0"
LABEL_N4_ISOTROPIC = "n=4 all isotropic"


def _first_partition_certificate(profile: DecompositionProfile) -> CertificateSketch | None:
    """The first split (``DecompositionProfile.splits``) whose h^0 floors multiply to more than the genus.

    The sketch labels the split as the paper writes it, parts counted from
    1: "{1,2} | {3}".  None when no split certifies.
    """
    genus = profile.genus
    for left, right in profile.splits():
        lb1, lb2 = profile.group_h0_floor(left), profile.group_h0_floor(right)
        if lb1 * lb2 > genus:
            label = " | ".join("{%s}" % ",".join(str(i + 1) for i in side) for side in (left, right))
            return CertificateSketch(lb1, lb2, genus, label, left, right, "partial-sum h0 floors")
    return None
