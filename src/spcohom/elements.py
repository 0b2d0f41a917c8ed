"""Elements of the hyperoctahedral Weyl group as values, and the maps on one
element.

An element w is stored through its signed one-line images: w sends the basis
vector e_m to sign * e_p where images[m-1] = +-p.  Equivalently w is a plain
permutation followed by sign flips on a set J of output values, which is the
factorization w = r_{j_1} ... r_{j_k} * sigma_0 used throughout (r_v flips
the sign of the value v, sigma_0 acts first).

SignedPerm.__str__ is the one writer of an element, and parse_signed_perm
reads back every element the package prints.  The inversion set of one
element is the sum of the rows weyl._row gives its word.  The scan never
builds an element: only bijection --witness, weyl --list, the scan's
witnesses and the tests load this module.
"""

import itertools
import re
from typing import Iterator

from .roots import Frozen, RootSet, check_cap, check_rank, _set
from .weyl import _perm_inversion_mask, _word_rows


class Perm(Frozen):
    """A permutation of {1..n} in one-line notation: images[m-1] = sigma(m)."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        n = len(images)
        if n < 1 or sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"{images} is not a permutation of 1..{n}")
        _set(self, "images", images)

    @classmethod
    def identity(cls, n: int) -> "Perm":
        check_rank(n)
        return cls(tuple(range(1, n + 1)))

    @property
    def rank(self) -> int:
        return len(self.images)

    def __call__(self, m: int) -> int:
        return self.images[m - 1]

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for m, p in enumerate(self.images, start=1):
            inv[p - 1] = m
        return Perm(tuple(inv))

    def compose(self, other: "Perm") -> "Perm":
        """self after other: (self.compose(other))(m) == self(other(m))."""
        return Perm(tuple(self.images[p - 1] for p in other.images))

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.images)) + ")"


class SignedPerm(Frozen):
    """A signed permutation; images[m-1] = +-p means e_m maps to +-e_p."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        n = len(images)
        if n < 1 or sorted(abs(v) for v in images) != list(range(1, n + 1)):
            raise ValueError(f"{images} is not a signed permutation of 1..{n}")
        _set(self, "images", images)

    @classmethod
    def identity(cls, n: int) -> "SignedPerm":
        check_rank(n)
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def reflection(cls, i: int, n: int) -> "SignedPerm":
        """The generator r_i, flipping the sign of the value i."""
        check_rank(n)
        if not 1 <= i <= n:
            raise ValueError(f"reflection index {i} out of range for rank {n}")
        return cls(tuple(-v if v == i else v for v in range(1, n + 1)))

    @classmethod
    def from_perm_and_negated(cls, perm: Perm, negated) -> "SignedPerm":
        neg = frozenset(negated)
        for v in neg:
            if not 1 <= v <= perm.rank:
                raise ValueError(f"negated value {v} out of range")
        return cls(tuple(-p if p in neg else p for p in perm.images))

    @property
    def rank(self) -> int:
        return len(self.images)

    @property
    def perm(self) -> Perm:
        """The underlying unsigned permutation sigma_0."""
        return Perm(tuple(abs(v) for v in self.images))

    @property
    def negated(self) -> frozenset[int]:
        """The set J of output values whose sign is flipped."""
        return frozenset(-v for v in self.images if v < 0)

    def __call__(self, m: int) -> int:
        return self.images[m - 1]

    def inverse(self) -> "SignedPerm":
        inv = [0] * len(self.images)
        for m, v in enumerate(self.images, start=1):
            inv[abs(v) - 1] = m if v > 0 else -m
        return SignedPerm(tuple(inv))

    def compose(self, other: "SignedPerm") -> "SignedPerm":
        """self after other, acting on e-vectors: (uv)(x) = u(v(x))."""
        out = []
        for v in other.images:
            u = self.images[abs(v) - 1]
            out.append(u if v > 0 else -u)
        return SignedPerm(tuple(out))

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.images)) + "]"


def parse_signed_perm(text: str) -> SignedPerm:
    """Inverse of str(w): accepts '[2,-1,3]'; an entry is an optional '-' and ASCII digits."""
    s = text.strip()
    images = None
    if re.fullmatch(r"\[\s*-?[0-9]+\s*(,\s*-?[0-9]+\s*)*\]", s):
        try:
            images = tuple(map(int, s[1:-1].split(",")))
        except ValueError:  # an entry with more digits than int() converts
            pass
    if images is None:
        raise ValueError(f"cannot parse signed permutation {text!r}")
    return SignedPerm(images)


class StandardForm(Frozen):
    """The factorization w = r_{j_1} ... r_{j_k} * sigma_0 with the j's listed
    in the order they appear in sigma_0's one-line word, so that
    sigma_0^-1(j_1) < sigma_0^-1(j_2) < ... < sigma_0^-1(j_k)."""

    __slots__ = ("j_list", "sigma0")

    def __init__(self, j_list: tuple[int, ...], sigma0: Perm):
        _set(self, "j_list", j_list)
        _set(self, "sigma0", sigma0)


def enumerate_group(n: int) -> Iterator[SignedPerm]:
    """All 2^n * n! signed permutations, sign patterns outer, permutations
    inner in lexicographic order.  Deterministic; refuses ranks above the group cap."""
    check_cap(n, "group enumeration")
    values = tuple(range(1, n + 1))
    for jmask in range(1 << n):
        flip = tuple(-v if jmask >> (v - 1) & 1 else v for v in values)
        for word in itertools.permutations(values):
            yield SignedPerm(tuple(flip[p - 1] for p in word))


def inversion_set(w: SignedPerm) -> RootSet:
    """The set of positive roots sent into the negatives by w^{-1}, read off
    the rows of weyl._row; its size is the Coxeter length of w."""
    n = w.rank
    return RootSet(n, _inversion_mask(w.images, n))


def _inversion_mask(images: tuple[int, ...], n: int) -> int:
    """Bitmask of the inversion set: the sum, as in weyl._expand, of the rows
    of weyl._row at the positions, flipped where the image is negative."""
    rows = _word_rows(n, [abs(u) for u in images])
    return sum(row[u < 0] for u, row in zip(images, rows))


def length(w: SignedPerm) -> int:
    return _inversion_mask(w.images, w.rank).bit_count()


def perm_inversions(sigma: Perm) -> RootSet:
    """Inversion set of a plain permutation: the differences e_i - e_j with
    i < j whose values appear out of order in sigma's one-line word.  This is
    the closed-form route; it must agree with inversion_set on S_n."""
    n = sigma.rank
    return RootSet(n, _perm_inversion_mask(sigma.images, n))


def standard_form(w: SignedPerm) -> StandardForm:
    """Decompose w into sign flips after a permutation, the flipped values
    listed in the order they appear in sigma_0's word."""
    return StandardForm(tuple(-v for v in w.images if v < 0), w.perm)


def _signed_images(word: tuple[int, ...], jmask: int) -> tuple[int, ...]:
    """Signed one-line images from the unsigned word and the flipped-value bitmask."""
    return tuple(-v if jmask >> (v - 1) & 1 else v for v in word)


def _witness_str(word: tuple[int, ...], jmask: int) -> str:
    """The element as SignedPerm prints it, so parse_signed_perm reads it back."""
    return str(SignedPerm(_signed_images(word, jmask)))
