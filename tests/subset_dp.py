"""Subset-level test oracles for the length histograms: the rows of the
group and of S_n built from the root index alone, and the packed DP over all
2^n sets of values that the size recursion (weyl._size_dp) replaced.  No
command runs any of these."""

from spcohom.roots import _index_tables
from spcohom.weyl import _unpack


def index_row(n, v, later):
    """(plus, minus) of the value v with the later-value mask later, from the
    bits of the index pairs {v, x}, x = v or x in later: what weyl._row must
    give."""
    d_idx, s_idx, l_idx = _index_tables(n)
    up, down = 0, 1 << l_idx[v]
    for q in range(1, n + 1):
        if later >> (q - 1) & 1 and q < v:
            up |= 1 << d_idx[q][v]
            down |= 1 << s_idx[q][v]
        elif later >> (q - 1) & 1 and q > v:
            down |= 1 << d_idx[v][q] | 1 << s_idx[v][q]
    return up, down


def index_perm_row(n, before, v):
    """The inversions e_v - e_u, u > v in the value mask before, from the
    index: what weyl._perm_row must give."""
    d_idx = _index_tables(n)[0]
    return sum(1 << d_idx[v][u] for u in range(v + 1, n + 1) if before >> (u - 1) & 1)


def subset_dp(n, width, degree, rows):
    """F(empty) = 1 and, over the subsets S of {1..n}, F(S) = sum over v in S,
    r in rows(v, S - v), of t^|r| F(S - v): the coefficients of F({1..n}) of
    degrees 0..degree, each F packed into one int, width bits a coefficient."""
    poly = [1]
    for s in range(1, 1 << n):
        acc = 0
        for v in range(1, n + 1):
            rest = s & ~(1 << (v - 1))
            if rest != s:
                for r in rows(v, rest):
                    acc += poly[rest] << width * r.bit_count()
        poly.append(acc)
    return _unpack(poly[-1], width, degree)
