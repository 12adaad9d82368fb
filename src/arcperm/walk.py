"""The truth side: statistic-weighted enumerators over permutation sets.

``enumerator`` sums the weight monomial a ``WeightSpec`` selects over the
given permutations.  Given an ``arcsets.Family`` it is a transfer-matrix walk
over the family's growth graph, checked against brute force in tier-1; over
any other iterable it reads every word.

Every statistic the spec can ask for is a sum of per-move parts: a descent
the move completes adds 1 to des, 2 to fdes, its position to maj, twice that
to fmaj and x_position; a negative entry adds 1 to fmaj and y_position, and 1
to fdes at position 1; inv adds the move's inversions.  Characters read only
the parities of inv and neg, so each move contributes a sign.  So a layer
holds one value per state, and a move adds its state's value, shifted by its
weight and times its sign, to its target: one int when the spec packs
(``_packed_walk``), else a {packed monomial: coeff} map (``_dict_walk``).
The work is (moves) x (size of a value) instead of (elements) x n.

Costs: the walk visits the family's O(n^2) growth states, and each of the
O(n^2) moves shifts one state's term map by one key and a sign, so the cost
is moves times terms per state and no word is built.  In t, q and a
character only, or in x variables and a character only, a state is one int
with a fixed-width slot per term (an x term's slot has bit d - 1 set for
each x_d in it), and a move is one big-int shift and add; the slots are
sized from each layer's largest move and the family's size, with no pass
over the states.  Over any other iterable ``enumerator`` reads each word
once, at O(n) per element (inv adds O(n^2) bit work), and builds one key per
distinct statistic key.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable

from .arcsets import Family
from .perms import (Character, Permutation, SignedPermutation, abs_inv, descent_positions,
                    neg_positions)
from .poly import (_MAX, _SHIFTS, Monomial, SparsePolynomial, _checked, _from_slots, _power,
                   _slot_width)


@dataclass(frozen=True)
class WeightSpec:
    """Selects the weight monomial attached to each permutation.

    t_stat: exponent of t, one of "inv", "des", "fdes" (inv is computed on
    the absolute word for signed permutations).  q_stat: exponent of q,
    "maj" or "fmaj".  descent_vars multiplies x_i per descent position i.
    neg_vars multiplies y_i per negative position.  character contributes a
    +-1 coefficient.
    """

    t_stat: str | None = None
    q_stat: str | None = None
    descent_vars: bool = False
    neg_vars: bool = False
    character: Character | None = None

    def __post_init__(self):
        if self.t_stat not in (None, "inv", "des", "fdes"):
            raise ValueError(f"unknown t statistic {self.t_stat!r}")
        if self.q_stat not in (None, "maj", "fmaj"):
            raise ValueError(f"unknown q statistic {self.q_stat!r}")
        if self.character is not None and not isinstance(self.character, Character):
            raise ValueError(f"unknown character {self.character!r}")

    @property
    def letters(self) -> bool:
        """x or y variables: the output has up to one term per subset of
        positions, so it doubles with each n (``verify``'s guard keys on it)."""
        return self.descent_vars or self.neg_vars

    @property
    def packs(self) -> bool:
        """The walk keeps one int per state: in t, q and a character only,
        or in x variables and a character only."""
        return not self.neg_vars and not (self.descent_vars and (self.t_stat or self.q_stat))


def enumerator(
    elements: Iterable[Permutation | SignedPermutation], spec: WeightSpec
) -> SparsePolynomial:
    """Sum of weight monomials over the given permutations.

    Given an ``arcsets.Family``, this walks the family's growth graph and
    never builds a word: one int per state when the spec packs
    (``_packed_walk``), else a term map per state (``_dict_walk``).  Any
    other iterable takes one pass: each word is read once, and only the
    statistics the spec asks for are computed.  Elements are counted by (t exponent, q exponent, descent
    positions, negative positions), with the character value folded into
    the count, and one packed monomial is built per distinct key at the end.
    """
    t_stat, q_stat, chi = spec.t_stat, spec.q_stat, spec.character
    descent_vars, neg_vars = spec.descent_vars, spec.neg_vars
    flags = t_stat == "fdes" or q_stat == "fmaj" or neg_vars
    if isinstance(elements, Family):
        if flags and not elements.signed:
            raise ValueError("flag statistics need signed permutations")
        letters = spec.packs and spec.descent_vars
        layers = _weighed(elements, spec, letters)
        return _packed_walk(layers, elements.size, letters) if spec.packs else _dict_walk(layers)
    want_des = descent_vars or t_stat in ("des", "fdes") or q_stat is not None
    want_neg = q_stat == "fmaj" or neg_vars or chi in (Character.SIGN, Character.NEG_PARITY)
    want_inv = t_stat == "inv" or chi in (Character.SIGN, Character.SIGN_ABS)
    counts: dict[tuple, int] = {}
    for p in elements:
        word = p.word
        signed = p.signed
        if flags and not signed:
            raise ValueError("flag statistics need signed permutations")
        des = descent_positions(word, signed) if want_des else ()
        neg = neg_positions(word) if want_neg else ()
        inv = abs_inv(word) if want_inv else 0
        if t_stat == "inv":
            t = inv
        elif t_stat == "des":
            t = len(des)
        elif t_stat == "fdes":
            t = 2 * len(des) + (word[0] < 0)
        else:
            t = 0
        if q_stat == "maj":
            q = sum(des)
        elif q_stat == "fmaj":
            q = 2 * sum(des) + len(neg)
        else:
            q = 0
        key = (t, q, des if descent_vars else (), neg if neg_vars else ())
        counts[key] = counts.get(key, 0) + (1 if chi is None else chi.of_stats(inv, len(neg)))
    terms: dict[Monomial, int] = {}
    for (t, q, des, neg), coeff in counts.items():
        if coeff:
            mono = (_power("t", t) if t else 0) + (_power("q", q) if q else 0)
            mono += sum(1 << _SHIFTS[f"x{i}"] for i in des)
            terms[mono + sum(1 << _SHIFTS[f"y{i}"] for i in neg)] = coeff
    return SparsePolynomial(terms)


# t and q as linear forms in (inv, descent > 0, negative at position 1) and
# (descent, negative), where descent is the position of the descent a move
# completes (0 for none)
_T_FORMS = {None: (0, 0, 0), "inv": (1, 0, 0), "des": (0, 1, 0), "fdes": (0, 2, 1)}
_Q_FORMS = {None: (0, 0), "maj": (1, 0), "fmaj": (2, 1)}
# the parities of (inv, neg) whose sum a character's sign is
_PARITIES = {None: (0, 0), Character.TRIVIAL: (0, 0), Character.SIGN: (1, 1),
             Character.NEG_PARITY: (0, 1), Character.SIGN_ABS: (1, 0)}


def _weighed(family: Family, spec: WeightSpec, letters: bool = False) -> list:
    """``family.moves()`` with each move as (target, t, q, xy, sign), xy the
    key of its x and y variables.  With ``letters`` (a spec whose only
    variables are x's, for ``_packed_walk``), q is instead the slot bit
    1 << d - 1 of the descent d the move completes, and xy is 0."""
    ti, td, tf = _T_FORMS[spec.t_stat]
    qd, qn = _Q_FORMS[spec.q_stat]
    si, sn = _PARITIES[spec.character]
    n = family.n
    qs = [qd * d for d in range(n)]  # by descent
    xs = [0] * n  # by descent
    ys = [0] * (n + 1)  # by position
    if letters:
        qs = [0] + [1 << d - 1 for d in range(1, n)]
    elif spec.descent_vars:
        xs = [0] + [1 << _SHIFTS[f"x{d}"] for d in range(1, n)]
    if spec.neg_vars:
        ys = [0] + [1 << _SHIFTS[f"y{p}"] for p in range(1, n + 1)]
    return [[[(target, ti * inv + td * (descent > 0) + tf * (neg & (position == 1)),
               qs[descent] + qn * neg, xs[descent] + ys[position] * neg,
               1 - 2 * (si * inv + sn * neg & 1))
              for target, value, position, descent, inv in moves for neg in (value < 0,)]
             for moves in layer] for layer in family.moves()]


def _dict_walk(layers: list) -> SparsePolynomial:
    """The walk with one {packed monomial: coeff} map per state."""
    states: dict[int, dict[Monomial, int]] = {0: {0: 1}}  # the empty word
    for layer in layers:
        following: dict[int, dict[Monomial, int]] = {}
        for state, terms in states.items():
            items = terms.items()
            for target, t, q, xy, sign in layer[state]:
                key = (_power("t", t) if t else 0) + (_power("q", q) if q else 0) + xy
                acc = following.get(target)
                if acc is None:
                    following[target] = {m + key: sign * c for m, c in items}
                    continue
                get = acc.get
                for m, c in items:
                    m += key
                    acc[m] = get(m, 0) + sign * c
        states = following
    total: dict[Monomial, int] = {}
    for terms in states.values():
        for m, c in terms.items():
            total[m] = total.get(m, 0) + c
    return SparsePolynomial(_checked(total))


def _packed_walk(layers: list, paths: int, letters: bool = False) -> SparsePolynomial:
    """The walk with one int per state: t^a q^b is its W-bit slot
    a * (Dq + 1) + b, an exact evaluation at powers of 2^W.  Dt and Dq are
    the sums over the layers of each layer's largest t and q (``_box``),
    which bound every path's exponents, and W comes from ``paths``, the
    number of paths (``Family.size``), which bounds every coefficient
    (docs/DECISIONS.md §6).  OverflowError before the walk when Dt or Dq
    passes the exponent limit.

    With ``letters`` the moves carry x_d as q = 2^(d-1) (``_weighed``), so a
    term's slot has bit d - 1 set for each x_d in it.  A path completes
    descent d in one layer only, so its bits never carry, and the final int
    decodes through a table of the x keys of every slot.
    """
    top_t, top_q = _box(layers)
    if not letters and max(top_t, top_q) > _MAX:
        raise OverflowError(f"an exponent exceeds {_MAX}")
    stride, width = top_q + 1, _slot_width(paths)
    states = {0: 1}
    for layer in layers:
        following = {}
        for state, value in states.items():
            for target, t, q, _, sign in layer[state]:
                part = value << (t * stride + q) * width
                acc = following.get(target)
                if acc is None:
                    following[target] = part if sign > 0 else -part
                else:
                    following[target] = acc + part if sign > 0 else acc - part
        states = following
    packed = sum(states.values())
    if letters:
        keys = [0]  # slot i -> the key of the x_(b+1) over the set bits b of i
        for d in range(1, top_q.bit_length() + 1):
            x = 1 << _SHIFTS[f"x{d}"]
            keys += [key + x for key in keys]
    else:  # row-major: slot a * stride + b -> the key of t^a q^b
        t, q = 1 << _SHIFTS["t"], 1 << _SHIFTS["q"]
        keys = list(chain.from_iterable(range(row, row + stride * q, q)
                                        for row in range(0, (top_t + 1) * t, t)))
    return _from_slots(packed, width, keys)


def _box(layers: list) -> tuple[int, int]:
    """Dt and Dq: the sums over the layers of each layer's largest t and
    largest q.  A path takes one move per layer, so no path's exponents pass
    them."""
    top_t = top_q = 0
    for layer in layers:
        moves = list(chain.from_iterable(layer))
        top_t += max(map(itemgetter(1), moves))
        top_q += max(map(itemgetter(2), moves))
    return top_t, top_q
