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
over the states.  A walk reads the cached graph of ``family_moves`` as it
is and weighs each move where it takes it, so no per-spec copy of the
graph is made; sizing the slots visits each move once more, before the
walk.  Over any other iterable ``enumerator`` reads each word's
``stats()`` once, at O(n) per element plus the O(n^2) bit work of its
inversions, and builds one monomial per distinct statistic key.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from .arcsets import Family
from .perms import Character, Permutation, SignedPermutation
from .poly import (_MAX, _SHIFTS, Monomial, SparsePolynomial, _checked, _from_slots,
                   _letter_keys, _power, _slot_width)


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
        for flag, value in (("descent_vars", self.descent_vars), ("neg_vars", self.neg_vars)):
            if not isinstance(value, bool):
                raise ValueError(f"{flag} {value!r} is not a bool")

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
    other iterable takes one pass, reading each element's ``stats()`` once:
    that is the brute-force oracle, so it shares no table with the walk.
    Elements are counted by (t exponent, q exponent, descent set, negative
    set), with the character value folded into the count, and one monomial
    is built per distinct key at the end (``SparsePolynomial.from_terms``).
    """
    t_stat, q_stat, chi = spec.t_stat, spec.q_stat, spec.character
    flags = t_stat == "fdes" or q_stat == "fmaj" or spec.neg_vars
    if isinstance(elements, Family):
        if flags and not elements.signed:
            raise ValueError("flag statistics need signed permutations")
        return _packed_walk(elements, spec) if spec.packs else _dict_walk(elements, spec)
    counts: dict[tuple, int] = {}
    for p in elements:
        # an unsigned word's stats() would read fmaj as 2 maj and fdes as 2 des
        if flags and not p.signed:
            raise ValueError("flag statistics need signed permutations")
        stats = p.stats()
        key = (t_stat and getattr(stats, t_stat), q_stat and getattr(stats, q_stat),
               stats.des_set if spec.descent_vars else (), stats.neg_set if spec.neg_vars else ())
        sign = 1 if chi is None else chi.of_stats(stats.inv, stats.neg)
        counts[key] = counts.get(key, 0) + sign
    # only nonzero exponents, so that a variable the spec lacks gets no field
    return SparsePolynomial.from_terms(
        ({name: exp for name, exp in [("t", t), ("q", q), *[(f"x{i}", 1) for i in des],
                                      *[(f"y{i}", 1) for i in neg]] if exp}, coeff)
        for (t, q, des, neg), coeff in counts.items() if coeff)


# t and q as linear forms in (inv, descent > 0, negative at position 1) and
# (descent, negative), where descent is the position of the descent a move
# completes (0 for none)
_T_FORMS = {None: (0, 0, 0), "inv": (1, 0, 0), "des": (0, 1, 0), "fdes": (0, 2, 1)}
_Q_FORMS = {None: (0, 0), "maj": (1, 0), "fmaj": (2, 1)}
# the parities of (inv, neg) whose sum a character's sign is
_PARITIES = {None: (0, 0), Character.TRIVIAL: (0, 0), Character.SIGN: (1, 1),
             Character.NEG_PARITY: (0, 1), Character.SIGN_ABS: (1, 0)}


def _dict_walk(family: Family, spec: WeightSpec) -> SparsePolynomial:
    """The walk with one {packed monomial: coeff} map per state; each move's
    t, q, x and y key and sign are weighed as the walk takes it."""
    (ti, td, tf), (qd, qn) = _T_FORMS[spec.t_stat], _Q_FORMS[spec.q_stat]
    si, sn = _PARITIES[spec.character]
    xs = [0] + [1 << _SHIFTS[f"x{d}"] if spec.descent_vars else 0 for d in range(1, family.n)]
    ys = [0] + [1 << _SHIFTS[f"y{p}"] if spec.neg_vars else 0 for p in range(1, family.n + 1)]
    states: dict[int, dict[Monomial, int]] = {0: {0: 1}}  # the empty word
    for layer in family.moves():
        following: dict[int, dict[Monomial, int]] = {}
        for state, terms in states.items():
            items = terms.items()
            for target, v, position, descent, inv in layer[state]:
                neg = v < 0
                t = ti * inv + td * (descent > 0) + tf * (neg & (position == 1))
                q = qd * descent + qn * neg
                key = ((_power("t", t) if t else 0) + (_power("q", q) if q else 0)
                       + xs[descent] + ys[position] * neg)
                sign = 1 - 2 * (si * inv + sn * neg & 1)
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


def _packed_walk(family: Family, spec: WeightSpec) -> SparsePolynomial:
    """The walk with one int per state: t^a q^b is its W-bit slot
    a * (Dq + 1) + b, an exact evaluation at powers of 2^W.  Dt and Dq are
    the sums over the layers of each layer's largest t and q (``_box``),
    which bound every path's exponents, and W comes from ``Family.size``,
    the number of paths, which bounds every coefficient
    (docs/DECISIONS.md §6).  OverflowError before the walk when Dt or Dq
    passes the exponent limit.  Each move is weighed as the walk takes it.

    A spec in x variables alone carries x_d as q = 2^(d-1), so a term's
    slot has bit d - 1 set for each x_d in it.  A path completes descent d
    in one layer only, so its bits never carry, and the final int decodes
    through the letters codec's table of the x keys of every slot
    (``poly._letter_keys``), which the x-only closed forms share.
    """
    (ti, td, tf), (qd, qn) = _T_FORMS[spec.t_stat], _Q_FORMS[spec.q_stat]
    (si, sn), letters = _PARITIES[spec.character], spec.descent_vars
    top_t, top_q = _box(family, spec)
    if not letters and max(top_t, top_q) > _MAX:
        raise OverflowError(f"an exponent exceeds {_MAX}")
    stride, width = top_q + 1, _slot_width(family.size)
    states = {0: 1}
    for layer in family.moves():
        following = {}
        for state, value in states.items():
            for target, v, position, descent, inv in layer[state]:
                neg = v < 0
                t = ti * inv + td * (descent > 0) + tf * (neg & (position == 1))
                q = 1 << descent >> 1 if letters else qd * descent + qn * neg
                part = value << (t * stride + q) * width
                if si * inv + sn * neg & 1:
                    part = -part
                following[target] = following[target] + part if target in following else part
        states = following
    packed = sum(states.values())
    if letters:
        keys = _letter_keys(top_q.bit_length())
    else:  # row-major: slot a * stride + b -> the key of t^a q^b
        t, q = 1 << _SHIFTS["t"], 1 << _SHIFTS["q"]
        keys = list(chain.from_iterable(range(row, row + stride * q, q)
                                        for row in range(0, (top_t + 1) * t, t)))
    return _from_slots(packed, width, keys)


def _box(family: Family, spec: WeightSpec) -> tuple[int, int]:
    """Dt and Dq of a packing spec: the sums over the layers of each layer's
    largest t and largest q, weighed as ``_packed_walk`` weighs its moves.
    A path takes one move per layer, so no path's exponents pass them."""
    (ti, td, tf), (qd, qn) = _T_FORMS[spec.t_stat], _Q_FORMS[spec.q_stat]
    letters = spec.descent_vars
    top_t = top_q = 0
    for layer in family.moves():
        layer_t = layer_q = 0
        for _, v, position, descent, inv in chain.from_iterable(layer):
            neg = v < 0
            t = ti * inv + td * (descent > 0) + tf * (neg & (position == 1))
            q = 1 << descent >> 1 if letters else qd * descent + qn * neg
            if t > layer_t:
                layer_t = t
            if q > layer_q:
                layer_q = q
        top_t, top_q = top_t + layer_t, top_q + layer_q
    return top_t, top_q
