"""Differential tests: the transfer-matrix walk against the word loop.

``enumerator(Family(f, n), spec)`` walks the family's growth graph;
``enumerator(generate_f(n), spec)`` reads every word.  The two must give
the same polynomial, compared by ``str`` and ``to_json``.  The word loop is
itself checked against a per-element reference in test_enumerator_oracle.
Specs in t, q and a character only, or in x variables and a character
only, walk one packed int per state; that walk is checked against the dict
walk, which keeps a term map per state.
"""

import hashlib
import sys

import pytest

from arcperm.arcsets import (
    FAMILY_NAMES,
    Family,
    generate_arc,
    generate_b_arc,
    generate_left_unimodal,
    generate_signed_arc,
)
from arcperm.formulas import EQUAL, OUT_OF_STATED_RANGE, REGISTRY, verify_formula
from arcperm import poly, walk
from arcperm.poly import _from_slots, _pack, _slot_width, _unpack, var
from arcperm.walk import WeightSpec, _box, _dict_walk, _packed_walk, _weighed, enumerator
from helpers import hyperoctahedral, symmetric
from test_enumerator_oracle import SPECS, assert_same, needs_flags

GENERATORS = {
    "arc": generate_arc,
    "left-unimodal": generate_left_unimodal,
    "signed-arc": generate_signed_arc,
    "b-arc": generate_b_arc,
}

# sha256 over repr([list(word) for word in family]) for n = 1..10, recorded
# from the generators before they read the growth tables: the order is part
# of the contract (``arcperm enumerate`` prints it)
ORDER_DIGESTS = {
    "arc": "ad042b6e6dadbb53e75ec1714fbda5aa7ce68f98531a80829dcdd37200be2da5",
    "left-unimodal": "f9182a8901308163703bcd4fc4745a82ba3914d9cc48f53e6e9d52afce650d5f",
    "signed-arc": "af6381b7abd2dc1d4c551c552bc73056ce517b13ae01e7536f1bc88fccf4dd9e",
    "b-arc": "b4d72d90f724c1135f0c01a2bbb993aec07270d05ae36ab2beefeea5b1d6a23f",
}


def walk_and_words(family, n, spec):
    """Both sides, or ("ValueError", message) for a side that raises."""
    sides = []
    for elements in (Family(family, n), GENERATORS[family](n)):
        try:
            sides.append(enumerator(elements, spec))
        except ValueError as exc:
            sides.append(("ValueError", str(exc)))
    return sides


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_entries_walk_equals_word_loop(name):
    entry = REGISTRY[name]
    for n in range(1, 10):
        walked, looped = walk_and_words(entry.family, n, entry.weights)
        assert_same(walked, looped)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_every_spec_on_every_family(family):
    signed = family in ("signed-arc", "b-arc")
    for n in range(1, 6):
        for spec in SPECS:
            walked, looped = walk_and_words(family, n, spec)
            if needs_flags(spec) and not signed:
                want = ("ValueError", "flag statistics need signed permutations")
                assert walked == looped == want, (n, spec)
            else:
                assert_same(walked, looped)


@pytest.mark.parametrize("n", [1, 2])
def test_edge_sizes_are_whole_groups(n):
    # At n <= 2 position 1 is the last position or next to it, every sign is
    # free, and each family is all of S_n or B_n: the walk must match the
    # word loop over the whole group, which shares no code with the tables.
    for spec in SPECS:
        for family in ("signed-arc", "b-arc"):
            assert_same(enumerator(Family(family, n), spec), enumerator(hyperoctahedral(n), spec))
        if not needs_flags(spec):
            for family in ("arc", "left-unimodal"):
                assert_same(enumerator(Family(family, n), spec), enumerator(symmetric(n), spec))


def test_edge_size_values():
    fdes_fmaj = WeightSpec(t_stat="fdes", q_stat="fmaj")
    assert str(enumerator(Family("signed-arc", 1), fdes_fmaj)) == "1 + t*q"
    assert str(enumerator(Family("b-arc", 1), WeightSpec(neg_vars=True))) == "1 + y1"
    # all 8 elements of B_2; see docs/DECISIONS.md section 1
    assert str(enumerator(Family("signed-arc", 2), fdes_fmaj)) == (
        "1 + 2*t*q + t*q^2 + t^2*q^2 + 2*t^2*q^3 + t^3*q^4")


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_iteration_is_the_generator(family):
    digest = hashlib.sha256()
    for n in range(1, 11):
        fam = Family(family, n)
        words = list(fam)
        assert words == GENERATORS[family](n)
        assert len(fam) == len(words) == len(set(words))
        digest.update(repr([list(p.word) for p in words]).encode())
    assert digest.hexdigest() == ORDER_DIGESTS[family]


def test_family_rejects_bad_arguments():
    with pytest.raises(ValueError, match="positive"):
        Family("arc", 0)
    with pytest.raises(ValueError, match="unknown family"):
        Family("sym", 3)
    with pytest.raises(ValueError, match="positive"):
        generate_b_arc(-1)
    for n in (True, False, 2.0):  # Family("arc", True) was n = 1
        with pytest.raises(ValueError, match="positive"):
            Family("arc", n)


@pytest.mark.parametrize("n", [57, 58, 60])
def test_size_is_exact_past_a_machine_int(n):
    sizes = {"arc": n * 2 ** (n - 2), "left-unimodal": 2 ** (n - 1),
             "signed-arc": n * 2**n, "b-arc": n * 2**n}
    for family, size in sizes.items():
        fam = Family(family, n)
        assert fam.size == size
        if size <= sys.maxsize:
            assert len(fam) == size
        else:  # n = 58 and 60 on the signed families, n = 60 on arc
            with pytest.raises(OverflowError):
                len(fam)


# the identities in t, q and a character only: their output grows
# polynomially in n, so the walk verifies them far past n = 12
TQ_IDENTITIES = [
    name for name, entry in REGISTRY.items()
    if not entry.hidden and not entry.weights.letters
]
# the identities with descent or negative-set variables, whose output
# doubles with each n
XY_IDENTITIES = [
    name for name, entry in REGISTRY.items()
    if not entry.hidden and entry.weights.letters
]
# the identities whose only variables are x's, which walk packed too
X_IDENTITIES = [name for name in XY_IDENTITIES if REGISTRY[name].weights.packs]


def test_tq_identities_verify_past_the_old_exhaustive_limit():
    # about 0.8 s on a 2-vCPU VM with the packed walk (4.5 s with the dict
    # walk); the word loop would read 30 * 2**30 b-arc words.  The x/y
    # identities go to n = 12, past the n <= 8 of the acceptance tests, in
    # about 0.8 s more.
    assert len(TQ_IDENTITIES) == 16 and len(XY_IDENTITIES) == 8
    for name in TQ_IDENTITIES:
        rows = verify_formula(name, [30])
        assert [(r.n, r.status) for r in rows] == [(30, EQUAL)], name
    for name in XY_IDENTITIES:
        odd = OUT_OF_STATED_RANGE if name == "f_sign_des_set_even" else EQUAL
        rows = verify_formula(name, [11, 12])
        assert [(r.n, r.status) for r in rows] == [(11, odd), (12, EQUAL)], name


# -- the packed walk (one int per state) against the dict walk -----------------

PACKED = [spec for spec in SPECS if spec.packs]


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_packed_walk_equals_dict_walk(family):
    # the specs in x variables alone pack their letters as slot bits, and
    # are checked against the word loop here too, past test_every_spec's n
    signed = family in ("signed-arc", "b-arc")
    assert sum(spec.letters for spec in PACKED) == 5
    for n in range(1, 10):
        for spec in PACKED:
            if needs_flags(spec) and not signed:
                continue
            fam = Family(family, n)
            packed = _packed_walk(_weighed(fam, spec, spec.letters), fam.size, spec.letters)
            assert_same(packed, _dict_walk(_weighed(fam, spec)))
            if spec.letters:
                assert_same(packed, enumerator(GENERATORS[family](n), spec))


def test_tq_specs_take_the_packed_walk(monkeypatch):
    monkeypatch.setattr(walk, "_dict_walk", None)  # calling it raises TypeError
    for name in TQ_IDENTITIES:
        entry = REGISTRY[name]
        enumerator(Family(entry.family, 6), entry.weights)


def test_only_t_with_x_and_x_with_y_take_the_dict_walk(monkeypatch):
    walked = []

    def spy(layers):
        walked.append(name)
        return dict_walk(layers)

    dict_walk = walk._dict_walk
    monkeypatch.setattr(walk, "_dict_walk", spy)
    for name, entry in REGISTRY.items():
        enumerator(Family(entry.family, 6), entry.weights)
    assert walked == ["f_A_inv_des", "f_As_des_neg", "f_As_des_neg_inv"]
    assert X_IDENTITIES == ["f_A_des_set", "f_sign_des_set", "f_sign_des_set_even",
                            "f_L_des_set", "f_AB_des_set"]


def test_x_identities_on_each_side_of_the_16_to_24_bit_step():
    # n = 12 and 14, and the sizes on either side of the family's step from
    # 16- to 24-bit slots: b-arc steps at 11 -> 12, arc at 13 -> 14,
    # left-unimodal at 15 -> 16
    for name in X_IDENTITIES:
        family = REGISTRY[name].family
        widths = {n: _slot_width(Family(family, n).size) for n in range(1, 17)}
        step = [n for n in range(2, 17) if widths[n - 1] == 16 and widths[n] == 24]
        sizes = sorted({12, 14, step[0] - 1, step[0]})
        rows = verify_formula(name, sizes)
        want = [(n, OUT_OF_STATED_RANGE if name == "f_sign_des_set_even" and n % 2 else EQUAL)
                for n in sizes]
        assert [(r.n, r.status) for r in rows] == want, name


def _old_weigh(spec):
    """The per-move closure the branch-free weighing replaced, kept as its
    reference."""
    t_stat, q_stat, chi = spec.t_stat, spec.q_stat, spec.character

    def weigh(move):
        target, value, position, descent, inv = move
        neg = value < 0
        if t_stat == "inv":
            t = inv
        elif t_stat == "des":
            t = descent > 0
        elif t_stat == "fdes":
            t = 2 * (descent > 0) + (neg and position == 1)
        else:
            t = 0
        if q_stat == "maj":
            q = descent
        elif q_stat == "fmaj":
            q = 2 * descent + neg
        else:
            q = 0
        xy = 1 << poly._SHIFTS[f"x{descent}"] if spec.descent_vars and descent else 0
        if spec.neg_vars and neg:
            xy += 1 << poly._SHIFTS[f"y{position}"]
        return target, t, q, xy, 1 if chi is None else chi.of_stats(inv, neg)

    return weigh


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_weighing_equals_the_per_move_closure(family):
    for n in range(1, 8):
        fam = Family(family, n)
        bits = {1 << poly._SHIFTS[f"x{d}"]: 1 << d - 1 for d in range(1, n)}
        for spec in SPECS:
            want = [[list(map(_old_weigh(spec), moves)) for moves in layer]
                    for layer in fam.moves()]
            assert _weighed(fam, spec) == want, spec
            if spec.packs and spec.letters:  # x_d as the slot bit 2^(d-1), in q
                letters = [[[(target, t, bits.get(xy, 0), 0, sign)
                             for target, t, _, xy, sign in moves] for moves in layer]
                           for layer in want]
                assert _weighed(fam, spec, True) == letters, spec


@pytest.mark.parametrize("name", TQ_IDENTITIES)
def test_tq_identities_on_each_side_of_every_width_change(name):
    # the slot width grows with the family's size; check each side of every
    # step up to 48-bit slots
    family = REGISTRY[name].family
    widths = {n: _slot_width(len(Family(family, n))) for n in range(1, 40)}
    sizes = sorted({m for n in range(2, 40) if widths[n - 1] < widths[n] <= 48 for m in (n - 1, n)})
    assert {widths[n] for n in sizes} == {8, 16, 24, 32, 40, 48}
    rows = verify_formula(name, sizes)
    assert [(r.n, r.status) for r in rows] == [(n, EQUAL) for n in sizes]


@pytest.mark.parametrize("width", [8, 16, 24, 40, 56, 64, 72])
def test_unpack_reads_balanced_slots_and_refuses_the_rest(width):
    half = 1 << width - 1

    def pack(values):
        return sum(c << i * width for i, c in enumerate(values))

    for values in ([-half, half - 1, 0, -1, 1], [-half] * 5, [half - 1] * 5):
        assert _unpack(pack(values), len(values), width) == values
        # _pack is the inverse, from the terms with or without their zeros
        assert _pack(list(enumerate(values)), width) == pack(values)
        assert _pack([(e + 3, c) for e, c in enumerate(values) if c], width) == pack(values)
    # one past either end, and a top slot of half with the rest 0
    for out_of_range in (pack([-half] * 5) - 1, pack([half - 1] * 5) + 1, half << 4 * width):
        with pytest.raises(OverflowError):
            _unpack(out_of_range, 5, width)
    for coeff in (-half - 1, half):
        with pytest.raises(OverflowError):
            _pack([(0, 1), (1, coeff), (2, -1)], width)


def test_slots_map_to_rows_and_columns():
    t, q = var("t"), var("q")
    x1, x2 = var("x1"), var("x2")
    ts, qs = 1 << poly._SHIFTS["t"], 1 << poly._SHIFTS["q"]
    # slot i holds the coefficient of keys[i]: 1 - 2q^2 + 5tq in a 2 x 3 box
    packed = sum(c << 8 * i for i, c in enumerate([1, 0, -2, 0, 5, 0]))
    box = [a * ts + b * qs for a in range(2) for b in range(3)]
    assert _from_slots(packed, 8, box) == 1 - 2 * q**2 + 5 * t * q
    # one row, from t q^2 on
    row = range(ts + 2 * qs, ts + 8 * qs, qs)
    assert _from_slots(packed, 8, row) == t * q**2 * (1 - 2 * q**2 + 5 * q**4)
    # a letters table: slot i -> the x_(b+1) over the set bits b of i
    table = [0, 1 << poly._SHIFTS["x1"], 1 << poly._SHIFTS["x2"]]
    table.append(table[1] + table[2])
    packed = sum(c << 16 * i for i, c in enumerate([3, 0, -1, 300]))
    assert _from_slots(packed, 16, table) == 3 - x2 + 300 * x1 * x2


def _path_pass(layers):
    """The pass that sized the packed walk before ``_box`` and
    ``Family.size``, kept as their reference: the number of paths and the
    largest t and q on any path."""
    reach = {0: (1, 0, 0)}  # state -> (paths into it, largest t, largest q)
    for layer in layers:
        following = {}
        for state, (paths, top_t, top_q) in reach.items():
            for target, t, q, _, _ in layer[state]:
                p, a, b = following.get(target, (0, 0, 0))
                following[target] = (p + paths, max(a, t + top_t), max(b, q + top_q))
        reach = following
    paths, top_t, top_q = zip(*reach.values())
    return sum(paths), max(top_t), max(top_q)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_box_and_size_equal_the_path_pass(family):
    # the layer maxima are reached by one path on every family, so the slot
    # layout is the one the path pass gave; the size is the number of paths
    signed = family in ("signed-arc", "b-arc")
    for n in range(1, 13):
        fam = Family(family, n)
        for spec in PACKED:
            if needs_flags(spec) and not signed:
                continue
            layers = _weighed(fam, spec, spec.letters)
            assert (fam.size, *_box(layers)) == _path_pass(layers), (n, spec)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_the_rule_past_brute_force_sizes(family):
    # at n = 64 no state has two moves that place the same value, so distinct
    # paths spell distinct words, and one backward pass of path counts gives
    # the closed-form size
    fam = Family(family, 64)
    paths = None  # paths from each state of the layer after to the end
    for layer in reversed(fam.moves()):
        for moves in layer:
            values = [v for _, v, _, _, _ in moves]
            assert len(set(values)) == len(values)
        paths = [sum(1 if paths is None else paths[target] for target, *_ in moves)
                 for moves in layer]
    assert paths == [fam.size]


def test_walk_decodes_bounds_that_no_path_reaches():
    t, q = var("t"), var("q")
    # the layers' largest t are 1 and 2 and their largest q 2 and 3, but the
    # two paths are t q^3 and -t^2 q^2
    layers = [
        [[(0, 1, 0, 0, 1), (1, 0, 2, 0, -1)]],
        [[(0, 0, 3, 0, 1)], [(0, 2, 0, 0, 1)]],
    ]
    assert _box(layers) == (3, 5) and _path_pass(layers) == (2, 2, 3)
    assert _packed_walk(layers, 2) == t * q**3 - t**2 * q**2 == _dict_walk(layers)
    # letters: x1 and x2 as slot bits, a path through each
    letters = [[[(0, 0, 1, 0, 1), (1, 0, 0, 0, 1)]], [[(0, 0, 0, 0, 1)], [(0, 0, 2, 0, -1)]]]
    assert _box(letters) == (0, 3)
    assert _packed_walk(letters, 2, True) == var("x1") - var("x2")


def test_the_box_limit_raises_before_the_walk(monkeypatch):
    # the limit is checked before a slot width is chosen, so no exponent past
    # it is ever shifted into an int or decoded; the moves out of state 1 are
    # never taken
    def no_walk(paths):
        raise AssertionError("the walk started")

    monkeypatch.setattr(walk, "_slot_width", no_walk)
    for t, q in ((2**31, 0), (0, 2**31)):
        layers = [[[(0, 0, 0, 0, 1)]], [[(0, 0, 0, 0, 1)], [(0, t, q, 0, 1)]]]
        with pytest.raises(OverflowError):
            _packed_walk(layers, 1)
        with pytest.raises(AssertionError, match="the walk started"):
            _packed_walk(layers, 1, True)  # the letters box has no exponent to check
    with pytest.raises(OverflowError):  # two layers of 2**30 each
        _packed_walk([[[(0, 2**30, 0, 0, 1)]], [[(0, 2**30, 0, 0, 1)]]], 1)
    for t, q in ((2**31 - 1, 0), (0, 2**31 - 1)):  # exponents up to 2**31 - 1
        with pytest.raises(AssertionError, match="the walk started"):
            _packed_walk([[[(0, 0, 0, 0, 1)]], [[(0, 0, 0, 0, 1)], [(0, t, q, 0, 1)]]], 1)
