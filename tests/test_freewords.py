import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presforge.freewords import (
    Alphabet,
    AlphabetMismatchError,
    MalformedWordError,
    UnmappedSymbolError,
    Word,
    apply_map,
    commutator,
    conjugacy_test,
    cyclically_reduce,
    exponent_vector,
    free_reduce,
    identity_images,
    parse_word,
    relabel,
    render_word,
)

import oracles

AB = Alphabet(["a", "b"])
ABCD = Alphabet(["a", "b", "c", "d"])


def rand_word(alph, n, rng):
    return Word(alph, tuple((rng.randrange(alph.rank), rng.choice((1, -1)))
                            for _ in range(n)))


def rescan_reduce(w):
    """Independent quadratic reducer: delete the first cancelling pair and
    start over until none remain."""
    letters = list(w.letters)
    changed = True
    while changed:
        changed = False
        for k in range(len(letters) - 1):
            if letters[k][0] == letters[k + 1][0] and letters[k][1] == -letters[k + 1][1]:
                del letters[k:k + 2]
                changed = True
                break
    return Word(w.alphabet, tuple(letters))


class TestAlphabet:
    def test_duplicate_names_rejected(self):
        with pytest.raises(MalformedWordError):
            Alphabet(["a", "a"])

    def test_bad_name_rejected(self):
        with pytest.raises(MalformedWordError):
            Alphabet(["1bad"])

    def test_index_order(self):
        assert ABCD.index("c") == 2
        with pytest.raises(MalformedWordError):
            ABCD.index("zz")


class TestParsing:
    def test_full_syntax(self):
        w = parse_word(ABCD, "a*b^-2*(c*d)^3*[a,b]")
        expected = (ABCD.word("a").concat(ABCD.word("b") ** -2)
                    .concat(ABCD.word("c*d") ** 3)
                    .concat(commutator(ABCD.word("a"), ABCD.word("b"))))
        assert free_reduce(w) == free_reduce(expected)

    def test_whitespace_insignificant(self):
        assert parse_word(AB, " a * b ^ -1 ") == parse_word(AB, "a*b^-1")

    def test_juxtaposition(self):
        assert parse_word(AB, "a b") == parse_word(AB, "a*b")

    def test_identity_literal(self):
        assert parse_word(AB, "1") == AB.identity()
        assert render_word(AB.identity()) == "1"

    def test_nested_commutator(self):
        w = parse_word(ABCD, "[a,[b,c]]")
        inner = commutator(ABCD.word("b"), ABCD.word("c"))
        assert w == commutator(ABCD.word("a"), inner)

    def test_unknown_generator(self):
        with pytest.raises(MalformedWordError):
            parse_word(AB, "a*zz")

    def test_render_roundtrip_random(self):
        rng = random.Random(42)
        for _ in range(300):
            w = rand_word(ABCD, rng.randrange(12), rng)
            assert parse_word(ABCD, render_word(w)) == w

    def test_parentheses_nest_to_any_depth(self):
        n = 100_000
        assert parse_word(AB, "(" * n + "a*b^-1" + ")" * n) == AB.word("a*b^-1")


class TestFreeReduce:
    def test_adjacent_cancellation(self):
        assert render_word(free_reduce(parse_word(AB, "a*a^-1*b"))) == "b"

    def test_identity(self):
        assert free_reduce(AB.identity()) == AB.identity()

    def test_idempotent_and_fixed_points_reduced(self):
        rng = random.Random(1)
        for _ in range(300):
            w = rand_word(AB, rng.randrange(30), rng)
            r = free_reduce(w)
            assert free_reduce(r) == r
            assert r.is_reduced()

    def test_against_rescan_oracle(self):
        rng = random.Random(2)
        for _ in range(1000):
            w = rand_word(ABCD, rng.randrange(24), rng)
            assert free_reduce(w) == rescan_reduce(w)

    def test_exponent_vector_invariant(self):
        rng = random.Random(3)
        for _ in range(300):
            w = rand_word(ABCD, rng.randrange(20), rng)
            assert exponent_vector(free_reduce(w)) == exponent_vector(w)


class TestCyclicReduce:
    def test_conjugate_strips(self):
        core, conj = cyclically_reduce(parse_word(AB, "a*b*a^-1"))
        assert render_word(core) == "b" and render_word(conj) == "a"

    def test_already_cyclically_reduced(self):
        core, conj = cyclically_reduce(parse_word(AB, "a*b"))
        assert render_word(core) == "a*b" and conj == AB.identity()

    def test_random_conjugates_rotate(self):
        rng = random.Random(4)
        for _ in range(200):
            w = free_reduce(rand_word(AB, rng.randrange(1, 10), rng))
            cw, _ = cyclically_reduce(w)
            if not cw.letters:
                continue
            g = rand_word(AB, rng.randrange(6), rng)
            core, conj = cyclically_reduce(free_reduce(g.concat(cw).concat(g.inverse())))
            rotations = {cw.letters[j:] + cw.letters[:j] for j in range(len(cw))}
            assert core.letters in rotations
            # conjugator actually conjugates
            assert free_reduce(conj.concat(core).concat(conj.inverse())) == \
                free_reduce(g.concat(cw).concat(g.inverse()))


class TestApplyMap:
    def test_kill_generator(self):
        images = {"a": AB.word("a"), "b": AB.identity()}
        # a maps to a fresh single-letter target named x
        X = Alphabet(["x"])
        images = {"a": X.word("x"), "b": X.identity()}
        assert render_word(apply_map(parse_word(AB, "a*b"), images)) == "x"

    def test_identity_images(self):
        rng = random.Random(5)
        for _ in range(100):
            w = rand_word(AB, rng.randrange(15), rng)
            assert apply_map(w, identity_images(AB)) == free_reduce(w)

    def test_homomorphism_law(self):
        rng = random.Random(6)
        images = {"a": ABCD.word("c*d"), "b": ABCD.word("d^-1")}
        for _ in range(500):
            u = rand_word(AB, rng.randrange(10), rng)
            v = rand_word(AB, rng.randrange(10), rng)
            lhs = apply_map(u.concat(v), images)
            rhs = free_reduce(apply_map(u, images).concat(apply_map(v, images)))
            assert lhs == rhs

    def test_respects_inverses(self):
        rng = random.Random(7)
        images = {"a": ABCD.word("c^2"), "b": ABCD.word("d*c")}
        for _ in range(200):
            w = rand_word(AB, rng.randrange(12), rng)
            assert apply_map(w.inverse(), images) == apply_map(w, images).inverse()

    def test_missing_image(self):
        with pytest.raises(UnmappedSymbolError):
            apply_map(parse_word(AB, "a*b"), {"a": AB.word("a")})


class TestRelabel:
    def test_rejects_non_injective_renaming(self):
        with pytest.raises(MalformedWordError):
            relabel([AB.word("a*b")], ABCD, ["c", "c"])

    def test_rejects_mixed_alphabets_and_wrong_name_count(self):
        with pytest.raises(AlphabetMismatchError):
            relabel([AB.word("a"), ABCD.word("a")], ABCD)
        with pytest.raises(AlphabetMismatchError):
            relabel([AB.word("a")], ABCD, ["a"])

    def test_rejects_names_missing_from_target(self):
        with pytest.raises(MalformedWordError):
            relabel([ABCD.word("d")], AB)

    def test_empty_input(self):
        assert relabel([], AB) == []


_LETTER_LISTS = st.lists(st.tuples(st.integers(0, 3), st.sampled_from((1, -1))), max_size=12)


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data(), rank=st.integers(1, 4), extra=st.integers(0, 3),
       raw=st.lists(_LETTER_LISTS, max_size=5))
def test_fuzz_relabel_matches_identity_apply_map(data, rank, extra, raw):
    src = Alphabet([f"g{i}" for i in range(rank)])
    pool = [f"g{i}" for i in range(rank)] + [f"h{i}" for i in range(extra)]
    target = Alphabet(data.draw(st.permutations(pool)))
    words = [free_reduce(Word(src, tuple((i % rank, s) for i, s in letters)))
             for letters in raw]
    identity = {s: target.gen(s) for s in src.symbols}
    assert relabel(words, target) == [apply_map(w, identity, target) for w in words]
    names = data.draw(st.permutations(pool))[:rank]
    renamed = {s: target.gen(n) for s, n in zip(src.symbols, names)}
    out = relabel(words, target, names)
    assert out == [apply_map(w, renamed, target) for w in words]
    assert all(w.is_reduced() for w in out)
    if rank >= 2:
        clash = [names[0]] * rank
        with pytest.raises(MalformedWordError):
            relabel(words or [src.identity()], target, clash)


class TestExponentVector:
    def test_higman_relator(self):
        w = parse_word(ABCD, "a*b*a^-1*b^-2")
        assert exponent_vector(w) == (0, -1, 0, 0)

    def test_commutators_vanish(self):
        rng = random.Random(8)
        for _ in range(100):
            u = rand_word(ABCD, rng.randrange(8), rng)
            v = rand_word(ABCD, rng.randrange(8), rng)
            assert exponent_vector(commutator(u, v)) == (0, 0, 0, 0)

    def test_additive_over_concatenation(self):
        rng = random.Random(9)
        for _ in range(500):
            u = rand_word(ABCD, rng.randrange(10), rng)
            v = rand_word(ABCD, rng.randrange(10), rng)
            combined = exponent_vector(u.concat(v))
            assert combined == tuple(x + y for x, y in
                                     zip(exponent_vector(u), exponent_vector(v)))



class TestLetterEncoding:
    def test_round_trip_any_rank(self):
        rng = random.Random(10)
        big = Alphabet([f"g{i}" for i in range(300)])
        for alph in (AB, big):
            for _ in range(100):
                w = rand_word(alph, rng.randrange(12), rng)
                s = Word(alph, w.letters).text
                assert len(s) == len(w) and Word._trusted(alph, s) == w


class TestConjugacy:
    def test_ab_ba(self):
        wit = conjugacy_test(parse_word(AB, "a*b"), parse_word(AB, "b*a"))
        assert render_word(wit) == "a"

    def test_distinct_generators(self):
        assert conjugacy_test(AB.word("a"), AB.word("b")) is None

    def test_random_conjugates_with_witness(self):
        rng = random.Random(10)
        for _ in range(200):
            w = free_reduce(rand_word(AB, rng.randrange(1, 8), rng))
            g = rand_word(AB, rng.randrange(6), rng)
            u = free_reduce(g.concat(w).concat(g.inverse()))
            wit = conjugacy_test(u, w)
            assert wit is not None
            assert free_reduce(wit.concat(w).concat(wit.inverse())) == u

    def test_direct_product_componentwise(self):
        u = (AB.word("a*b"), AB.word("b"))
        v = (AB.word("b*a"), AB.word("a*b*a^-1"))
        for uu, vv in zip(u, v):
            ww = conjugacy_test(uu, vv)
            assert free_reduce(ww.concat(vv).concat(ww.inverse())) == free_reduce(uu)
        bad = (AB.word("a"), AB.word("b"))
        assert any(conjugacy_test(uu, vv) is None for uu, vv in zip(u, bad))

    def test_mismatched_alphabets(self):
        with pytest.raises(AlphabetMismatchError):
            conjugacy_test(AB.word("a"), ABCD.word("a"))


class TestWordAlgebra:
    def test_mul_reduces(self):
        assert render_word(AB.word("a*b") * AB.word("b^-1")) == "a"

    def test_pow(self):
        assert render_word(AB.word("a*b") ** -2) == "b^-1*a^-1*b^-1*a^-1"
        assert (AB.word("a") ** 0) == AB.identity()
        assert render_word(Word(AB, ((0, 1), (1, 1), (0, -1))) ** 3) == "a*b^3*a^-1"
        assert Word(AB, ((0, 1), (0, -1))) ** 5 == AB.identity()

    def test_malformed_letters(self):
        # free_reduce, inverse, concat and Word._trusted build their words
        # without the letter check; the public constructor keeps it
        for alph in (AB, ABCD):
            for bad in (((5, 1),), ((alph.rank, 1),), ((-1, 1),), ((0, 2),), ((0, 0),),
                        ((0, 1), (1, -2))):
                with pytest.raises(MalformedWordError):
                    Word(alph, bad)

    def test_unchecked_paths_give_valid_words(self):
        rng = random.Random(12)
        for _ in range(50):
            u, v = rand_word(ABCD, rng.randrange(10), rng), rand_word(ABCD, rng.randrange(10), rng)
            for w in (u.inverse(), u.concat(v), free_reduce(u.concat(v)),
                      Word._trusted(ABCD, Word(ABCD, u.letters).text)):
                assert type(w.letters) is tuple and w == Word(ABCD, w.letters)


class TestWordValues:
    def test_word_from_a_list_is_a_value(self):
        w = Word(AB, [(0, 1)])
        assert w == Word(AB, ((0, 1),)) and hash(w) == hash(Word(AB, ((0, 1),)))
        assert w.concat(AB.gen("b")) == parse_word(AB, "a*b")

    def test_cyclically_reduce_long_conjugator(self):
        n = 10**5
        core, conj = cyclically_reduce(AB.gen("b") ** n * AB.gen("a") ** 7 * AB.gen("b") ** -n)
        assert core == AB.gen("a") ** 7 and conj == AB.gen("b") ** n


def _parse_outcome(parse, text):
    try:
        return "word", parse(ABC, text).text
    except MalformedWordError as e:
        return "error", str(e)


# well-formed word texts, and token soups that are mostly malformed
_WORD_TEXTS = st.recursive(
    st.sampled_from(["a", "b^-2", "c^3", "1", "a^0"]),
    lambda inner: st.one_of(
        st.tuples(inner, inner, st.sampled_from(["*", " ", " * "])).map("".join),
        inner.map(lambda w: f"({w})"),
        st.tuples(inner, st.integers(-3, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(inner, inner).map(lambda t: f"[{t[0]},{t[1]}]"),
    ),
    max_leaves=12)
_TOKEN_SOUPS = st.lists(st.sampled_from(
    ["a", "b", "zz", "1", "2", "-1", "*", "^", "(", ")", "[", "]", ",", "<", ">", "|", "=",
     " ", "\n", "$"]), max_size=16).map("".join)


@settings(max_examples=500, deadline=None, database=None)
@given(body=st.one_of(_WORD_TEXTS, _TOKEN_SOUPS), opened=st.integers(0, 300),
       closed=st.integers(0, 300))
def test_fuzz_parser_matches_recursive_reference(body, opened, closed):
    """The explicit-stack parser gives the recursive parser's word, or its
    error message, on well-formed and malformed texts nested below 400."""
    for text in (body, "(" * opened + body + ")" * closed, "(" * opened + body + ")" * opened):
        expected = _parse_outcome(oracles.recursive_parse_word, text)
        assert _parse_outcome(parse_word, text) == expected


# words over a rank-3 alphabet, drawn so that cancellations are common
ABC = Alphabet(["a", "b", "c"])
_LETTERS3 = st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1))),
                     max_size=24).map(tuple)


@settings(max_examples=300, deadline=None, database=None)
@given(u=_LETTERS3, v=_LETTERS3, n=st.integers(-9, 9))
def test_fuzz_word_algebra_matches_tuple_reference(u, v, n):
    U, V = Word(ABC, u), Word(ABC, v)
    assert U.letters == u and Word(ABC, U.letters) == U
    assert free_reduce(U).letters == oracles.tuple_free_reduce(u)
    assert U.is_reduced() == oracles.tuple_is_reduced(u)
    assert U.inverse().letters == oracles.tuple_inverse(u)
    assert U.concat(V).letters == u + v
    assert (U ** n).letters == oracles.tuple_pow(u, n)
    # the power is built from the cyclic core, not by reducing the repetition
    assert U ** n == free_reduce(Word._trusted(ABC, (U if n >= 0 else ~U).text * abs(n)))
    core, conj = cyclically_reduce(U)
    assert (core.letters, conj.letters) == oracles.tuple_cyclically_reduce(u)
    assert exponent_vector(U) == oracles.tuple_exponent_vector(u, 3)
    assert render_word(U) == oracles.tuple_render(u, ABC.symbols)


@settings(max_examples=200, deadline=None, database=None)
@given(u=_LETTERS3, images=st.lists(_LETTERS3, min_size=3, max_size=3),
       names=st.permutations(["a", "b", "c", "d"]))
def test_fuzz_maps_match_tuple_reference(u, images, names):
    U = Word(ABC, u)
    mapped = apply_map(U, {s: Word(ABC, im) for s, im in zip(ABC.symbols, images)})
    assert mapped.letters == oracles.tuple_apply_map(u, images)
    out, = relabel([U], ABCD, names[:3])
    assert out.letters == oracles.tuple_relabel(u, [ABCD.index(x) for x in names[:3]])


@settings(max_examples=300, deadline=None, database=None)
@given(u=_LETTERS3, g=_LETTERS3, v=_LETTERS3, j=st.integers(0, 23), conjugate=st.booleans())
def test_fuzz_conjugacy_witness_matches_tuple_reference(u, g, v, j, conjugate):
    if conjugate:  # v is g rot_j(core of u) g^-1
        core = oracles.tuple_cyclically_reduce(u)[0]
        j %= max(len(core), 1)
        v = g + core[j:] + core[:j] + oracles.tuple_inverse(g)
    witness = conjugacy_test(Word(ABC, u), Word(ABC, v))
    expected = oracles.tuple_conjugacy_witness(u, v)
    assert (None if witness is None else witness.letters) == expected


# rank 3 and two wide alphabets: letter codes pass U+01FF from generator
# 128 on, and the surrogate block U+D800 from generator 27,520 on
_ALPHABETS = {3: ABC, 128: Alphabet([f"g{i}" for i in range(128)]),
              27_530: Alphabet([f"g{i}" for i in range(27_530)])}


@st.composite
def _runs(draw, rank, max_runs=6):
    """Letters as runs of up to 300 equal letters of either sign, on
    generators often among the first or the last three."""
    gens = st.sampled_from([0, 1, 2, rank - 3, rank - 2, rank - 1]) | st.integers(0, rank - 1)
    runs = draw(st.lists(st.tuples(gens, st.sampled_from((1, -1)),
                                   st.integers(1, 3) | st.integers(1, 300)), max_size=max_runs))
    return tuple(letter for i, s, k in runs for letter in [(i, s)] * k)


@settings(max_examples=300, deadline=None, database=None)
@given(rank=st.sampled_from(sorted(_ALPHABETS)), data=st.data())
def test_fuzz_render_matches_tuple_reference(rank, data):
    """Runs (adjacent equal ones merging, inverse ones left unreduced)
    render as the tuple reference does and parse back to the same word."""
    alph = _ALPHABETS[rank]
    u = data.draw(_runs(rank))
    w = Word(alph, u)
    assert render_word(w) == oracles.tuple_render(u, alph.symbols)
    assert parse_word(alph, render_word(w)) == w


@settings(max_examples=200, deadline=None, database=None)
@given(rank=st.sampled_from(sorted(_ALPHABETS)), data=st.data())
def test_fuzz_commutator_matches_free_reduce(rank, data):
    """[u,v] on unreduced u and v, empty ones and ones that cancel at the
    joins included, is the free reduction of u v u^-1 v^-1; operands over
    two alphabets are refused.  (At rank 27,530 each reduced-word test
    searches the text for each of 55,060 cancelling pairs, so the words
    are kept shorter.)"""
    alph = _ALPHABETS[rank]
    u = Word(alph, data.draw(_runs(rank, 3)))
    v = Word(alph, data.draw(_runs(rank, 3) | st.just(u.letters)
                             | st.just(u.inverse().letters)))
    assert commutator(u, v) == free_reduce(u.concat(v).concat(~u).concat(~v))
    other = _ALPHABETS[128 if rank == 3 else 3]
    for x, y in ((u, other.gen(other.symbols[0])), (other.identity(), v)):
        with pytest.raises(AlphabetMismatchError):
            commutator(x, y)
