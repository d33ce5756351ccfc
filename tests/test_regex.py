import itertools
import random
import re
import sys
import threading
import time

import pytest

import jlogic.regex as rx
from jlogic.errors import MalformedRegex, StateBlowup
from helpers import NfaOracle, oracle_matches, random_regex, random_word


def test_parse_plus_shape():
    e = rx.parse_regex("(01)+")
    assert isinstance(e, rx.Plus)
    assert e.body == rx.cat([rx.Lit("0"), rx.Lit("1")])


def test_parse_sigma_star():
    assert rx.parse_regex(".*") == rx.SIGMA_STAR


def test_parse_group_union():
    e = rx.parse_regex("a(b|c)a")
    assert rx.matches(e, "aba") and rx.matches(e, "aca")
    assert not rx.matches(e, "aa") and not rx.matches(e, "abca")


@pytest.mark.parametrize("bad", ["(", "a)", "*a", "[z-a]", "a\\", "a|*"])
def test_parse_errors(bad):
    with pytest.raises(MalformedRegex):
        rx.parse_regex(bad)


def test_matching_is_anchored():
    e = rx.parse_regex("ab")
    assert rx.matches(e, "ab")
    assert not rx.matches(e, "xaby")
    assert not rx.matches(e, "abb")


def test_matches_examples():
    e = rx.parse_regex("(01)+")
    assert rx.matches(e, "01") and rx.matches(e, "0101")
    assert not rx.matches(e, "") and not rx.matches(e, "010")
    assert rx.matches(rx.SIGMA_STAR, "")
    assert rx.matches(rx.SIGMA_STAR, "anything")


def test_escapes_and_classes():
    e = rx.parse_regex(r"[A-z]*@ciws\.cl")
    assert rx.matches(e, "me@ciws.cl")
    assert not rx.matches(e, "me@ciwsXcl")
    assert rx.matches(rx.parse_regex("[^ab]"), "c")
    assert not rx.matches(rx.parse_regex("[^ab]"), "a")
    assert not rx.matches(rx.parse_regex("[]"), "")
    assert rx.matches(rx.parse_regex("[^]"), "q")


def test_matches_agrees_with_nfa_oracle():
    rng = random.Random(2024)
    pairs = 0
    while pairs < 20_000:
        e = random_regex(rng, rng.randint(0, 3))
        assert rx.compl(rx.compl(e)) == e
        for r in (e, rx.compl(e)):
            oracle = NfaOracle(r)
            for _ in range(20):
                w = random_word(rng)
                assert rx.matches(r, w) == oracle.matches(w), (rx.to_text(r), w)
                pairs += 1


def test_print_parse_round_trip():
    rng = random.Random(5)
    for _ in range(300):
        e = random_regex(rng, rng.randint(0, 3))
        text = rx.to_text(e)
        back = rx.parse_regex(text)
        for _ in range(10):
            w = random_word(rng)
            assert rx.matches(back, w) == rx.matches(e, w), text


def test_complement_intersection_of_sigma_star_is_empty():
    assert rx.is_empty(rx.compl(rx.alt([rx.SIGMA_STAR])))


def test_complement_intersection_example():
    none = rx.compl(rx.alt([rx.word_regex("name"), rx.parse_regex("a(b|c)a")]))
    assert rx.matches(none, "age")
    assert not rx.matches(none, "name")
    assert not rx.matches(none, "aba")
    assert rx.matches(none, "")


def test_complement_single_negates_membership():
    rng = random.Random(77)
    for _ in range(100):
        e = random_regex(rng, 2)
        none = rx.compl(rx.alt([e]))
        for _ in range(10):
            w = random_word(rng)
            assert rx.matches(none, w) == (not rx.matches(e, w))


def test_complement_intersection_brute_force_words():
    rng = random.Random(99)
    alphabet = "ab"
    words = [""]
    for _ in range(6):
        words += [w + c for w in words for c in alphabet if len(w) < 6]
    words = sorted(set(words))
    for _ in range(25):
        es = [random_regex(rng, 2) for _ in range(rng.randint(1, 3))]
        none = rx.compl(rx.alt(es))
        for w in words:
            expected = not any(oracle_matches(e, w) for e in es)
            assert rx.matches(none, w) == expected


def test_is_empty():
    assert rx.is_empty(rx.EMPTY)
    assert not rx.is_empty(rx.Lit("a"))


def test_is_empty_agrees_with_word_search():
    rng = random.Random(444)
    for _ in range(80):
        e = random_regex(rng, 2)
        found = bool(rx.enumerate_words(e, 8, 1))
        assert rx.is_empty(e) == (not found)


def test_enumerate_words_example():
    assert rx.enumerate_words(rx.parse_regex("(01)+"), 4, 10) == ["01", "0101"]
    assert rx.enumerate_words(rx.EMPTY, 4, 10) == []


def test_enumerate_words_properties():
    rng = random.Random(31337)
    for _ in range(60):
        e = random_regex(rng, 2)
        words = rx.enumerate_words(e, 5, 12)
        assert len(set(words)) == len(words)
        assert all(len(w) <= 5 for w in words)
        assert all(rx.matches(e, w) for w in words)
        assert [len(w) for w in words] == sorted(len(w) for w in words)


def test_dfa_to_regex_round_trip():
    rng = random.Random(6)
    for _ in range(40):
        es = [random_regex(rng, 2) for _ in range(rng.randint(1, 2))]
        none = rx.compl(rx.alt(es))
        back = rx.dfa_to_regex(none)
        reparsed = rx.parse_regex(rx.to_text(back))
        for _ in range(25):
            w = random_word(rng)
            assert rx.matches(reparsed, w) == rx.matches(none, w)


def test_state_cap(monkeypatch):
    # forcing many distinct residuals: (a|b)*a(a|b)^n needs ~2^n states;
    # emptiness, word enumeration and printing a complement read the cap
    # when they run
    monkeypatch.setattr(rx, "DEFAULT_STATE_CAP", 50)
    e = rx.parse_regex("(a|b)*a" + "(a|b)" * 14)
    for run in (lambda: rx.is_empty(e), lambda: rx.enumerate_words(e, 3, 3),
                lambda: rx.to_text(rx.compl(e))):
        with pytest.raises(StateBlowup, match="exceeded 50 states"):
            run()


def _memo_keys(r):
    """Every character a memo holds in r, its sub-nodes and derivatives."""
    seen, stack, keys = set(), [r], set()
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            keys.update(n._derivs)
            stack.extend(n._derivs.values())
            stack.extend(getattr(n, "parts", ()))
            stack.extend([n.body] if isinstance(n, (rx.Star, rx.Plus, rx.Compl)) else [])
    return keys


def test_match_cap(monkeypatch):
    # the cap counts the distinct derivatives matching a pattern takes; a
    # character no memo holds steps by its interval's first, so thousands
    # of distinct characters take no new derivative and add no memo entry
    monkeypatch.setattr(rx, "DEFAULT_STATE_CAP", 100)
    e = rx.parse_regex("(a|b)*a" + "(a|b)" * 14)
    with pytest.raises(StateBlowup, match="matching exceeded 100 derivatives"):
        for word in itertools.product("ab", repeat=15):
            rx.matches(e, "".join(word))
    new = [chr(cp) for cp in range(0x30000, 0x30000 + 5000)]
    e = rx.parse_regex("[a-z]*x.*")
    assert all(rx.matches(e, "x" + c) and not rx.matches(e, c) for c in new)
    assert all(rx.matches(rx.SIGMA_STAR, c) for c in new)
    assert all(rx.word_filter(e)("ax" + c) for c in new)
    assert not (_memo_keys(e) | _memo_keys(rx.SIGMA_STAR)) & set(new)


def test_print_size_cap(monkeypatch):
    # the printed complement grows exponentially in n for (a|b)*a(a|b)^n
    small = rx.compl(rx.parse_regex("(a|b)*a" + "(a|b)" * 3))
    assert rx.parse_regex(rx.to_text(small)) is not None
    large = rx.compl(rx.parse_regex("(a|b)*a" + "(a|b)" * 4))
    with pytest.raises(StateBlowup, match=f"exceeded {rx.PRINT_SIZE_CAP} regex nodes"):
        rx.to_text(large)
    monkeypatch.setattr(rx, "PRINT_SIZE_CAP", 1000)
    with pytest.raises(StateBlowup, match="exceeded 1000 regex nodes"):
        rx.to_text(small)


def test_literal_word():
    assert rx.literal_word(rx.word_regex("abc")) == "abc"
    assert rx.literal_word(rx.EPSILON) == ""
    assert rx.literal_word(rx.parse_regex("ab*")) is None


def test_shared_matcher_under_threads():
    # the threads share one pattern a round, with a fresh alternative that
    # no word matches, so it and each of its derivatives are new: they race
    # to take them and fill the memos; every answer must still be re's
    patterns = ["(a|b)*a(a|b)(a|b)(a|b)(a|b)", "[a-c]*b[a-c][a-c]c*", "(ab|ba|c)+a*"]
    rng = random.Random(48)
    words = ["".join(rng.choice("abcd") for _ in range(rng.randint(0, 12)))
             for _ in range(300)]
    deadline = time.monotonic() + 0.6
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fresh = 0
        while time.monotonic() < deadline:
            for p in patterns:
                fresh += 1
                p = f"{p}|.*z{fresh}"
                shared = rx.parse_regex(p)
                expected = [re.fullmatch(p, w) is not None for w in words]
                answers, errors = {}, []

                def worker(i, shared=shared, answers=answers, errors=errors):
                    try:
                        answers[i] = [rx.matches(shared, w) for w in words]
                    except Exception as exc:  # reported below
                        errors.append(exc)

                threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=10)
                assert not any(th.is_alive() for th in threads)
                assert not errors, errors
                assert all(answers[i] == expected for i in range(8)), p
    finally:
        sys.setswitchinterval(previous)
