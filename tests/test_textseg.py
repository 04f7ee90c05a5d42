from __future__ import annotations

import math
import random

from seedqa.textseg import (
    _CJK_RANGES,
    LATIN_CHARS_PER_TOKEN,
    estimate_tokens,
    finish_estimate,
    fold_estimate,
    is_cjk,
    script_runs,
    tokenize,
)

from conftest import per_char_script_runs


def test_is_cjk_basic():
    assert is_cjk("患")
    assert is_cjk("ア")
    assert is_cjk("한")
    assert is_cjk("。")
    assert is_cjk("Ａ")  # fullwidth latin counts as CJK-width
    assert not is_cjk("a")
    assert not is_cjk("1")
    assert not is_cjk(" ")
    assert not is_cjk("é")


def test_is_cjk_extension_b():
    assert is_cjk("\U00020000")


def test_script_runs_alternation():
    runs = script_runs("患者有diabetes病史")
    assert runs == [(True, "患者有"), (False, "diabetes"), (True, "病史")]


def test_script_runs_empty():
    assert script_runs("") == []


def test_script_runs_reassembles_and_alternates():
    rng = random.Random(7)
    alphabet = "abc 12患者病史。ア한"
    for _ in range(200):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        runs = script_runs(text)
        assert "".join(run for _, run in runs) == text
        for k in range(1, len(runs)):
            assert runs[k][0] != runs[k - 1][0]
        assert all(run for _, run in runs)


def test_tokenize_mixed():
    assert tokenize("患者有diabetes mellitus病史") == [
        "患", "者", "有", "diabetes", "mellitus", "病", "史",
    ]
    assert tokenize("a b") == ["a", "b"]
    assert tokenize("") == []


def test_estimate_tokens_examples():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2
    assert estimate_tokens("患者") == 2
    assert estimate_tokens("患者ab") == 3


def test_estimate_tokens_monotone_and_subadditive():
    rng = random.Random(11)
    alphabet = "abcdefg 患者病史高血压。"
    for _ in range(300):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        joined = estimate_tokens(a + b)
        assert joined >= estimate_tokens(a)
        assert joined >= estimate_tokens(b)
        assert joined <= estimate_tokens(a) + estimate_tokens(b)


def test_estimate_tokens_positive_for_nonempty():
    assert estimate_tokens("x") == 1
    assert estimate_tokens("。") == 1


def _boundary_alphabet() -> list[str]:
    """Each CJK block edge and its neighbours, lone surrogates, the last
    code point, control whitespace and plain Latin."""
    points = {cp + d for lo, hi in _CJK_RANGES for cp in (lo, hi) for d in (-1, 0, 1)}
    points |= {0xD800, 0xDB7F, 0xDBFF, 0xDC00, 0xDE00, 0xDFFF, 0x10FFFF}
    return [chr(cp) for cp in sorted(points)] + list("\n\t abcXYZ09.,")


def test_script_runs_match_per_char_oracle_at_block_edges():
    rng = random.Random(3)
    alphabet = _boundary_alphabet()
    for _ in range(4000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        runs = per_char_script_runs(text)
        assert script_runs(text) == runs, repr(text)
        words = [t for cjk, run in runs for t in (run if cjk else run.split())]
        assert tokenize(text) == words
        assert estimate_tokens(text) == sum(
            len(run) if cjk else math.ceil(len(run) / LATIN_CHARS_PER_TOKEN)
            for cjk, run in runs
        )


def test_estimate_of_a_join_is_the_fold_of_its_pieces():
    rng = random.Random(4)
    alphabet = _boundary_alphabet()
    for _ in range(3000):
        pieces = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
                  for _ in range(rng.randint(1, 4))]
        state = (0, 0)
        for piece in pieces:
            state = fold_estimate(piece, state)
        assert finish_estimate(state) == estimate_tokens("".join(pieces)), pieces
